// Customsched: plug a user-defined page-walk scheduling policy into the
// simulator through the public Scheduler interface and race it against
// the built-in policies.
//
// The custom policy below is "fewest-pending-first": it tracks how many
// requests of each SIMD instruction are pending and services the
// instruction closest to completion — a plausible alternative reading of
// shortest-job-first that ignores PWC estimates.
package main

import (
	"fmt"
	"log"

	"gpuwalk"
)

// fewestPending services the instruction with the fewest pending
// requests, oldest request first within it. A Scheduler owns its
// pending requests: the simulator hands each one over with Admit, in
// arrival order, and takes the next one to walk with Pick.
type fewestPending struct {
	pending []*gpuwalk.Request // arrival order
	count   map[uint64]int     // pending requests per instruction
}

func (f *fewestPending) Name() string { return "fewest-pending" }

func (f *fewestPending) Admit(r *gpuwalk.Request) {
	if f.count == nil {
		f.count = make(map[uint64]int)
	}
	f.pending = append(f.pending, r)
	f.count[uint64(r.Instr)]++
}

func (f *fewestPending) Pick() *gpuwalk.Request {
	best := 0
	for i := 1; i < len(f.pending); i++ {
		ci, cb := f.count[uint64(f.pending[i].Instr)], f.count[uint64(f.pending[best].Instr)]
		if ci < cb || (ci == cb && f.pending[i].Seq < f.pending[best].Seq) {
			best = i
		}
	}
	r := f.pending[best]
	f.pending = append(f.pending[:best], f.pending[best+1:]...)
	if f.count[uint64(r.Instr)]--; f.count[uint64(r.Instr)] == 0 {
		delete(f.count, uint64(r.Instr))
	}
	return r
}

func (f *fewestPending) PendingLen() int { return len(f.pending) }

func main() {
	cfg := gpuwalk.DefaultConfig()
	cfg.Workload = "BIC"

	tr, err := gpuwalk.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	run := func(name string, kind gpuwalk.SchedulerKind, custom gpuwalk.Scheduler) gpuwalk.Result {
		c := cfg
		c.Scheduler = kind
		c.CustomScheduler = custom
		res, err := gpuwalk.RunTrace(c, tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %10d cycles  %7d walks\n", name, res.Cycles, res.PageWalks())
		return res
	}

	fcfs := run("fcfs", gpuwalk.FCFS, nil)
	run("simt-aware", gpuwalk.SIMTAware, nil)
	custom := run("fewest-pending", "", &fewestPending{})
	fmt.Printf("\nfewest-pending vs fcfs: %.2fx\n", gpuwalk.Speedup(fcfs, custom))
}

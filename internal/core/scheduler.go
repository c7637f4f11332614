// Package core implements the paper's primary contribution: scheduling
// policies for the IOMMU's pending page-table-walk buffer, including the
// SIMT-aware scheduler of Shin et al. (ISCA 2018).
//
// The IOMMU (internal/iommu) owns the walkers and the overflow queue;
// the Scheduler owns the pending buffer and acts at the two points the
// paper identifies (Figure 7):
//
//  1. when a new walk request enters the buffer, the request is scored
//     (Admit), and
//  2. when a walker becomes free, the scheduler picks which pending
//     request to service next (Pick).
//
// The linear O(n)-scan policies that specify each built-in scheduler
// live in reference_test.go, where the differential tests compare the
// production implementations against them.
package core

import (
	"fmt"

	"gpuwalk/internal/sim"
)

// InstrID uniquely identifies one dynamic SIMD memory instruction. The
// paper attaches a 20-bit instruction ID to each walk request; we use 64
// bits since the simulator never recycles IDs.
type InstrID uint64

// Request is one pending page-table-walk request in the IOMMU buffer.
type Request struct {
	VPN       uint64    // virtual page number to translate
	Instr     InstrID   // issuing SIMD instruction
	Wavefront uint64    // issuing wavefront (for stats)
	CU        int       // issuing compute unit (for stats)
	Seq       uint64    // arrival order at the IOMMU buffer (FIFO ties)
	Arrive    sim.Cycle // arrival cycle at the IOMMU buffer

	// Est is this request's own PWC-probe estimate of walk memory
	// accesses (1..4), set by the IOMMU on arrival (action 1-a).
	Est int
	// Score estimates the total memory accesses needed to service all
	// pending walks of the issuing instruction (action 1-b). Shared by
	// every pending request of that instruction, and reduced as the
	// instruction's requests are dispatched: the paper defines it as the
	// sum over the instruction's *pending* requests.
	Score int

	// Retries counts re-admissions after a page fault or an injected
	// walker kill. Each retry re-stamps Seq (admission order must stay
	// monotone, see index.go) but keeps Arrive, so walk-latency stats
	// include the fault round trip.
	Retries int

	// Index bookkeeping of the built-in schedulers (see index.go).
	aprev, anext *Request // arrival-ordered pending list links
	gnext        *Request // per-instruction FIFO link
	agingBase    uint64   // dispatch-counter stamp for lazy aging
}

// Decision names the rule that produced a scheduling pick. Schedulers
// that implement DecisionReporter expose it so the observability layer
// can label each dispatch with the rule that won.
type Decision uint8

// Decision rules, in rough priority order across the built-in policies.
const (
	DecisionNone   Decision = iota
	DecisionFCFS            // oldest pending request
	DecisionRandom          // uniform random pick
	DecisionSJF             // lowest-score instruction
	DecisionBatch           // continue the last-scheduled instruction
	DecisionAging           // starvation avoidance fired
	DecisionFair            // cross-CU round-robin (cu-fair)
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecisionFCFS:
		return "fcfs"
	case DecisionRandom:
		return "random"
	case DecisionSJF:
		return "sjf"
	case DecisionBatch:
		return "batch"
	case DecisionAging:
		return "aging"
	case DecisionFair:
		return "fair"
	}
	return "none"
}

// DecisionReporter is implemented by schedulers that can report which
// rule produced their most recent pick. All built-in policies implement
// it; custom schedulers may omit it, in which case dispatch events are
// not labeled with a rule.
type DecisionReporter interface {
	LastDecision() Decision
}

// Scheduler owns the pending walk requests and selects the order in
// which they are serviced. Implementations are not safe for concurrent
// use; the simulator is single-threaded per system.
//
// # FIFO-admission contract
//
// The IOMMU calls Admit in strictly increasing Request.Seq order:
// overflow requests are promoted FIFO and new arrivals never jump the
// overflow queue. A policy may rely on it; the built-in ones do, to age
// lazily and to find "the oldest pending request of X" at a list head
// (see index.go).
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Admit adds r to the pending set (action 1-b). The caller has set
	// r.Est from its PWC probe; r.Seq is greater than every earlier
	// Admit's.
	Admit(r *Request)
	// Pick removes and returns the next request to service (action
	// 2-a). It is only called when PendingLen() > 0.
	Pick() *Request
	// PendingLen returns the number of pending requests.
	PendingLen() int
}

// Kind names a built-in scheduling policy.
type Kind string

// Built-in policies.
const (
	KindFCFS      Kind = "fcfs"       // baseline: first-come-first-serve
	KindRandom    Kind = "random"     // naive random (the paper's strawman)
	KindSJF       Kind = "sjf"        // shortest-job-first only (ablation)
	KindBatch     Kind = "batch"      // same-instruction batching only (ablation)
	KindSIMTAware Kind = "simt-aware" // full proposal: SJF + batching + aging
)

// Kinds lists all built-in policies, including the CU-fair QoS
// extension (see fairness.go).
func Kinds() []Kind {
	return []Kind{KindFCFS, KindRandom, KindSJF, KindBatch, KindSIMTAware, KindCUFair}
}

// Options configures scheduler construction.
type Options struct {
	// Seed drives the Random policy; ignored by deterministic policies.
	Seed uint64
	// AgingThreshold is the number of younger requests that may be
	// scheduled past a pending request before it is force-prioritized.
	// The paper uses two million on full-length gem5 runs; scaled runs
	// use a proportionally smaller default. Zero means DefaultAging.
	AgingThreshold uint64
}

// DefaultAging is the default starvation threshold for scaled runs.
const DefaultAging = 1 << 20

// New constructs a built-in scheduler.
func New(kind Kind, opt Options) (Scheduler, error) {
	aging := opt.AgingThreshold
	if aging == 0 {
		aging = DefaultAging
	}
	switch kind {
	case KindFCFS:
		return &IndexedFIFO{}, nil
	case KindRandom:
		return NewIndexedRandom(opt.Seed), nil
	case KindSJF:
		return &IndexedSIMT{SJF: true, AgingThreshold: aging, name: string(KindSJF)}, nil
	case KindBatch:
		return &IndexedSIMT{Batching: true, AgingThreshold: aging, name: string(KindBatch)}, nil
	case KindSIMTAware:
		return &IndexedSIMT{SJF: true, Batching: true, AgingThreshold: aging, name: string(KindSIMTAware)}, nil
	case KindCUFair:
		return &IndexedCUFair{AgingThreshold: aging}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler kind %q", kind)
	}
}

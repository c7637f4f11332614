package core_test

import (
	"testing"

	"gpuwalk"
	"gpuwalk/internal/core"
	"gpuwalk/internal/gpu"
	"gpuwalk/internal/iommu"
)

// microConfig is a small run of workload under kind: tiny traces, a
// 16-entry buffer and two walkers, so the overflow queue and the
// strict-FIFO admission path see heavy traffic.
func microConfig(workload string, kind gpuwalk.SchedulerKind) gpuwalk.Config {
	cfg := gpuwalk.DefaultConfig()
	cfg.Workload = workload
	cfg.Scheduler = kind
	cfg.Gen.WavefrontsPerCU = 2
	cfg.Gen.InstrsPerWavefront = 6
	cfg.Gen.Scale = 0.05
	cfg.Gen.Seed = 11
	cfg.Seed = 11
	cfg.IOMMU.BufferEntries = 16
	cfg.IOMMU.Walkers = 2
	return cfg
}

// runRecorded simulates cfg with the walk-schedule recorder on and
// returns the run result plus the full dispatch log. A nil sched runs
// the production scheduler core.New builds for cfg.
func runRecorded(t *testing.T, cfg gpuwalk.Config, tr *gpuwalk.Trace, sched core.Scheduler) (gpuwalk.Result, []iommu.WalkRecord) {
	t.Helper()
	cfg.IOMMU.RecordSchedule = true
	cfg.IOMMU.RecordLimit = 1 << 20
	sys, err := gpu.NewSystem(gpu.Params{
		GPU:       cfg.GPU,
		DRAM:      cfg.DRAM,
		IOMMU:     cfg.IOMMU,
		SchedKind: cfg.Scheduler,
		SchedOpts: cfg.SchedOpts,
		Scheduler: sched,
		Seed:      cfg.Seed,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, sys.IOMMU().ScheduleLog()
}

// diffSystem runs cfg once on the production scheduler and once on the
// linear reference (NewReference) and requires byte-identical walk
// schedules and cycle counts.
func diffSystem(t *testing.T, label string, cfg gpuwalk.Config) {
	t.Helper()
	tr, err := gpuwalk.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRes, refLog := runRecorded(t, cfg, tr, core.NewReference(cfg.Scheduler, cfg.SchedOpts))
	ixRes, ixLog := runRecorded(t, cfg, tr, nil)
	if len(refLog) == 0 {
		t.Fatalf("%s: empty schedule log", label)
	}
	if len(refLog) != len(ixLog) {
		t.Errorf("%s: schedule length %d vs reference %d", label, len(ixLog), len(refLog))
	} else {
		for i := range refLog {
			if refLog[i] != ixLog[i] {
				t.Errorf("%s: schedules diverge at walk %d: indexed %+v, reference %+v",
					label, i, ixLog[i], refLog[i])
				break
			}
		}
	}
	if refRes.Cycles != ixRes.Cycles || refRes.StallCycles != ixRes.StallCycles {
		t.Errorf("%s: cycles %d/%d vs reference %d/%d",
			label, ixRes.Cycles, ixRes.StallCycles, refRes.Cycles, refRes.StallCycles)
	}
}

// TestSystemDifferentialIndexedVsReference runs full simulations of
// several workloads under every built-in policy, once with the indexed
// production scheduler and once with its linear reference, and asserts
// the walk dispatch schedules are byte-identical.
func TestSystemDifferentialIndexedVsReference(t *testing.T) {
	for _, wl := range []string{"MVT", "ATX", "GEV"} {
		for _, sk := range gpuwalk.SchedulerKinds() {
			cfg := microConfig(wl, sk)
			cfg.SchedOpts.Seed = 7
			cfg.SchedOpts.AgingThreshold = 32
			diffSystem(t, wl+"/"+string(sk), cfg)
		}
	}
}

// TestSystemDifferentialMergeOverflow repeats the differential check
// with same-VPN merging on and an even smaller buffer, the regime of
// the overflow-merge fix.
func TestSystemDifferentialMergeOverflow(t *testing.T) {
	for _, sk := range []gpuwalk.SchedulerKind{gpuwalk.FCFS, gpuwalk.SIMTAware, gpuwalk.CUFair} {
		cfg := microConfig("SSP", sk)
		cfg.SchedOpts.AgingThreshold = 8
		cfg.IOMMU.BufferEntries = 8
		cfg.IOMMU.MergeSameVPN = true
		diffSystem(t, "SSP/"+string(sk), cfg)
	}
}

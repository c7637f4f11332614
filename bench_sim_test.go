package gpuwalk_test

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"gpuwalk"
	"gpuwalk/internal/gpu"
)

// simBenchConfig is the engine-benchmark workload shape: large enough
// that event-queue costs dominate setup, small enough to run in CI.
func simBenchConfig(wl string) gpuwalk.Config {
	cfg := gpuwalk.DefaultConfig()
	cfg.Workload = wl
	cfg.Scheduler = gpuwalk.SIMTAware
	cfg.Gen.Scale = 0.05
	cfg.Gen.WavefrontsPerCU = 4
	cfg.Gen.InstrsPerWavefront = 16
	cfg.Seed = 7
	return cfg
}

// runEngineBench simulates cfg on the chosen event queue and returns
// the run result, events dispatched, and wall time.
func runEngineBench(t *testing.T, cfg gpuwalk.Config, referenceEngine bool) (gpuwalk.Result, uint64, time.Duration) {
	t.Helper()
	tr, err := gpuwalk.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gpu.NewSystem(gpu.Params{
		GPU:             cfg.GPU,
		DRAM:            cfg.DRAM,
		IOMMU:           cfg.IOMMU,
		SchedKind:       cfg.Scheduler,
		SchedOpts:       cfg.SchedOpts,
		Seed:            cfg.Seed,
		ReferenceEngine: referenceEngine,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, sys.Engine().Dispatched(), time.Since(start)
}

// TestBenchSimEngine measures the event engine's throughput — events
// per second through a full system simulation — on the four paper
// workloads, once on the retained container/heap reference queue and
// once on the flat four-ary heap, and logs the result; with
// BENCH_SIM_OUT set it also writes it there, in the shape of
// BENCH_sim.json, the repo's perf-trajectory file for the engine.
// It doubles as a differential check: both queues must dispatch the
// same number of events and finish at the same cycle.
func TestBenchSimEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("timing benchmark; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing benchmark; skipped under -race")
	}
	type wlResult struct {
		Workload     string  `json:"workload"`
		Events       uint64  `json:"events"`
		RefNsPerEv   float64 `json:"ref_ns_per_event"`
		FlatNsPerEv  float64 `json:"flat_ns_per_event"`
		RefEvPerSec  float64 `json:"ref_events_per_sec"`
		FlatEvPerSec float64 `json:"flat_events_per_sec"`
		Speedup      float64 `json:"speedup"`
	}
	var (
		rows     []wlResult
		worst    = 1e9
		sumRef   time.Duration
		sumFlat  time.Duration
		totalEvs uint64
	)
	for _, wl := range []string{"MVT", "ATX", "GEV", "SSP"} {
		cfg := simBenchConfig(wl)
		// One throwaway run per queue warms the page cache and JIT-ish
		// effects out of the measurement; best-of-3 damps scheduler noise.
		refRes, refEvs, _ := runEngineBench(t, cfg, true)
		flatRes, flatEvs, _ := runEngineBench(t, cfg, false)
		if refEvs != flatEvs || refRes.Cycles != flatRes.Cycles {
			t.Fatalf("%s: queues diverged: %d events/%d cycles vs reference %d/%d",
				wl, flatEvs, flatRes.Cycles, refEvs, refRes.Cycles)
		}
		refBest, flatBest := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < 3; i++ {
			if _, _, d := runEngineBench(t, cfg, true); d < refBest {
				refBest = d
			}
			if _, _, d := runEngineBench(t, cfg, false); d < flatBest {
				flatBest = d
			}
		}
		row := wlResult{
			Workload:     wl,
			Events:       flatEvs,
			RefNsPerEv:   round3(float64(refBest.Nanoseconds()) / float64(refEvs)),
			FlatNsPerEv:  round3(float64(flatBest.Nanoseconds()) / float64(flatEvs)),
			RefEvPerSec:  round3(float64(refEvs) / refBest.Seconds()),
			FlatEvPerSec: round3(float64(flatEvs) / flatBest.Seconds()),
			Speedup:      round3(refBest.Seconds() / flatBest.Seconds()),
		}
		rows = append(rows, row)
		if row.Speedup < worst {
			worst = row.Speedup
		}
		sumRef += refBest
		sumFlat += flatBest
		totalEvs += flatEvs
		t.Logf("%s: %d events, ref %.1f ns/ev, flat %.1f ns/ev, speedup %.2fx",
			wl, row.Events, row.RefNsPerEv, row.FlatNsPerEv, row.Speedup)
	}
	overall := sumRef.Seconds() / sumFlat.Seconds()
	t.Logf("overall speedup %.2fx (worst workload %.2fx)", overall, worst)

	out, err := json.MarshalIndent(map[string]any{
		"benchmark":       "event engine: flat four-ary heap vs container/heap reference",
		"model_version":   gpuwalk.SimVersion,
		"workloads":       rows,
		"events_total":    totalEvs,
		"ref_seconds":     round3(sumRef.Seconds()),
		"flat_seconds":    round3(sumFlat.Seconds()),
		"ns_per_event":    round3(float64(sumFlat.Nanoseconds()) / float64(totalEvs)),
		"overall_speedup": round3(overall),
		"worst_speedup":   round3(worst),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// The measurement is written only when BENCH_SIM_OUT names a file,
	// so CI can diff a fresh one against the committed BENCH_sim.json
	// with cmd/benchdiff; a plain `go test` leaves the tree untouched.
	outPath := os.Getenv("BENCH_SIM_OUT")
	if outPath == "" {
		t.Logf("%s", out)
		return
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

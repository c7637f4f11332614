package gpuwalk_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"gpuwalk"
)

// fig13MiniGrid is a scaled-down Figure 13 sweep: the paper's L2 TLB
// and walker-count sensitivity axes on two irregular workloads under
// both schedulers, small enough to simulate in seconds.
func fig13MiniGrid() []gpuwalk.Config {
	var grid []gpuwalk.Config
	for _, wl := range []string{"MVT", "ATX"} {
		for _, sched := range []gpuwalk.SchedulerKind{gpuwalk.FCFS, gpuwalk.SIMTAware} {
			// Sweep values deliberately avoid the defaults (512-entry
			// L2 TLB, 8 walkers): a point equal to the baseline would
			// content-address to the same key as another axis's point
			// and turn into a cache hit mid-cold-sweep.
			for _, l2 := range []int{256, 1024} {
				cfg := benchBaseConfig(wl, sched)
				cfg.GPU.L2TLBEntries = l2
				grid = append(grid, cfg)
			}
			for _, walkers := range []int{4, 16} {
				cfg := benchBaseConfig(wl, sched)
				cfg.IOMMU.Walkers = walkers
				grid = append(grid, cfg)
			}
		}
	}
	return grid
}

func benchBaseConfig(wl string, sched gpuwalk.SchedulerKind) gpuwalk.Config {
	cfg := gpuwalk.DefaultConfig()
	cfg.Workload = wl
	cfg.Scheduler = sched
	cfg.Gen.Scale = 0.02
	cfg.Gen.WavefrontsPerCU = 2
	cfg.Gen.InstrsPerWavefront = 8
	cfg.Seed = 7
	return cfg
}

// sweep runs every grid point through the cache and returns the wall
// time and how many points were served from disk.
func sweep(t testing.TB, ctx context.Context, dir string, grid []gpuwalk.Config) (time.Duration, int) {
	cache, err := gpuwalk.OpenResultCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	hits := 0
	start := time.Now()
	for _, cfg := range grid {
		_, hit, err := gpuwalk.RunCached(ctx, cache, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			hits++
		}
	}
	return time.Since(start), hits
}

// TestBenchCacheColdWarm measures the result cache's payoff — the wall
// time of a mini Figure 13 sweep cold (every point simulated) versus
// warm (every point served from disk) — and logs it; with
// BENCH_CACHE_OUT set it also writes it there, in the shape of
// BENCH_cache.json, the repo's perf-trajectory file for the cache.
func TestBenchCacheColdWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("timing benchmark; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing benchmark; skipped under -race")
	}
	dir := t.TempDir()
	ctx := context.Background()
	grid := fig13MiniGrid()

	cold, hits := sweep(t, ctx, dir, grid)
	if hits != 0 {
		t.Fatalf("cold sweep had %d cache hits, want 0", hits)
	}
	warm, hits := sweep(t, ctx, dir, grid)
	if hits != len(grid) {
		t.Fatalf("warm sweep had %d cache hits, want %d", hits, len(grid))
	}
	speedup := cold.Seconds() / warm.Seconds()
	t.Logf("cold %.3fs, warm %.3fs, speedup %.0fx over %d runs", cold.Seconds(), warm.Seconds(), speedup, len(grid))
	if speedup < 2 {
		t.Errorf("warm sweep only %.1fx faster than cold; the cache is not paying for itself", speedup)
	}

	out, err := json.MarshalIndent(map[string]any{
		"benchmark":     "fig13-mini cold vs warm sweep",
		"model_version": gpuwalk.SimVersion,
		"runs":          len(grid),
		"cold_seconds":  round3(cold.Seconds()),
		"warm_seconds":  round3(warm.Seconds()),
		"speedup":       round3(speedup),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// The measurement is written only when BENCH_CACHE_OUT names a file,
	// so CI can diff a fresh one against the committed BENCH_cache.json
	// with cmd/benchdiff; a plain `go test` leaves the tree untouched.
	outPath := os.Getenv("BENCH_CACHE_OUT")
	if outPath == "" {
		t.Logf("%s", out)
		return
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

// BenchmarkRunCachedWarm measures the per-run cost of a cache hit:
// hashing the config, reading the object, digest-checking it, and
// decoding the result.
func BenchmarkRunCachedWarm(b *testing.B) {
	cache, err := gpuwalk.OpenResultCache(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	cfg := benchBaseConfig("MVT", gpuwalk.FCFS)
	ctx := context.Background()
	if _, _, err := gpuwalk.RunCached(ctx, cache, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, err := gpuwalk.RunCached(ctx, cache, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !hit {
			b.Fatal("expected a cache hit")
		}
	}
}

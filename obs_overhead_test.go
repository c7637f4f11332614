package gpuwalk_test

import (
	"context"
	"os"
	"testing"

	"gpuwalk/internal/core"
	"gpuwalk/internal/obs"
)

// benchTracer is nil in every real run. It is initialized through an
// environment lookup so the compiler cannot prove it nil and fold the
// hook guards away — the benchmark must measure the same load+branch
// the IOMMU pays per operation when tracing is disabled.
var benchTracer = func() *obs.Tracer {
	if os.Getenv("GPUWALK_BENCH_TRACER") != "" {
		return obs.NewTracer()
	}
	return nil
}()

// admitPickLoop mirrors the IOMMU scheduling hot path — Admit then
// Pick once the lookahead window fills — optionally with the
// nil-tracer guards that instrumented builds place at the admit and
// dispatch sites.
func admitPickLoop(b *testing.B, hooked bool) {
	sched, err := core.New(core.KindSIMTAware, core.Options{AgingThreshold: 64})
	if err != nil {
		b.Fatal(err)
	}
	var trk obs.Track
	reqs := make([]core.Request, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &reqs[i%len(reqs)]
		*r = core.Request{
			VPN:   uint64(i * 7 % 509),
			Instr: core.InstrID(i % 13),
			CU:    i % 8,
			Seq:   uint64(i),
			Est:   1 + i%4,
		}
		sched.Admit(r)
		if hooked {
			if tr := benchTracer; tr != nil {
				tr.Instant(trk, "iommu", "admit", obs.U64("seq", r.Seq))
			}
		}
		if sched.PendingLen() >= 64 {
			p := sched.Pick()
			if hooked {
				if tr := benchTracer; tr != nil {
					tr.Instant(trk, "iommu", "dispatch", obs.U64("seq", p.Seq))
				}
			}
		}
	}
}

func BenchmarkSchedAdmitPick(b *testing.B)          { admitPickLoop(b, false) }
func BenchmarkSchedAdmitPickNilTracer(b *testing.B) { admitPickLoop(b, true) }

// TestObsDisabledOverhead guards the nil-tracer contract: with tracing
// disabled the instrumented admit+pick path must stay within 2% of the
// hook-free path. Min-of-rounds filters scheduler jitter.
func TestObsDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing-sensitive; skipped under -race")
	}
	const rounds = 5
	measure := func(hooked bool) float64 {
		res := testing.Benchmark(func(b *testing.B) { admitPickLoop(b, hooked) })
		return float64(res.NsPerOp())
	}
	// Measure in adjacent base/hooked pairs and keep the best ratio:
	// machine-load swings (other test packages running in parallel)
	// hit both halves of a pair alike, and one quiet round is enough
	// for a clean reading — real per-op overhead would taint them all.
	var base, hooked, ratio float64
	for i := 0; i < rounds; i++ {
		b := measure(false)
		h := measure(true)
		if r := h / b; ratio == 0 || r < ratio {
			base, hooked, ratio = b, h, r
		}
	}
	t.Logf("base %.1f ns/op, nil-tracer %.1f ns/op, ratio %.4f", base, hooked, ratio)
	if ratio > 1.02 {
		t.Errorf("disabled-tracer overhead %.2f%% exceeds 2%% budget", (ratio-1)*100)
	}
}

// TestSpanHooksDisabledZeroAlloc extends the disabled-overhead contract
// to the request-tracing layer: the span hooks RunCached and the cache
// thread through every call (SpanRefFrom + Start + End, and the
// zero-ref ContextWithSpanRef) must allocate nothing when no trace is
// attached — the common case for every library caller.
func TestSpanHooksDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		c := obs.ContextWithSpanRef(ctx, obs.SpanRef{}) // zero ref: ctx unchanged
		ref := obs.SpanRefFrom(c)
		sp := ref.Start("cache.lookup")
		sp.End(obs.U64("hit", 0))
		ref.Start("sim.run").End()
	})
	if allocs != 0 {
		t.Errorf("disabled span hooks allocate %.1f/op, want 0", allocs)
	}
}

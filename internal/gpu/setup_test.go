package gpu

import (
	"testing"

	"gpuwalk/internal/workload"
)

// newSystemAllocsXSB reports the heap allocations one NewSystem makes
// for the Table I machine on an XSB trace of 2 wavefronts × 2
// instructions per CU (the sim-irregular benchmark's trace size).
func newSystemAllocsXSB(t testing.TB, mutate func(*Params)) float64 {
	t.Helper()
	g, err := workload.ByName("XSB")
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	if mutate != nil {
		mutate(&p)
	}
	tr := g.Generate(workload.GenConfig{
		CUs: p.GPU.CUs, WavefrontWidth: p.GPU.WavefrontWidth,
		WavefrontsPerCU: 2, InstrsPerWavefront: 2, Seed: 1,
	})
	return testing.AllocsPerRun(5, func() {
		if _, err := NewSystem(p, tr); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNewSystemAllocs pins set-up cost: building the machine must not
// allocate per cache set, per TLB/PWC set or per premapped page.
// Doubling the L2 (twice the sets) must not raise the count.
func TestNewSystemAllocs(t *testing.T) {
	const limit = 400
	base := newSystemAllocsXSB(t, nil)
	t.Logf("NewSystem allocations (XSB 2x2): %.0f", base)
	if base > limit {
		t.Errorf("NewSystem made %.0f allocations, want at most %d", base, limit)
	}
	big := newSystemAllocsXSB(t, func(p *Params) { p.GPU.L2Cache.SizeBytes *= 2 })
	if big > base {
		t.Errorf("doubling the L2 raised NewSystem allocations from %.0f to %.0f", base, big)
	}
}

// BenchmarkNewSystem times building the Table I machine for a
// default-size XSB trace (6 wavefronts × 24 instructions per CU), so
// premapping its ~70k lanes is part of the cost.
func BenchmarkNewSystem(b *testing.B) {
	g, err := workload.ByName("XSB")
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	tr := g.Generate(workload.GenConfig{CUs: p.GPU.CUs, WavefrontWidth: p.GPU.WavefrontWidth, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(p, tr)
		if err != nil {
			b.Fatal(err)
		}
		benchSystem = sys
	}
}

// benchSystem keeps BenchmarkNewSystem's result live.
var benchSystem *System

package main

import (
	"math"
	"strings"
	"testing"

	"gpuwalk"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
}

func TestParsePprofTop(t *testing.T) {
	const top = `File: perfbench
Type: cpu
Showing nodes accounting for 900000000ns, 100% of 900000000ns total
      flat  flat%   sum%        cum   cum%
 400000000ns 44.44% 44.44%  500000000ns 55.56%  gpuwalk/internal/dram.(*channel).tick
 200000000ns 22.22% 66.67%  200000000ns 22.22%  runtime.mallocgc
 100000000ns 11.11% 77.78%  100000000ns 11.11%  internal/runtime/maps.(*Map).getWithKeySmall
 100000000ns 11.11% 88.89%  100000000ns 11.11%  gpuwalk/internal/sim.(*Engine).pop
 100000000ns 11.11%   100%  100000000ns 11.11%  net/http.(*conn).serve
`
	byPkg, err := parsePprofTop(strings.NewReader(top))
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]metric{}
	addPackageCPU(m, byPkg, 1000)
	for name, want := range map[string]float64{
		"dram.self_ns_per_instr":    400000,
		"runtime.self_ns_per_instr": 300000,
		"sim.self_ns_per_instr":     100000,
		"iommu.self_ns_per_instr":   0,
	} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, err := parsePprofTop(strings.NewReader("no table here\n")); err == nil {
		t.Error("output without a table parsed")
	}
}

func TestStageMeanFromScrapes(t *testing.T) {
	before, err := parseScrape(strings.NewReader(`# TYPE jobd_stage_seconds histogram
jobd_stage_seconds_sum{stage="journal"} 0.5
jobd_stage_seconds_count{stage="journal"} 10
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(strings.NewReader(`# TYPE jobd_stage_seconds histogram
jobd_stage_seconds_sum{stage="journal"} 0.7
jobd_stage_seconds_count{stage="journal"} 30
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := stageMeanMs(before, after, "journal"); math.Abs(got-10) > 1e-9 {
		t.Errorf("journal mean = %v ms, want 10", got)
	}
	if got := stageMeanMs(before, after, "sim"); got != 0 {
		t.Errorf("absent stage mean = %v, want 0", got)
	}
}

// TestSimOpMatchesRun pins the benchmark's three-call op (Generate,
// NewSystem, Run) to the public gpuwalk.Run the digests are recorded
// from.
func TestSimOpMatchesRun(t *testing.T) {
	w := simWorkload{wavefronts: 1, instrs: 2}
	c := simConfig{Workload: "MVT", Sched: gpuwalk.SIMTAware, Walkers: 16}
	s, err := simOp(w.config(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpuwalk.Run(w.config(c))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := resultDigest(s.res)
	want, _ := resultDigest(res)
	if got != want {
		t.Fatalf("op digest %s, gpuwalk.Run digest %s", got, want)
	}
}

// TestSpecIsAcceptedByReference checks the service spec decodes the
// way gpuwalkd's runner decodes it, unknown fields rejected.
func TestSpecIsAcceptedByReference(t *testing.T) {
	if _, err := reference([]byte(`{"Workload":"MVT","Gen":{"Scale":0.02,"WavefrontsPerCU":1,"InstrsPerWavefront":2,"Seed":3}}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := reference([]byte(`{"Workload":"MVT","Bogus":1}`)); err == nil {
		t.Fatal("unknown spec field accepted")
	}
}

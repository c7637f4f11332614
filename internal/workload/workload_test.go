package workload

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"gpuwalk/internal/xrand"
)

// smallGen keeps generator tests fast.
func smallGen(seed uint64) GenConfig {
	return GenConfig{
		CUs:                4,
		WavefrontsPerCU:    2,
		WavefrontWidth:     32,
		InstrsPerWavefront: 8,
		Scale:              0.05,
		Seed:               seed,
	}
}

func TestRegistryComplete(t *testing.T) {
	gens := Registry()
	if len(gens) != 12 {
		t.Fatalf("registry has %d benchmarks, want 12", len(gens))
	}
	irregular := 0
	for _, g := range gens {
		if g.Name == "" || g.Abbrev == "" || g.Description == "" {
			t.Errorf("benchmark %q missing metadata", g.Abbrev)
		}
		if g.BaseFootprint == 0 {
			t.Errorf("benchmark %q has zero footprint", g.Abbrev)
		}
		if g.Irregular {
			irregular++
		}
	}
	if irregular != 6 {
		t.Errorf("irregular count = %d, want 6", irregular)
	}
	if len(IrregularNames()) != 6 {
		t.Errorf("IrregularNames = %v", IrregularNames())
	}
}

func TestByName(t *testing.T) {
	g, err := ByName("MVT")
	if err != nil || g.Abbrev != "MVT" {
		t.Fatalf("ByName(MVT) = %v, %v", g, err)
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("unknown name did not error")
	}
}

func TestAllGenerateValidTraces(t *testing.T) {
	cfg := smallGen(1)
	for _, g := range Registry() {
		tr := g.Generate(cfg)
		if err := tr.Validate(cfg.CUs); err != nil {
			t.Errorf("%s: %v", g.Abbrev, err)
		}
		if tr.Name != g.Abbrev {
			t.Errorf("%s: trace name %q", g.Abbrev, tr.Name)
		}
		want := cfg.CUs * cfg.WavefrontsPerCU
		if len(tr.Wavefronts) != want {
			t.Errorf("%s: %d wavefronts, want %d", g.Abbrev, len(tr.Wavefronts), want)
		}
		if tr.Instructions() != want*cfg.InstrsPerWavefront {
			t.Errorf("%s: %d instructions", g.Abbrev, tr.Instructions())
		}
		if len(tr.TouchedPages(12)) == 0 {
			t.Errorf("%s: touches no pages", g.Abbrev)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	for _, g := range Registry() {
		a := g.Generate(smallGen(42))
		b := g.Generate(smallGen(42))
		if len(a.Wavefronts) != len(b.Wavefronts) {
			t.Fatalf("%s: wavefront counts differ", g.Abbrev)
		}
		for wi := range a.Wavefronts {
			ia, ib := a.Wavefronts[wi].Instrs, b.Wavefronts[wi].Instrs
			for ii := range ia {
				for li := range ia[ii].Lanes {
					if ia[ii].Lanes[li] != ib[ii].Lanes[li] {
						t.Fatalf("%s: lane address differs at wf %d instr %d lane %d",
							g.Abbrev, wi, ii, li)
					}
				}
			}
		}
	}
}

func TestSeedsChangeAddresses(t *testing.T) {
	g, _ := ByName("XSB")
	a := g.Generate(smallGen(1))
	b := g.Generate(smallGen(2))
	same := 0
	total := 0
	for wi := range a.Wavefronts {
		for ii := range a.Wavefronts[wi].Instrs {
			for li := range a.Wavefronts[wi].Instrs[ii].Lanes {
				total++
				if a.Wavefronts[wi].Instrs[ii].Lanes[li] == b.Wavefronts[wi].Instrs[ii].Lanes[li] {
					same++
				}
			}
		}
	}
	if same*2 > total {
		t.Errorf("different seeds share %d/%d addresses", same, total)
	}
}

// divergence returns the mean number of distinct pages per instruction
// across a trace.
func divergence(tr *Trace) float64 {
	totalPages, instrs := 0, 0
	for wi := range tr.Wavefronts {
		for ii := range tr.Wavefronts[wi].Instrs {
			seen := map[uint64]struct{}{}
			for _, va := range tr.Wavefronts[wi].Instrs[ii].Lanes {
				seen[va>>12] = struct{}{}
			}
			totalPages += len(seen)
			instrs++
		}
	}
	return float64(totalPages) / float64(instrs)
}

func TestIrregularTracesDiverge(t *testing.T) {
	cfg := smallGen(1)
	for _, g := range Registry() {
		d := divergence(g.Generate(cfg))
		if g.Irregular && d < 4 {
			t.Errorf("%s: mean pages/instr = %.1f, too coalesced for an irregular app", g.Abbrev, d)
		}
		if !g.Irregular && d > 4 {
			t.Errorf("%s: mean pages/instr = %.1f, too divergent for a regular app", g.Abbrev, d)
		}
	}
}

func TestFootprintScales(t *testing.T) {
	g, _ := ByName("MVT")
	small := g.Generate(GenConfig{Scale: 0.05, Seed: 1})
	big := g.Generate(GenConfig{Scale: 0.5, Seed: 1})
	if big.Footprint <= small.Footprint {
		t.Error("footprint did not scale")
	}
	if pgSmall, pgBig := len(small.TouchedPages(12)), len(big.TouchedPages(12)); pgBig <= pgSmall {
		t.Errorf("touched pages did not grow with scale: %d -> %d", pgSmall, pgBig)
	}
}

func TestWithDefaults(t *testing.T) {
	c := GenConfig{}.WithDefaults()
	if c.CUs == 0 || c.WavefrontsPerCU == 0 || c.WavefrontWidth == 0 ||
		c.InstrsPerWavefront == 0 || c.Scale == 0 {
		t.Errorf("defaults left zero fields: %+v", c)
	}
	// Explicit values survive.
	c2 := GenConfig{CUs: 3, Scale: 0.7}.WithDefaults()
	if c2.CUs != 3 || c2.Scale != 0.7 {
		t.Error("WithDefaults overwrote explicit fields")
	}
}

func TestTraceValidateErrors(t *testing.T) {
	empty := &Trace{Name: "x"}
	if err := empty.Validate(4); err == nil {
		t.Error("empty trace validated")
	}
	noLanes := &Trace{Name: "x", Wavefronts: []WavefrontTrace{
		{CU: 0, Instrs: []MemInstr{{}}},
	}}
	if err := noLanes.Validate(4); err == nil {
		t.Error("instruction with no lanes validated")
	}
	badCU := &Trace{Name: "x", Wavefronts: []WavefrontTrace{
		{CU: 4, Instrs: []MemInstr{{Lanes: []uint64{1}}}},
	}}
	if err := badCU.Validate(4); err == nil {
		t.Error("out-of-range CU validated")
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	var b builder
	b.cfg = smallGen(1)
	r1 := b.region(1 << 20)
	r2 := b.region(1 << 20)
	if r2 < r1+(1<<20) {
		t.Errorf("regions overlap: %#x and %#x", r1, r2)
	}
	if r1%(2<<20) != 0 || r2%(2<<20) != 0 {
		t.Error("regions not 2MB aligned")
	}
}

func TestQuickSpreadRowBounds(t *testing.T) {
	f := func(gid uint16, avail, full uint32) bool {
		a, fl := uint64(avail%10000)+65, uint64(full%1000000)+200
		if fl < a {
			a, fl = fl, a
		}
		row := spreadRow(int(gid), 64, a, fl)
		return row >= 0 && uint64(row)+64 <= fl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDriftGatherStaysInRegion(t *testing.T) {
	cfg := smallGen(9)
	g, _ := ByName("XSB")
	tr := g.Generate(cfg)
	// All XSB addresses must be below the VA bump allocator's ceiling,
	// i.e. finite and nonzero.
	for wi := range tr.Wavefronts {
		for ii := range tr.Wavefronts[wi].Instrs {
			for _, va := range tr.Wavefronts[wi].Instrs[ii].Lanes {
				if va < 1<<32 {
					t.Fatalf("address %#x below the VA base", va)
				}
			}
		}
	}
}

func TestMerge(t *testing.T) {
	cfg := smallGen(1)
	a, _ := ByName("MVT")
	b, _ := ByName("KMN")
	ta, tb := a.Generate(cfg), b.Generate(cfg)
	m := Merge("pair", ta, tb)
	if m.AppCount() != 2 {
		t.Fatalf("AppCount = %d", m.AppCount())
	}
	if err := m.Validate(cfg.CUs); err != nil {
		t.Fatal(err)
	}
	if len(m.Wavefronts) != len(ta.Wavefronts)+len(tb.Wavefronts) {
		t.Errorf("merged wavefronts = %d", len(m.Wavefronts))
	}
	if m.Footprint != ta.Footprint+tb.Footprint {
		t.Errorf("merged footprint = %d", m.Footprint)
	}
	// App 1's addresses live in a disjoint 1TB region.
	for _, w := range m.Wavefronts {
		for _, in := range w.Instrs {
			for _, va := range in.Lanes {
				inHigh := va >= 1<<40
				if (w.App == 1) != inHigh {
					t.Fatalf("app %d address %#x in wrong region", w.App, va)
				}
			}
		}
	}
	// Single-app traces report AppCount 1.
	if ta.AppCount() != 1 {
		t.Errorf("single trace AppCount = %d", ta.AppCount())
	}
}

func TestMergeRejectsBadAppTag(t *testing.T) {
	tr := &Trace{Name: "x", Wavefronts: []WavefrontTrace{
		{CU: 0, App: 3, Instrs: []MemInstr{{Lanes: []uint64{1}}}},
	}}
	if err := tr.Validate(4); err == nil {
		t.Error("out-of-range app tag validated")
	}
}

func TestAnalyze(t *testing.T) {
	tr := &Trace{Name: "a", Wavefronts: []WavefrontTrace{{
		CU: 0,
		Instrs: []MemInstr{
			{Lanes: []uint64{0x1000, 0x2000, 0x3000}}, // 3 pages, first touch
			{Lanes: []uint64{0x1000, 0x1040}},         // 1 page, reused
			{Lanes: []uint64{0x4000}, Write: true},    // 1 new page
		},
	}}}
	a := Analyze(tr, 12)
	if a.Instructions != 3 || a.Wavefronts != 1 {
		t.Fatalf("counts = %d/%d", a.Instructions, a.Wavefronts)
	}
	if a.TouchedPages != 4 {
		t.Errorf("TouchedPages = %d, want 4", a.TouchedPages)
	}
	if a.MaxPagesPerInstr != 3 {
		t.Errorf("MaxPagesPerInstr = %d", a.MaxPagesPerInstr)
	}
	// 5 page refs, 1 reuse (0x1000 again).
	if a.PageReuse < 0.19 || a.PageReuse > 0.21 {
		t.Errorf("PageReuse = %f, want 0.2", a.PageReuse)
	}
	if a.WriteFraction < 0.33 || a.WriteFraction > 0.34 {
		t.Errorf("WriteFraction = %f", a.WriteFraction)
	}
	if a.MeanLinesPerInstr < 1.3 || a.MeanLinesPerInstr > 2.1 {
		t.Errorf("MeanLinesPerInstr = %f", a.MeanLinesPerInstr)
	}
}

func TestAnalyzeGenerators(t *testing.T) {
	cfg := smallGen(4)
	for _, g := range Registry() {
		a := Analyze(g.Generate(cfg), 12)
		if g.Irregular {
			// Irregular traces must show both divergence and some reuse
			// (except pure gathers, which may not reuse).
			if a.MaxPagesPerInstr < int(uint(cfg.WavefrontWidth))/2 {
				t.Errorf("%s: max pages/instr = %d, expected near-width divergence",
					g.Abbrev, a.MaxPagesPerInstr)
			}
		} else if a.PageReuse < 0.3 {
			t.Errorf("%s: regular app shows little reuse (%.2f)", g.Abbrev, a.PageReuse)
		}
	}
}

func TestAnalysisPrint(t *testing.T) {
	var buf bytes.Buffer
	g, _ := ByName("GEV")
	Analyze(g.Generate(smallGen(1)), 12).Print(&buf)
	for _, want := range []string{"instructions", "pages/instr", "divergence histogram"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("analysis print missing %q", want)
		}
	}
}

// TestTouchedPagesSortedDistinct checks TouchedPages against a map of
// every lane's page, on a trace with many more pages than the seen-page
// filter has slots, so filter collisions append repeats that the
// result must not contain.
func TestTouchedPagesSortedDistinct(t *testing.T) {
	rng := xrand.New(3)
	tr := &Trace{Name: "pages"}
	want := map[uint64]bool{}
	for wi := 0; wi < 8; wi++ {
		var w WavefrontTrace
		for ii := 0; ii < 200; ii++ {
			lanes := make([]uint64, 16)
			for l := range lanes {
				lanes[l] = (1 + rng.Uint64n(20000)) << 12
				want[lanes[l]>>12] = true
			}
			w.Instrs = append(w.Instrs, MemInstr{Lanes: lanes})
		}
		tr.Wavefronts = append(tr.Wavefronts, w)
	}
	// Page 0, touched first, must count although a zero filter slot
	// means empty.
	tr.Wavefronts[0].Instrs = append([]MemInstr{{Lanes: []uint64{0}}}, tr.Wavefronts[0].Instrs...)
	want[0] = true
	got := tr.TouchedPages(12)
	if len(got) != len(want) {
		t.Fatalf("%d pages, want %d distinct", len(got), len(want))
	}
	for i, vpn := range got {
		if !want[vpn] || (i > 0 && got[i-1] >= vpn) {
			t.Fatalf("page %d = %d: not a touched page in ascending order", i, vpn)
		}
	}
}

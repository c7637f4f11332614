package core

import (
	"testing"

	"gpuwalk/internal/xrand"
)

// diffOptions are the construction variants the differential suite
// exercises: frequent aging, effectively-disabled aging.
func diffOptions() []Options {
	return []Options{
		{Seed: 11, AgingThreshold: 4},
		{Seed: 11, AgingThreshold: 1 << 30},
	}
}

// TestDifferentialIndexedVsReference feeds identical randomized
// arrival/select streams (FIFO admission, as the IOMMU guarantees) to
// the indexed and reference implementation of every built-in policy
// and asserts byte-identical dispatch orders.
func TestDifferentialIndexedVsReference(t *testing.T) {
	for _, kind := range Kinds() {
		for _, opt := range diffOptions() {
			for seed := uint64(1); seed <= 5; seed++ {
				testDifferentialStream(t, kind, opt, seed)
			}
		}
	}
}

func testDifferentialStream(t *testing.T, kind Kind, opt Options, seed uint64) {
	t.Helper()
	ref := NewReference(kind, opt)
	ix, err := New(kind, opt)
	if err != nil {
		t.Fatal(err)
	}

	rng := xrand.New(seed)
	seq := uint64(0)
	mk := func() (a, b *Request) {
		seq++
		// A sliding window of instruction IDs so groups overlap in the
		// buffer; a handful of CUs for the fairness policy. As in the
		// simulator, all requests of one instruction share its issuing
		// CU.
		instr := InstrID(seq / 6)
		r := Request{
			VPN:   rng.Uint64() % 64, // collisions on purpose
			Instr: instr,
			CU:    int(uint64(instr) * 0x9e3779b9 % 4),
			Seq:   seq,
			Est:   1 + int(rng.Uint64n(4)),
		}
		a, b = new(Request), new(Request)
		*a, *b = r, r
		return a, b
	}

	steps := 3000
	pendingN := 0
	for i := 0; i < steps; i++ {
		arrive := pendingN == 0 || rng.Uint64n(100) < 55
		if arrive {
			a, b := mk()
			ref.Admit(a)
			ix.Admit(b)
			pendingN++
			continue
		}
		got, want := ix.Pick(), ref.Pick()
		if got.Seq != want.Seq {
			t.Fatalf("%s opt=%+v seed=%d step %d: indexed picked seq %d, reference picked seq %d",
				kind, opt, seed, i, got.Seq, want.Seq)
		}
		pendingN--
	}
	// Drain completely: tail-end behaviour (groups emptying, CUs
	// leaving the round-robin) must match too.
	for pendingN > 0 {
		got, want := ix.Pick(), ref.Pick()
		if got.Seq != want.Seq {
			t.Fatalf("%s opt=%+v seed=%d drain: indexed picked seq %d, reference picked seq %d",
				kind, opt, seed, got.Seq, want.Seq)
		}
		pendingN--
	}
	if ix.PendingLen() != 0 {
		t.Fatalf("indexed still reports %d pending after drain", ix.PendingLen())
	}
}

// TestDifferentialStats verifies the indexed SIMT-aware scheduler
// reproduces the reference's decision statistics, not just its
// dispatch order.
func TestDifferentialStats(t *testing.T) {
	opt := Options{AgingThreshold: 8}
	ref := NewReference(KindSIMTAware, opt)
	ixSched, _ := New(KindSIMTAware, opt)
	ix := ixSched.(*IndexedSIMT)

	rng := xrand.New(99)
	seq := uint64(0)
	pendingN := 0
	for i := 0; i < 4000; i++ {
		if pendingN == 0 || rng.Uint64n(100) < 52 {
			seq++
			r := Request{Instr: InstrID(seq / 5), Seq: seq, Est: 1 + int(rng.Uint64n(4))}
			a, b := new(Request), new(Request)
			*a, *b = r, r
			ref.Admit(a)
			ix.Admit(b)
			pendingN++
		} else {
			ix.Pick()
			ref.Pick()
			pendingN--
		}
	}
	rs := ref.(*refDriver).s.(*SIMTAware)
	if rs.AgingPicks == 0 || rs.BatchHits == 0 || rs.SJFPicks == 0 {
		t.Fatalf("reference stream did not exercise all rules: %+v", rs)
	}
	if ix.BatchHits != rs.BatchHits || ix.SJFPicks != rs.SJFPicks ||
		ix.AgingPicks != rs.AgingPicks || ix.Rescores != rs.Rescores {
		t.Errorf("stats diverged: indexed batch/sjf/aging/rescore = %d/%d/%d/%d, reference = %d/%d/%d/%d",
			ix.BatchHits, ix.SJFPicks, ix.AgingPicks, ix.Rescores,
			rs.BatchHits, rs.SJFPicks, rs.AgingPicks, rs.Rescores)
	}
}

// TestLazyAgingFiresWithEager proves the lazy aging check (dispatch
// counter vs. admission stamp) force-selects the starved request on
// exactly the same pick as the reference's eager passed counters.
func TestLazyAgingFiresWithEager(t *testing.T) {
	const threshold = 3
	ref := NewReference(KindSIMTAware, Options{AgingThreshold: threshold})
	ixSched, _ := New(KindSIMTAware, Options{AgingThreshold: threshold})
	ix := ixSched.(*IndexedSIMT)
	rs := ref.(*refDriver).s.(*SIMTAware)

	// One heavy old request, then a stream of light strangers: every
	// pick passes the old request until aging rescues it.
	seq := uint64(0)
	admitBoth := func(instr InstrID, est int) {
		seq++
		r := Request{Instr: instr, Seq: seq, Est: est}
		a, b := new(Request), new(Request)
		*a, *b = r, r
		ref.Admit(a)
		ix.Admit(b)
	}
	admitBoth(1, 4)
	admitBoth(1, 4) // score 8: always loses SJF to the light arrivals

	for round := 0; round < 10; round++ {
		admitBoth(InstrID(100+round), 1)
		got, want := ix.Pick(), ref.Pick()
		if got.Seq != want.Seq {
			t.Fatalf("round %d: indexed picked seq %d, reference seq %d", round, got.Seq, want.Seq)
		}
		if ix.AgingPicks != rs.AgingPicks {
			t.Fatalf("round %d: aging fired on different picks (indexed %d, reference %d)",
				round, ix.AgingPicks, rs.AgingPicks)
		}
		if rs.AgingPicks > 0 {
			if want.Seq != 1 {
				t.Fatalf("aging rescued seq %d, want the starved head (seq 1)", want.Seq)
			}
			return
		}
	}
	t.Fatal("aging never fired despite threshold 3")
}

// TestCommitDecrementsSurvivorScore is the regression test for the
// stale-score bug: dispatching one of two same-instruction requests
// must drop the survivor's shared score by the chosen estimate, per
// the paper's "sum over pending requests" definition.
func TestCommitDecrementsSurvivorScore(t *testing.T) {
	s := &SIMTAware{SJF: true, Batching: true, AgingThreshold: 1 << 30}
	pending := mkreq(s, [2]int{1, 3}, [2]int{1, 2})
	if pending[0].Score != 5 || pending[1].Score != 5 {
		t.Fatalf("setup scores = %d,%d, want 5,5", pending[0].Score, pending[1].Score)
	}
	idx := s.Select(pending)
	chosen := pending[idx]
	survivor := pending[1-idx]
	if want := 5 - chosen.Est; survivor.Score != want {
		t.Errorf("survivor score = %d after dispatching Est=%d sibling, want %d",
			survivor.Score, chosen.Est, want)
	}
}

// TestCUFairCommitDecrementsSurvivorScore covers the same bug in the
// fairness extension.
func TestCUFairCommitDecrementsSurvivorScore(t *testing.T) {
	s := &CUFair{AgingThreshold: 1 << 30}
	pending := mkCUReq(s, [3]int{1, 0, 3}, [3]int{1, 0, 2})
	idx := s.Select(pending)
	chosen := pending[idx]
	survivor := pending[1-idx]
	if want := 5 - chosen.Est; survivor.Score != want {
		t.Errorf("survivor score = %d, want %d", survivor.Score, want)
	}
}

// TestIndexedDrainOrder drains a small SJF + batching scenario through
// the scheduler New returns.
func TestIndexedDrainOrder(t *testing.T) {
	s, err := New(KindSIMTAware, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*IndexedSIMT); !ok {
		t.Fatalf("New returned %T, want the indexed *IndexedSIMT", s)
	}
	for i, sp := range [][2]int{{1, 4}, {1, 4}, {2, 1}} {
		s.Admit(&Request{Instr: InstrID(sp[0]), Seq: uint64(i + 1), Est: sp[1]})
	}
	var order []InstrID
	for s.PendingLen() > 0 {
		order = append(order, s.Pick().Instr)
	}
	want := []InstrID{2, 1, 1} // SJF picks the light 2, batching sticks with 1
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order = %v, want %v", order, want)
		}
	}
}

// TestNewReferenceKinds checks the reference oracle covers every
// built-in kind under the same name as the production scheduler.
func TestNewReferenceKinds(t *testing.T) {
	for _, k := range Kinds() {
		s := NewReference(k, Options{Seed: 1})
		if _, ok := s.(*refDriver); !ok {
			t.Errorf("NewReference(%s) returned %T, want the linear driver", k, s)
		}
		if s.Name() != string(k) {
			t.Errorf("Name = %q, want %q", s.Name(), k)
		}
	}
}

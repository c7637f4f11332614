package tlb

import (
	"slices"
	"testing"

	"gpuwalk/internal/xrand"
)

// refTLB is the per-set reference model of the TLB: one slice of
// entries per set, the layout the flat store replaced, with the same
// replacement logic.
type refTLB struct {
	repl    Replacement
	sets    [][]entry
	setMask uint64
	clock   uint64
	rng     uint64
	stats   Stats
}

func newRefTLB(cfg Config) *refTLB {
	ways := cfg.Ways
	if ways == 0 {
		ways = cfg.Entries
	}
	nsets := cfg.Entries / ways
	r := &refTLB{repl: cfg.Repl, sets: make([][]entry, nsets), setMask: uint64(nsets - 1), rng: 0x9e3779b97f4a7c15}
	for i := range r.sets {
		r.sets[i] = make([]entry, ways)
	}
	return r
}

func (r *refTLB) lookup(vpn uint64) (uint64, bool) {
	s := r.sets[vpn&r.setMask]
	for i := range s {
		if s[i].valid && s[i].vpn == vpn {
			if r.repl == LRU {
				r.clock++
				s[i].used = r.clock
			}
			r.stats.Lookups.Hit()
			return s[i].pfn, true
		}
	}
	r.stats.Lookups.Miss()
	return 0, false
}

func (r *refTLB) probe(vpn uint64) bool {
	for _, e := range r.sets[vpn&r.setMask] {
		if e.valid && e.vpn == vpn {
			return true
		}
	}
	return false
}

func (r *refTLB) insert(vpn, pfn uint64) {
	s := r.sets[vpn&r.setMask]
	r.clock++
	for i := range s {
		if s[i].valid && s[i].vpn == vpn {
			s[i].pfn = pfn
			if r.repl == LRU {
				s[i].used = r.clock
			}
			return
		}
	}
	victim := -1
	for i := range s {
		if !s[i].valid {
			victim = i
			break
		}
	}
	if victim == -1 {
		switch r.repl {
		case RandomRepl:
			r.rng ^= r.rng << 13
			r.rng ^= r.rng >> 7
			r.rng ^= r.rng << 17
			victim = int(r.rng % uint64(len(s)))
		default:
			victim = 0
			for i := range s {
				if s[i].used < s[victim].used {
					victim = i
				}
			}
		}
		r.stats.Evictions++
	}
	s[victim] = entry{vpn: vpn, pfn: pfn, valid: true, used: r.clock}
	r.stats.Fills++
}

func (r *refTLB) invalidate(vpn uint64) bool {
	s := r.sets[vpn&r.setMask]
	for i := range s {
		if s[i].valid && s[i].vpn == vpn {
			s[i] = entry{}
			return true
		}
	}
	return false
}

// sameStore reports the first set whose entries differ between t's
// flat store and the reference, or -1.
func sameStore(t *TLB, r *refTLB) int {
	for s, set := range r.sets {
		for w, e := range set {
			if t.entries[s*t.ways+w] != e {
				return s
			}
		}
	}
	return -1
}

// TestFlatStoreMatchesReference drives the flat store and the per-set
// reference with the same random op stream under every replacement
// policy and compares results, stats and every entry after each op.
func TestFlatStoreMatchesReference(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 90; trial++ {
		ways := []int{0, 1, 2, 3, 4, 8}[rng.Intn(6)]
		nsets := 1 << rng.Intn(4)
		entries := nsets * ways
		if ways == 0 {
			entries = 1 + rng.Intn(12) // fully associative
			nsets = 1
		}
		cfg := Config{Name: "diff", Entries: entries, Ways: ways, Repl: Replacement(trial % 3)}
		tl, ref := New(cfg), newRefTLB(cfg)
		span := uint64(entries + 2*nsets + 1) // a few more pages than entries
		for op := 0; op < 400; op++ {
			vpn := rng.Uint64n(span)
			switch k := rng.Intn(10); {
			case k < 4:
				gp, gok := tl.Lookup(vpn)
				wp, wok := ref.lookup(vpn)
				if gp != wp || gok != wok {
					t.Fatalf("trial %d op %d: Lookup(%d) = %d,%v, reference %d,%v", trial, op, vpn, gp, gok, wp, wok)
				}
			case k < 8:
				tl.Insert(vpn, vpn*3+1)
				ref.insert(vpn, vpn*3+1)
			case k < 9:
				if got, want := tl.Invalidate(vpn), ref.invalidate(vpn); got != want {
					t.Fatalf("trial %d op %d: Invalidate(%d) = %v, reference %v", trial, op, vpn, got, want)
				}
			default:
				if got, want := tl.Probe(vpn), ref.probe(vpn); got != want {
					t.Fatalf("trial %d op %d: Probe(%d) = %v, reference %v", trial, op, vpn, got, want)
				}
			}
			if s := sameStore(tl, ref); s >= 0 {
				t.Fatalf("trial %d op %d (%s): set %d differs from the reference", trial, op, cfg.Repl, s)
			}
		}
		if tl.Stats() != ref.stats {
			t.Fatalf("trial %d: stats %+v, reference %+v", trial, tl.Stats(), ref.stats)
		}
	}
}

// TestOverfillStaysInSet overfills one set and checks that its
// neighbours' entries are untouched.
func TestOverfillStaysInSet(t *testing.T) {
	const nsets, ways, s = 8, 2, 3
	tl := New(Config{Name: "sets", Entries: nsets * ways, Ways: ways})
	for _, n := range []uint64{s - 1, s + 1} {
		tl.Insert(n, 100+n)
		tl.Insert(n+nsets, 200+n)
	}
	setOf := func(n uint64) []entry { return slices.Clone(tl.set(n)) }
	below, above := setOf(s-1), setOf(s+1)
	for i := uint64(0); i < ways+5; i++ {
		tl.Insert(s+i*nsets, i)
	}
	if tl.Stats().Evictions == 0 {
		t.Fatal("overfilling the set evicted nothing")
	}
	if !slices.Equal(setOf(s-1), below) || !slices.Equal(setOf(s+1), above) {
		t.Errorf("overfilling set %d changed a neighbour: %+v / %+v, was %+v / %+v",
			s, setOf(s-1), setOf(s+1), below, above)
	}
}

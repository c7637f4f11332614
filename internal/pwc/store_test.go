package pwc

import (
	"slices"
	"testing"

	"gpuwalk/internal/mmu"
	"gpuwalk/internal/xrand"
)

// refLevel is the per-set reference model of one PWC level: one slice
// of entries per set, the layout the flat store replaced, with the same
// counter-guarded LRU replacement.
type refLevel struct {
	sets    [][]entry
	setMask uint64
	clock   uint64
}

type refPWC struct {
	guard  bool
	levels [UpperLevels]refLevel
	stats  Stats
}

func newRefPWC(cfg Config) *refPWC {
	r := &refPWC{guard: cfg.CounterGuard}
	nsets := cfg.EntriesPerLevel / cfg.Ways
	for l := range r.levels {
		r.levels[l].sets = make([][]entry, nsets)
		r.levels[l].setMask = uint64(nsets - 1)
		for s := range r.levels[l].sets {
			r.levels[l].sets[s] = make([]entry, cfg.Ways)
		}
	}
	return r
}

func (lv *refLevel) find(tag uint64) *entry {
	set := lv.sets[tag&lv.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (r *refPWC) probe(vpn uint64, upper int) int {
	deepest := -1
	for l := 0; l < upper; l++ {
		e := r.levels[l].find(tagFor(vpn, l))
		if e == nil {
			break
		}
		deepest = l
		if r.guard && e.ctr < ctrMax {
			e.ctr++
		}
	}
	if deepest >= 0 {
		r.stats.Probes.Hit()
	} else {
		r.stats.Probes.Miss()
	}
	return upper - deepest
}

func (r *refPWC) lookup(vpn uint64, upper int) int {
	deepest := -1
	for l := 0; l < upper; l++ {
		lv := &r.levels[l]
		e := lv.find(tagFor(vpn, l))
		if e == nil {
			break
		}
		deepest = l
		lv.clock++
		e.used = lv.clock
		if r.guard && e.ctr > 0 {
			e.ctr--
		}
	}
	if deepest >= 0 {
		r.stats.Lookups.Hit()
	} else {
		r.stats.Lookups.Miss()
	}
	return upper - deepest
}

func (r *refPWC) fill(vpn uint64, upper int) {
	for l := 0; l < upper; l++ {
		r.fillLevel(l, tagFor(vpn, l))
	}
	r.stats.Fills++
}

func (r *refPWC) fillLevel(l int, tag uint64) {
	lv := &r.levels[l]
	set := lv.sets[tag&lv.setMask]
	lv.clock++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = lv.clock
			return
		}
	}
	for i := range set {
		if !set[i].valid {
			set[i] = entry{tag: tag, valid: true, used: lv.clock}
			return
		}
	}
	victim, global := -1, 0
	for i := range set {
		if set[i].ctr == 0 && (victim == -1 || set[i].used < set[victim].used) {
			victim = i
		}
		if set[i].used < set[global].used {
			global = i
		}
	}
	if victim == -1 {
		victim = global
	} else if victim != global {
		r.stats.GuardedSaves++
	}
	set[victim] = entry{tag: tag, valid: true, used: lv.clock}
}

// sameStore reports the first (level, set) whose entries differ between
// p's flat store and the reference, or -1, -1.
func sameStore(p *PWC, r *refPWC) (int, int) {
	for l := range r.levels {
		lv := &p.levels[l]
		for s, set := range r.levels[l].sets {
			if !slices.Equal(lv.entries[s*lv.ways:(s+1)*lv.ways], set) || lv.clock != r.levels[l].clock {
				return l, s
			}
		}
	}
	return -1, -1
}

// TestFlatStoreMatchesReference drives the flat store and the per-set
// reference with the same random probe/lookup/fill stream, with and
// without the counter guard, and compares results, stats and every
// entry after each op.
func TestFlatStoreMatchesReference(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 60; trial++ {
		ways := []int{1, 2, 3, 4, 8}[rng.Intn(5)]
		cfg := Config{EntriesPerLevel: ways << rng.Intn(4), Ways: ways, CounterGuard: trial%2 == 0}
		p, ref := New(cfg), newRefPWC(cfg)
		// A small index space per level, so walks share prefixes and
		// sets overflow.
		field := func() uint64 { return rng.Uint64n(uint64(cfg.EntriesPerLevel + 3)) }
		for op := 0; op < 400; op++ {
			vpn := field()<<(3*mmu.LevelBits) | field()<<(2*mmu.LevelBits) | field()<<mmu.LevelBits | rng.Uint64n(512)
			upper := 2 + rng.Intn(2)
			switch rng.Intn(3) {
			case 0:
				if got, want := p.ProbeN(vpn, upper), ref.probe(vpn, upper); got != want {
					t.Fatalf("trial %d op %d: ProbeN(%#x, %d) = %d, reference %d", trial, op, vpn, upper, got, want)
				}
			case 1:
				if got, want := p.LookupN(vpn, upper), ref.lookup(vpn, upper); got != want {
					t.Fatalf("trial %d op %d: LookupN(%#x, %d) = %d, reference %d", trial, op, vpn, upper, got, want)
				}
			default:
				p.FillN(vpn, upper)
				ref.fill(vpn, upper)
			}
			if l, s := sameStore(p, ref); l >= 0 {
				t.Fatalf("trial %d op %d: level %d set %d differs from the reference", trial, op, l, s)
			}
		}
		if p.Stats() != ref.stats {
			t.Fatalf("trial %d: stats %+v, reference %+v", trial, p.Stats(), ref.stats)
		}
	}
}

// TestOverfillStaysInSet overfills one PD-cache set and checks that its
// neighbours' entries are untouched.
func TestOverfillStaysInSet(t *testing.T) {
	const nsets, ways, s = 8, 2, 3
	p := New(Config{EntriesPerLevel: nsets * ways, Ways: ways, CounterGuard: true})
	pd := &p.levels[UpperLevels-1]
	// The PD cache's tag is vpn >> 9, so vpn n<<9 lands in set n%8.
	for _, n := range []uint64{s - 1, s + 1, s - 1 + nsets, s + 1 + nsets} {
		p.Fill(n << mmu.LevelBits)
	}
	p.Probe((s - 1) << mmu.LevelBits) // give a neighbour a guard count
	setOf := func(n uint64) []entry { return slices.Clone(pd.set(n)) }
	below, above := setOf(s-1), setOf(s+1)
	for i := uint64(0); i < ways+5; i++ {
		p.Fill((s + i*nsets) << mmu.LevelBits)
	}
	if !slices.Equal(setOf(s-1), below) || !slices.Equal(setOf(s+1), above) {
		t.Errorf("overfilling set %d changed a neighbour: %+v / %+v, was %+v / %+v",
			s, setOf(s-1), setOf(s+1), below, above)
	}
	last := uint64(s + (ways+4)*nsets)
	if !slices.ContainsFunc(setOf(s), func(e entry) bool { return e.valid && e.tag == last }) {
		t.Errorf("set %d = %+v, want it to hold the last fill", s, setOf(s))
	}
}

package cache

import (
	"slices"
	"testing"

	"gpuwalk/internal/sim"
	"gpuwalk/internal/xrand"
)

// refCache is the per-set reference model of the cache's tag store:
// one struct per line and one slice per set, the layout the flat
// packed store replaced. It runs each access to completion at once,
// so it matches a Cache driven one access at a time.
type refCache struct {
	sets    []refSet
	setMask uint64
	lineSh  uint
	stats   Stats
}

type refLine struct {
	tag          uint64
	valid, dirty bool
}

type refSet struct {
	lines []refLine
	plru  uint64
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.SizeBytes / (cfg.LineBytes * uint64(cfg.Ways))
	r := &refCache{sets: make([]refSet, nsets), setMask: nsets - 1}
	for i := range r.sets {
		r.sets[i].lines = make([]refLine, cfg.Ways)
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		r.lineSh++
	}
	return r
}

// access looks up addr, filling on a miss, and returns whether it hit
// and the line addresses written back.
func (r *refCache) access(addr uint64, write bool) (hit bool, writebacks []uint64) {
	tag := addr >> r.lineSh
	s := &r.sets[tag&r.setMask]
	for w := range s.lines {
		if s.lines[w].valid && s.lines[w].tag == tag {
			r.stats.Lookups.Hit()
			s.touch(w)
			if write {
				s.lines[w].dirty = true
			}
			return true, nil
		}
	}
	r.stats.Lookups.Miss()
	r.stats.Fills++
	w := s.victim()
	if old := s.lines[w]; old.valid {
		r.stats.Evictions++
		if old.dirty {
			r.stats.Writebacks++
			writebacks = append(writebacks, old.tag<<r.lineSh)
		}
	}
	s.lines[w] = refLine{tag: tag, valid: true, dirty: write}
	s.touch(w)
	return false, writebacks
}

func (r *refCache) probe(addr uint64) bool {
	tag := addr >> r.lineSh
	for _, l := range r.sets[tag&r.setMask].lines {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (s *refSet) touch(w int) {
	node := 0
	for sz := len(s.lines); sz > 1; {
		half := sz / 2
		if w < half {
			s.plru |= 1 << uint(node)
			node = 2*node + 1
			sz = half
		} else {
			s.plru &^= 1 << uint(node)
			node = 2*node + 2
			w -= half
			sz -= half
		}
	}
}

func (s *refSet) victim() int {
	for w := range s.lines {
		if !s.lines[w].valid {
			return w
		}
	}
	node, base := 0, 0
	for sz := len(s.lines); sz > 1; {
		half := sz / 2
		if s.plru&(1<<uint(node)) != 0 {
			node = 2*node + 2
			base += half
			sz -= half
		} else {
			node = 2*node + 1
			sz = half
		}
	}
	return base
}

// recorder is a lower level that completes at once and logs writes.
type recorder struct {
	eng    *sim.Engine
	writes []uint64
}

func (l *recorder) access(addr uint64, write bool, done func()) bool {
	if write {
		l.writes = append(l.writes, addr)
	}
	if done != nil {
		l.eng.After(1, done)
	}
	return true
}

// sameStore reports the first set whose lines or PLRU bits differ
// between c's flat store and the reference, or -1.
func sameStore(c *Cache, r *refCache) int {
	for s := range r.sets {
		if c.plru[s] != r.sets[s].plru {
			return s
		}
		for w, rl := range r.sets[s].lines {
			l := c.lines[s*c.ways+w]
			if (l&lineValid != 0) != rl.valid || (l&lineDirty != 0) != rl.dirty ||
				(rl.valid && l>>lineTagShift != rl.tag) {
				return s
			}
		}
	}
	return -1
}

// TestFlatStoreMatchesReference drives the flat packed store and the
// per-set reference with the same random access stream and compares
// hits, writebacks, probes, stats and every line after each access.
func TestFlatStoreMatchesReference(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 60; trial++ {
		ways := []int{1, 2, 3, 4, 5, 8, 16}[rng.Intn(7)]
		nsets := uint64(1) << rng.Intn(4)
		cfg := Config{Name: "diff", LineBytes: 64, Ways: ways, SizeBytes: 64 * uint64(ways) * nsets, HitLatency: 1}
		eng := sim.NewEngine()
		low := &recorder{eng: eng}
		c := New(eng, cfg, low.access)
		ref := newRefCache(cfg)
		stride := nsets * cfg.LineBytes
		for op := 0; op < 400; op++ {
			// A few more distinct tags per set than ways, so sets
			// overflow and evict.
			addr := uint64(rng.Intn(ways+3))*stride + uint64(rng.Intn(int(nsets)))*cfg.LineBytes + uint64(rng.Intn(64))
			if rng.Intn(5) == 0 {
				if got, want := c.Probe(addr), ref.probe(addr); got != want {
					t.Fatalf("trial %d op %d: Probe(%#x) = %v, reference %v", trial, op, addr, got, want)
				}
				continue
			}
			write := rng.Intn(3) == 0
			hitsBefore := c.Stats().Lookups.Hits
			low.writes = low.writes[:0]
			c.Access(addr, write, nil)
			eng.Run()
			wantHit, wantWB := ref.access(addr&^(cfg.LineBytes-1), write)
			if gotHit := c.Stats().Lookups.Hits > hitsBefore; gotHit != wantHit {
				t.Fatalf("trial %d op %d: access %#x hit = %v, reference %v", trial, op, addr, gotHit, wantHit)
			}
			if len(low.writes) != len(wantWB) || (len(wantWB) == 1 && low.writes[0] != wantWB[0]) {
				t.Fatalf("trial %d op %d: writebacks %#x, reference %#x", trial, op, low.writes, wantWB)
			}
			if s := sameStore(c, ref); s >= 0 {
				t.Fatalf("trial %d op %d: set %d differs from the reference", trial, op, s)
			}
		}
		got, want := c.Stats(), ref.stats
		if got.Lookups != want.Lookups || got.Fills != want.Fills || got.Evictions != want.Evictions || got.Writebacks != want.Writebacks {
			t.Fatalf("trial %d: stats %+v, reference %+v", trial, got, want)
		}
	}
}

// TestOverfillStaysInSet overfills one set with dirty lines and checks
// that its neighbours' lines and PLRU bits are untouched.
func TestOverfillStaysInSet(t *testing.T) {
	cfg := Config{Name: "sets", LineBytes: 64, Ways: 4, SizeBytes: 64 * 4 * 8, HitLatency: 1}
	eng := sim.NewEngine()
	low := &recorder{eng: eng}
	c := New(eng, cfg, low.access)
	const s = 3
	stride := uint64(8 * 64)
	for _, n := range []uint64{s - 1, s + 1} {
		c.Access(n*64, true, nil)
		c.Access(stride+n*64, false, nil)
	}
	eng.Run()
	snapshot := func(n int) []uint64 {
		return append([]uint64{c.plru[n]}, c.set(uint64(n))...)
	}
	below, above := snapshot(s-1), snapshot(s+1)
	for i := uint64(0); i < uint64(cfg.Ways)+5; i++ {
		c.Access(i*stride+s*64, true, nil)
		eng.Run()
	}
	if c.Stats().Writebacks == 0 {
		t.Fatal("overfilling the set wrote nothing back")
	}
	for _, tc := range []struct {
		n    int
		want []uint64
	}{{s - 1, below}, {s + 1, above}} {
		if got := snapshot(tc.n); !slices.Equal(got, tc.want) {
			t.Errorf("set %d changed from %#x to %#x", tc.n, tc.want, got)
		}
	}
}

package cache

import (
	"testing"

	"gpuwalk/internal/sim"
)

func testConfig() Config {
	return Config{
		Name:       "test",
		SizeBytes:  4096, // 4 sets x 16 ways? -> 4096/(64*4)=16 sets with 4 ways below
		LineBytes:  64,
		Ways:       4,
		HitLatency: 2,
		PortCycles: 0,
		MSHRs:      4,
	}
}

// backing is a scripted lower level.
type backing struct {
	eng     *sim.Engine
	latency uint64
	reads   int
	writes  int
}

func (b *backing) access(addr uint64, write bool, done func()) bool {
	if write {
		b.writes++
	} else {
		b.reads++
	}
	if done != nil {
		b.eng.After(b.latency, done)
	}
	return true
}

func newPair(t *testing.T) (*sim.Engine, *Cache, *backing) {
	t.Helper()
	eng := sim.NewEngine()
	lower := &backing{eng: eng, latency: 50}
	c := New(eng, testConfig(), lower.access)
	return eng, c, lower
}

func TestMissThenHit(t *testing.T) {
	eng, c, lower := newPair(t)
	var missAt, hitAt sim.Cycle
	c.Access(0x1000, false, func() {
		missAt = eng.Now()
		c.Access(0x1000, false, func() { hitAt = eng.Now() })
	})
	eng.Run()
	if missAt < 50 {
		t.Errorf("miss completed at %d, before lower latency", missAt)
	}
	if hitAt-missAt > 5 {
		t.Errorf("hit took %d cycles, want about HitLatency", hitAt-missAt)
	}
	if lower.reads != 1 {
		t.Errorf("lower reads = %d, want 1", lower.reads)
	}
	st := c.Stats()
	if st.Lookups.Hits != 1 || st.Lookups.Total != 2 {
		t.Errorf("lookup stats = %+v", st.Lookups)
	}
}

func TestSameLineMergesMSHR(t *testing.T) {
	eng, c, lower := newPair(t)
	done := 0
	for i := 0; i < 8; i++ {
		c.Access(0x2000+uint64(i*8), false, func() { done++ })
	}
	eng.Run()
	if done != 8 {
		t.Fatalf("done = %d, want 8", done)
	}
	if lower.reads != 1 {
		t.Errorf("lower reads = %d, want 1 (merged)", lower.reads)
	}
	if c.Stats().MSHRMerges != 7 {
		t.Errorf("MSHRMerges = %d, want 7", c.Stats().MSHRMerges)
	}
}

func TestMSHRExhaustionParks(t *testing.T) {
	eng, c, lower := newPair(t)
	done := 0
	// 10 distinct lines with only 4 MSHRs: the extra 6 park and complete
	// after fills free MSHRs.
	for i := 0; i < 10; i++ {
		c.Access(uint64(i)*64, false, func() { done++ })
	}
	eng.Run()
	if done != 10 {
		t.Fatalf("done = %d, want 10", done)
	}
	if lower.reads != 10 {
		t.Errorf("lower reads = %d, want 10", lower.reads)
	}
	if c.Stats().MSHRStalls == 0 {
		t.Error("expected MSHR stalls to be recorded")
	}
}

func TestEvictionLRU(t *testing.T) {
	eng, c, _ := newPair(t)
	cfg := c.Config()
	sets := cfg.SizeBytes / (cfg.LineBytes * uint64(cfg.Ways))
	setStride := sets * cfg.LineBytes // same-set stride

	// Fill all 4 ways of set 0, then touch a 5th line: someone is evicted.
	for i := 0; i < 5; i++ {
		c.Access(uint64(i)*setStride, false, func() {})
	}
	eng.Run()
	if c.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", c.Stats().Evictions)
	}
	// The newest line must be resident.
	if !c.Probe(4 * setStride) {
		t.Error("just-filled line not resident")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	eng, c, lower := newPair(t)
	cfg := c.Config()
	sets := cfg.SizeBytes / (cfg.LineBytes * uint64(cfg.Ways))
	setStride := sets * cfg.LineBytes

	// Write line 0 (dirty), then fill the set until line 0 is evicted.
	c.Access(0, true, func() {})
	eng.Run()
	for i := 1; i <= 4; i++ {
		c.Access(uint64(i)*setStride, false, func() {})
		eng.Run()
	}
	if lower.writes != 1 {
		t.Errorf("lower writes = %d, want 1 writeback", lower.writes)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestPseudoLRUPrefersUntouched(t *testing.T) {
	eng, c, _ := newPair(t)
	cfg := c.Config()
	sets := cfg.SizeBytes / (cfg.LineBytes * uint64(cfg.Ways))
	setStride := sets * cfg.LineBytes

	// Fill 4 ways: lines 0..3.
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*setStride, false, func() {})
		eng.Run()
	}
	// Touch lines 1..3 again so line 0 is the pseudo-LRU victim.
	for i := 1; i < 4; i++ {
		c.Access(uint64(i)*setStride, false, func() {})
		eng.Run()
	}
	c.Access(9*setStride, false, func() {})
	eng.Run()
	if c.Probe(0) {
		t.Error("least-recently-used line survived eviction")
	}
	for i := 1; i < 4; i++ {
		if !c.Probe(uint64(i) * setStride) {
			t.Errorf("recently-touched line %d was evicted", i)
		}
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	eng, c, lower := newPair(t)
	cfg := c.Config()
	sets := cfg.SizeBytes / (cfg.LineBytes * uint64(cfg.Ways))
	setStride := sets * cfg.LineBytes

	c.Access(0, false, func() {}) // clean fill
	eng.Run()
	c.Access(8, true, func() {}) // write hit -> dirty
	eng.Run()
	for i := 1; i <= 4; i++ {
		c.Access(uint64(i)*setStride, false, func() {})
		eng.Run()
	}
	if lower.writes != 1 {
		t.Errorf("write-hit line was not written back (writes=%d)", lower.writes)
	}
}

func TestNilDoneTolerated(t *testing.T) {
	eng, c, _ := newPair(t)
	c.Access(0x40, true, nil) // e.g. a writeback from an upper level
	c.Access(0x40, false, nil)
	eng.Run() // must not panic
}

func TestPortSerialization(t *testing.T) {
	eng := sim.NewEngine()
	lower := &backing{eng: eng, latency: 0}
	cfg := testConfig()
	cfg.PortCycles = 4
	c := New(eng, cfg, lower.access)
	var times []sim.Cycle
	// Pre-fill a line, then issue three hits in the same cycle: the port
	// spaces their completions 4 cycles apart.
	c.Access(0, false, func() {})
	eng.Run()
	for i := 0; i < 3; i++ {
		c.Access(0, false, func() { times = append(times, eng.Now()) })
	}
	eng.Run()
	if len(times) != 3 {
		t.Fatalf("completions = %d", len(times))
	}
	if times[1]-times[0] != 4 || times[2]-times[1] != 4 {
		t.Errorf("port did not serialize: %v", times)
	}
}

func TestRetryOnLowerRejection(t *testing.T) {
	eng := sim.NewEngine()
	rejections := 3
	reads := 0
	lower := func(addr uint64, write bool, done func()) bool {
		if rejections > 0 {
			rejections--
			return false
		}
		reads++
		eng.After(10, done)
		return true
	}
	cfg := testConfig()
	cfg.RetryDelay = 5
	c := New(eng, cfg, lower)
	ok := false
	c.Access(0x80, false, func() { ok = true })
	eng.Run()
	if !ok {
		t.Fatal("access never completed despite retries")
	}
	if reads != 1 {
		t.Errorf("lower reads = %d, want 1", reads)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.LineBytes = 96 },
		func(c *Config) { c.LineBytes = 2 }, // a packed line word has no room for its tag
		func(c *Config) { c.Ways = 0 },
		func(c *Config) { c.SizeBytes = 1000 },
		func(c *Config) { c.SizeBytes = c.LineBytes * uint64(c.Ways) * 3 }, // 3 sets
	}
	for i, mutate := range bad {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestProbeDoesNotTouch(t *testing.T) {
	eng, c, _ := newPair(t)
	c.Access(0x100, false, func() {})
	eng.Run()
	before := c.Stats().Lookups.Total
	if !c.Probe(0x100) {
		t.Error("Probe missed a resident line")
	}
	if c.Probe(0x999000) {
		t.Error("Probe hit an absent line")
	}
	if c.Stats().Lookups.Total != before {
		t.Error("Probe changed lookup statistics")
	}
}

func TestFuzzCallbackConservation(t *testing.T) {
	// Any access sequence: every done callback fires exactly once, and
	// only lines that were accessed can be resident.
	seeds := []uint64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		eng := sim.NewEngine()
		lower := &backing{eng: eng, latency: 30}
		cfg := testConfig()
		cfg.MSHRs = 2
		c := New(eng, cfg, lower.access)

		rng := seed
		next := func(n uint64) uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng % n
		}
		const accesses = 500
		fired := make([]int, accesses)
		touched := map[uint64]bool{}
		for i := 0; i < accesses; i++ {
			i := i
			addr := next(64) * 64 // 64 distinct lines; heavy conflicts
			touched[addr] = true
			c.Access(addr, next(4) == 0, func() { fired[i]++ })
			if next(3) == 0 {
				eng.RunFor(next(20))
			}
		}
		eng.Run()
		for i, n := range fired {
			if n != 1 {
				t.Fatalf("seed %d: access %d fired %d times", seed, i, n)
			}
		}
		for la := uint64(0); la < 64*64; la += 64 {
			if c.Probe(la) && !touched[la] {
				t.Fatalf("seed %d: untouched line %#x resident", seed, la)
			}
		}
		st := c.Stats()
		if st.Lookups.Total != accesses {
			t.Fatalf("seed %d: lookups = %d", seed, st.Lookups.Total)
		}
	}
}

// Package cache models set-associative write-back data caches with
// MSHRs (miss-status holding registers) and a single ported lookup pipe.
//
// A Cache is wired to a lower level through an AccessFn; misses allocate
// an MSHR, fetch the line from below, and release all waiters when the
// fill returns. Same-line misses merge onto one MSHR, mirroring real
// GPU cache behaviour, which matters here because divergent SIMD
// instructions issue many concurrent accesses.
package cache

import (
	"fmt"

	"gpuwalk/internal/sim"
	"gpuwalk/internal/stats"
)

// AccessFn requests the line containing addr from a lower level. done is
// called when the data is available (or the write is accepted). It
// reports false if the lower level cannot accept the request now; the
// caller must retry.
type AccessFn func(addr uint64, write bool, done func()) bool

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  uint64
	LineBytes  uint64
	Ways       int
	HitLatency uint64 // lookup latency in cycles
	PortCycles uint64 // occupancy per access (bandwidth); 0 = unlimited
	MSHRs      int    // max outstanding distinct line misses; 0 = unlimited
	RetryDelay uint64 // backoff before retrying a rejected lower access
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.LineBytes < 4 || c.LineBytes&(c.LineBytes-1) != 0:
		// A packed line word keeps the tag in bits 2..63, so lines of
		// at least 4 bytes make every 64-bit line address fit.
		return fmt.Errorf("cache %s: LineBytes must be a power of two of at least 4, got %d", c.Name, c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache %s: Ways must be positive, got %d", c.Name, c.Ways)
	case c.SizeBytes == 0 || c.SizeBytes%(c.LineBytes*uint64(c.Ways)) != 0:
		return fmt.Errorf("cache %s: SizeBytes (%d) must be a multiple of LineBytes*Ways", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * uint64(c.Ways))
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Lookups    stats.Ratio // hit/total
	Fills      uint64
	Evictions  uint64
	Writebacks uint64
	MSHRMerges uint64
	MSHRStalls uint64 // accesses rejected because MSHRs were full
}

// A line is packed into one word: its tag (the line address >> lineSh)
// in bits 2..63, dirty in bit 1, valid in bit 0. The zero word is an
// invalid line.
const (
	lineValid    = 1 << 0
	lineDirty    = 1 << 1
	lineTagShift = 2
)

type mshr struct {
	write   bool
	waiters []func()
}

// waiting is an access parked because all MSHRs were busy.
type waiting struct {
	la    uint64
	write bool
	done  func()
}

// Cache is one level of a data cache hierarchy.
type Cache struct {
	cfg      Config
	eng      *sim.Engine
	lower    AccessFn
	lines    []uint64 // set s, way w at s*ways+w
	plru     []uint64 // per set: tree pseudo-LRU state bits
	ways     int
	setMask  uint64
	lineSh   uint
	mshrs    map[uint64]*mshr // keyed by line address
	waitq    []waiting        // accesses parked on MSHR exhaustion
	stats    Stats
	portFree sim.Cycle
}

// New builds a cache on the engine, backed by lower. Panics on invalid
// config; use Config.Validate for graceful checking.
func New(eng *sim.Engine, cfg Config, lower AccessFn) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * uint64(cfg.Ways))
	c := &Cache{
		cfg:     cfg,
		eng:     eng,
		lower:   lower,
		lines:   make([]uint64, nsets*uint64(cfg.Ways)),
		plru:    make([]uint64, nsets),
		ways:    cfg.Ways,
		setMask: nsets - 1,
		mshrs:   make(map[uint64]*mshr),
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		c.lineSh++
	}
	return c
}

// Stats returns a snapshot of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// lineAddr returns the line-aligned address of addr.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ (c.cfg.LineBytes - 1) }

func (c *Cache) indexTag(la uint64) (uint64, uint64) {
	idx := (la >> c.lineSh) & c.setMask
	tag := la >> c.lineSh
	return idx, tag
}

// occupyPort serializes accesses through the lookup port and returns the
// cycle at which this access's lookup completes.
func (c *Cache) occupyPort() sim.Cycle {
	now := c.eng.Now()
	start := now
	if c.cfg.PortCycles > 0 {
		if c.portFree > start {
			start = c.portFree
		}
		c.portFree = start + sim.Cycle(c.cfg.PortCycles)
	}
	return start + sim.Cycle(c.cfg.HitLatency)
}

// Access looks up the line containing addr. done runs when the data is
// available (loads) or the write has been absorbed (stores). Access
// always accepts: when all MSHRs are busy the request parks in an
// internal wait queue and proceeds as MSHRs free up (hardware would
// apply backpressure; a queue models the same delay without retry
// traffic). It returns true to satisfy the AccessFn contract.
func (c *Cache) Access(addr uint64, write bool, done func()) bool {
	la := c.lineAddr(addr)
	readyAt := c.occupyPort()
	c.handle(la, write, done, readyAt, true)
	return true
}

// handle runs the lookup logic for a port-granted access. fresh is true
// for a new access and false when re-processing a parked one, so the
// lookup statistics count each access exactly once.
func (c *Cache) handle(la uint64, write bool, done func(), readyAt sim.Cycle, fresh bool) {
	if done == nil {
		done = func() {} // fire-and-forget (e.g. writebacks from above)
	}
	idx, tag := c.indexTag(la)
	if w := c.findWay(idx, tag); w >= 0 {
		if fresh {
			c.stats.Lookups.Hit()
		}
		c.touch(idx, w)
		if write {
			c.lines[int(idx)*c.ways+w] |= lineDirty
		}
		c.eng.At(readyAt, done)
		return
	}
	if fresh {
		c.stats.Lookups.Miss()
	}

	// Merge into an existing outstanding miss for the same line.
	if m, ok := c.mshrs[la]; ok {
		c.stats.MSHRMerges++
		m.write = m.write || write
		m.waiters = append(m.waiters, done)
		return
	}
	if c.cfg.MSHRs > 0 && len(c.mshrs) >= c.cfg.MSHRs {
		c.stats.MSHRStalls++
		c.waitq = append(c.waitq, waiting{la: la, write: write, done: done})
		return
	}
	m := &mshr{write: write, waiters: []func(){done}}
	c.mshrs[la] = m
	c.eng.At(readyAt, func() { c.fetch(la) })
}

// Probe reports whether the line containing addr is resident, without
// touching replacement state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	return c.findWay(c.indexTag(c.lineAddr(addr))) >= 0
}

// fetch sends the miss for line la to the lower level, retrying on
// rejection.
func (c *Cache) fetch(la uint64) {
	ok := c.lower(la, false, func() { c.fill(la) })
	if !ok {
		d := c.cfg.RetryDelay
		if d == 0 {
			d = 8
		}
		c.eng.After(d, func() { c.fetch(la) })
	}
}

// fill installs line la and releases its MSHR waiters.
func (c *Cache) fill(la uint64) {
	m, ok := c.mshrs[la]
	if !ok {
		return // duplicate fill; ignore
	}
	delete(c.mshrs, la)
	c.stats.Fills++

	idx, tag := c.indexTag(la)
	w := c.victim(idx)
	i := int(idx)*c.ways + w
	if old := c.lines[i]; old&lineValid != 0 {
		c.stats.Evictions++
		if old&lineDirty != 0 {
			c.stats.Writebacks++
			// The tag is the full line address >> lineSh, so shifting
			// back reconstructs the victim's line address.
			c.writeback(old >> lineTagShift << c.lineSh)
		}
	}
	c.lines[i] = tag<<lineTagShift | lineValid
	if m.write {
		c.lines[i] |= lineDirty
	}
	c.touch(idx, w)
	for _, fn := range m.waiters {
		fn()
	}

	// The freed MSHR lets parked accesses proceed. Each iteration either
	// consumes the free MSHR, hits, or merges; re-check capacity before
	// each pop so the loop cannot re-park what it popped.
	for len(c.waitq) > 0 && (c.cfg.MSHRs == 0 || len(c.mshrs) < c.cfg.MSHRs) {
		wq := c.waitq[0]
		c.waitq = c.waitq[1:]
		c.handle(wq.la, wq.write, wq.done, c.eng.Now(), false)
	}
}

// writeback sends a dirty line to the lower level, retrying on rejection.
// Writebacks complete in the background.
func (c *Cache) writeback(la uint64) {
	ok := c.lower(la, true, nil)
	if !ok {
		d := c.cfg.RetryDelay
		if d == 0 {
			d = 8
		}
		c.eng.After(d, func() { c.writeback(la) })
	}
}

// set returns the line words of set idx.
func (c *Cache) set(idx uint64) []uint64 {
	base := int(idx) * c.ways
	return c.lines[base : base+c.ways : base+c.ways]
}

// findWay returns the way of set idx holding tag, or -1.
func (c *Cache) findWay(idx, tag uint64) int {
	want := tag<<lineTagShift | lineValid
	for w, l := range c.set(idx) {
		if l&^lineDirty == want {
			return w
		}
	}
	return -1
}

// touch marks way w of set idx most-recently used in the tree
// pseudo-LRU bits. The tree is stored implicitly: node i has children
// 2i+1, 2i+2; leaves map to ways. Setting the path bits to point *away*
// from w protects it.
func (c *Cache) touch(idx uint64, w int) {
	bits := c.plru[idx]
	node := 0
	for sz := c.ways; sz > 1; {
		half := sz / 2
		if w < half {
			bits |= 1 << uint(node) // 1 = victim search goes right
			node = 2*node + 1
			sz = half
		} else {
			bits &^= 1 << uint(node)
			node = 2*node + 2
			w -= half
			sz -= half
		}
	}
	c.plru[idx] = bits
}

// victim picks a way of set idx to replace: first invalid way, else
// pseudo-LRU.
func (c *Cache) victim(idx uint64) int {
	for w, l := range c.set(idx) {
		if l&lineValid == 0 {
			return w
		}
	}
	bits := c.plru[idx]
	node, base := 0, 0
	for sz := c.ways; sz > 1; {
		half := sz / 2
		if bits&(1<<uint(node)) != 0 { // go right
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

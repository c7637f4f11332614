// Package tlb models translation lookaside buffers: set-associative or
// fully-associative caches of virtual-page to physical-frame mappings
// with true-LRU replacement.
//
// A TLB here is purely structural — lookups and fills are synchronous
// mutations. The surrounding models (internal/gpu for the GPU hierarchy,
// internal/iommu for the IOMMU TLBs) add lookup latency, port contention
// and miss handling, because those differ per level.
package tlb

import (
	"fmt"

	"gpuwalk/internal/obs"
	"gpuwalk/internal/stats"
)

// Replacement selects a TLB replacement policy.
type Replacement int

// Replacement policies.
const (
	// LRU evicts the least-recently-used entry (default).
	LRU Replacement = iota
	// FIFO evicts the oldest-inserted entry regardless of use.
	FIFO
	// RandomRepl evicts a pseudo-random entry (deterministic stream).
	RandomRepl
)

// String implements fmt.Stringer.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case RandomRepl:
		return "random"
	}
	return fmt.Sprintf("Replacement(%d)", int(r))
}

// Config describes one TLB.
type Config struct {
	Name    string
	Entries int
	Ways    int // 0 means fully associative
	// Repl selects the replacement policy (default LRU).
	Repl Replacement
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("tlb %s: Entries must be positive, got %d", c.Name, c.Entries)
	}
	ways := c.Ways
	if ways == 0 {
		ways = c.Entries
	}
	if c.Entries%ways != 0 {
		return fmt.Errorf("tlb %s: Entries (%d) must be a multiple of Ways (%d)", c.Name, c.Entries, ways)
	}
	sets := c.Entries / ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

type entry struct {
	vpn   uint64
	pfn   uint64
	valid bool
	used  uint64 // LRU stamp
}

// Stats counts TLB activity.
type Stats struct {
	Lookups   stats.Ratio
	Fills     uint64
	Evictions uint64
}

// TLB is one translation lookaside buffer.
type TLB struct {
	cfg     Config
	entries []entry // set s, way w at s*ways+w
	ways    int
	setMask uint64
	clock   uint64
	rng     uint64 // random-replacement stream state
	stats   Stats

	tr  *obs.Tracer // nil unless tracing; see SetTracer
	trk obs.Track
}

// New builds a TLB. Panics on invalid config; use Config.Validate for
// graceful checking.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ways := cfg.Ways
	if ways == 0 {
		ways = cfg.Entries
	}
	nsets := cfg.Entries / ways
	return &TLB{
		cfg:     cfg,
		entries: make([]entry, cfg.Entries),
		ways:    ways,
		setMask: uint64(nsets - 1),
		rng:     0x9e3779b97f4a7c15,
	}
}

// set returns the entries of the set vpn maps to.
func (t *TLB) set(vpn uint64) []entry {
	base := int(vpn&t.setMask) * t.ways
	return t.entries[base : base+t.ways : base+t.ways]
}

// Stats returns a snapshot of the accumulated statistics.
func (t *TLB) Stats() Stats { return t.stats }

// SetTracer attaches an event tracer; misses are recorded as instants
// on trk. The hot path pays a single nil check when tracing is off.
func (t *TLB) SetTracer(tr *obs.Tracer, trk obs.Track) {
	t.tr, t.trk = tr, trk
}

// Config returns the TLB configuration.
func (t *TLB) Config() Config { return t.cfg }

// Lookup searches for vpn. On a hit it returns the cached pfn, updates
// recency state (under LRU), and records a hit; on a miss it records a
// miss.
func (t *TLB) Lookup(vpn uint64) (pfn uint64, ok bool) {
	s := t.set(vpn)
	for i := range s {
		e := &s[i]
		if e.valid && e.vpn == vpn {
			if t.cfg.Repl == LRU {
				t.clock++
				e.used = t.clock
			}
			t.stats.Lookups.Hit()
			return e.pfn, true
		}
	}
	t.stats.Lookups.Miss()
	if tr := t.tr; tr != nil {
		tr.Instant(t.trk, "tlb", "miss", obs.U64("vpn", vpn))
	}
	return 0, false
}

// Probe reports whether vpn is resident without updating LRU or stats.
func (t *TLB) Probe(vpn uint64) bool {
	for _, e := range t.set(vpn) {
		if e.valid && e.vpn == vpn {
			return true
		}
	}
	return false
}

// Insert installs vpn→pfn, evicting per the configured replacement
// policy if the set is full. Inserting an already-present vpn refreshes
// its pfn (and its recency under LRU).
func (t *TLB) Insert(vpn, pfn uint64) {
	s := t.set(vpn)
	t.clock++
	for i := range s {
		e := &s[i]
		if e.valid && e.vpn == vpn {
			e.pfn = pfn
			if t.cfg.Repl == LRU {
				e.used = t.clock
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
		victim = t.pickVictim(s)
		t.stats.Evictions++
	}
	s[victim] = entry{vpn: vpn, pfn: pfn, valid: true, used: t.clock}
	t.stats.Fills++
}

// pickVictim selects a valid entry to evict from a full set.
func (t *TLB) pickVictim(s []entry) int {
	switch t.cfg.Repl {
	case RandomRepl:
		// xorshift64*: cheap deterministic stream seeded by the clock.
		t.rng ^= t.rng << 13
		t.rng ^= t.rng >> 7
		t.rng ^= t.rng << 17
		return int(t.rng % uint64(len(s)))
	default: // LRU and FIFO both evict the smallest stamp; they differ
		// in whether Lookup refreshes it.
		victim := 0
		for i := range s {
			if s[i].used < s[victim].used {
				victim = i
			}
		}
		return victim
	}
}

// Invalidate removes vpn if present, reporting whether it was resident.
func (t *TLB) Invalidate(vpn uint64) bool {
	s := t.set(vpn)
	for i := range s {
		if s[i].valid && s[i].vpn == vpn {
			s[i] = entry{}
			return true
		}
	}
	return false
}

// Flush empties the TLB.
func (t *TLB) Flush() { clear(t.entries) }

// Occupancy returns the number of valid entries.
func (t *TLB) Occupancy() int {
	n := 0
	for _, e := range t.entries {
		if e.valid {
			n++
		}
	}
	return n
}

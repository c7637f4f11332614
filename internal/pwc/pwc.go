// Package pwc models the IOMMU's page walk caches (PWCs): small caches
// of upper-level page-table entries (PML4E, PDPTE, PDE) that let a walker
// skip the corresponding levels of a walk.
//
// It also implements the paper's replacement modification (Section IV,
// "Design Subtleties"): every entry carries a 2-bit saturating counter.
// A *probe* — the score-estimation lookup done when a walk request
// arrives at the IOMMU (action 1-a) — increments the counters of the
// entries it hits; the real *lookup* done when a walker finally services
// the request (action 2-b) decrements them. An entry with a nonzero
// counter is therefore "promised" to at least one pending request, and
// the replacement policy refuses to evict it unless every entry in the
// set is promised, in which case plain LRU applies.
package pwc

import (
	"fmt"

	"gpuwalk/internal/mmu"
	"gpuwalk/internal/obs"
	"gpuwalk/internal/stats"
)

// UpperLevels is the number of page-table levels the PWC covers
// (all but the leaf PT level).
const UpperLevels = mmu.Levels - 1

// Config describes the page walk caches.
type Config struct {
	// EntriesPerLevel and Ways size each of the three per-level caches.
	EntriesPerLevel int
	Ways            int
	// CounterGuard enables the 2-bit saturating-counter replacement
	// protection. Disabled, replacement is plain LRU (the ablation
	// baseline).
	CounterGuard bool
}

// DefaultConfig returns the baseline PWC: 3 levels × 32 entries, 4-way,
// with the counter guard enabled.
func DefaultConfig() Config {
	return Config{EntriesPerLevel: 32, Ways: 4, CounterGuard: true}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.EntriesPerLevel <= 0 {
		return fmt.Errorf("pwc: EntriesPerLevel must be positive, got %d", c.EntriesPerLevel)
	}
	if c.Ways <= 0 || c.EntriesPerLevel%c.Ways != 0 {
		return fmt.Errorf("pwc: Entries (%d) must be a multiple of Ways (%d)", c.EntriesPerLevel, c.Ways)
	}
	sets := c.EntriesPerLevel / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("pwc: set count %d must be a power of two", sets)
	}
	return nil
}

const ctrMax = 3 // 2-bit saturating counter

type entry struct {
	tag   uint64
	valid bool
	ctr   uint8
	used  uint64
}

type level struct {
	entries []entry // set s, way w at s*ways+w
	ways    int
	setMask uint64
	clock   uint64
}

// Stats counts PWC activity.
type Stats struct {
	Probes       stats.Ratio // probe produced estimate < 4 (some hit)
	Lookups      stats.Ratio // lookup skipped at least one level
	Fills        uint64
	GuardedSaves uint64 // replacements redirected away from protected entries
}

// PWC is the three-level page walk cache.
type PWC struct {
	cfg    Config
	levels [UpperLevels]level
	stats  Stats

	tr  *obs.Tracer // nil unless tracing; see SetTracer
	trk obs.Track
}

// New builds the PWC. Panics on invalid config; use Config.Validate for
// graceful checking.
func New(cfg Config) *PWC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &PWC{cfg: cfg}
	nsets := cfg.EntriesPerLevel / cfg.Ways
	for l := range p.levels {
		p.levels[l] = level{
			entries: make([]entry, cfg.EntriesPerLevel),
			ways:    cfg.Ways,
			setMask: uint64(nsets - 1),
		}
	}
	return p
}

// Stats returns a snapshot of the accumulated statistics.
func (p *PWC) Stats() Stats { return p.stats }

// SetTracer attaches an event tracer; counter-guard protect and
// unprotect transitions are recorded as instants on trk. The hot path
// pays a single nil check when tracing is off.
func (p *PWC) SetTracer(tr *obs.Tracer, trk obs.Track) {
	p.tr, p.trk = tr, trk
}

// tagFor returns the PWC tag for vpn at upper level l (0 = PML4 cache).
// The tag is the VA prefix covering that level: the PML4 cache is keyed
// by the top 9 VPN bits, the PDPT cache by the top 18, the PD cache by
// the top 27.
func tagFor(vpn uint64, l int) uint64 {
	shift := uint(mmu.LevelBits * (UpperLevels - l))
	return vpn >> shift
}

// set returns the entries of the set tag maps to.
func (lv *level) set(tag uint64) []entry {
	base := int(tag&lv.setMask) * lv.ways
	return lv.entries[base : base+lv.ways : base+lv.ways]
}

func (lv *level) find(tag uint64) *entry {
	set := lv.set(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Probe estimates how many memory accesses a walk of vpn would need
// right now (1..4) and, when the counter guard is enabled, increments
// the saturating counters of the hit entries to protect them until the
// corresponding request is actually scheduled. Probe does not update LRU
// state: it is an estimation, not a use.
func (p *PWC) Probe(vpn uint64) int { return p.ProbeN(vpn, UpperLevels) }

// ProbeN is Probe for a walk whose path has upper cacheable levels: 3
// for a 4 KB mapping, 2 for a 2 MB mapping (whose PD entry is the
// translation itself and lives in TLBs, not the PWC).
func (p *PWC) ProbeN(vpn uint64, upper int) int {
	deepest := -1
	for l := 0; l < upper; l++ {
		e := p.levels[l].find(tagFor(vpn, l))
		if e == nil {
			break
		}
		deepest = l
		if p.cfg.CounterGuard && e.ctr < ctrMax {
			e.ctr++
			if tr := p.tr; tr != nil {
				tr.Instant(p.trk, "pwc", "protect",
					obs.U64("level", uint64(l)), obs.U64("ctr", uint64(e.ctr)))
			}
		}
	}
	if deepest >= 0 {
		p.stats.Probes.Hit()
	} else {
		p.stats.Probes.Miss()
	}
	return upper + 1 - (deepest + 1)
}

// Lookup is the real walk-time access: it returns how many memory
// accesses the walk needs (1..4), refreshes LRU state of hit entries,
// and decrements their protection counters (the pending request that
// promised them is now being serviced).
func (p *PWC) Lookup(vpn uint64) int { return p.LookupN(vpn, UpperLevels) }

// LookupN is Lookup for a walk with the given number of cacheable upper
// levels (see ProbeN).
func (p *PWC) LookupN(vpn uint64, upper int) int {
	deepest := -1
	for l := 0; l < upper; l++ {
		lv := &p.levels[l]
		e := lv.find(tagFor(vpn, l))
		if e == nil {
			break
		}
		deepest = l
		lv.clock++
		e.used = lv.clock
		if p.cfg.CounterGuard && e.ctr > 0 {
			e.ctr--
			if tr := p.tr; tr != nil {
				tr.Instant(p.trk, "pwc", "unprotect",
					obs.U64("level", uint64(l)), obs.U64("ctr", uint64(e.ctr)))
			}
		}
	}
	if deepest >= 0 {
		p.stats.Lookups.Hit()
	} else {
		p.stats.Lookups.Miss()
	}
	return upper + 1 - (deepest + 1)
}

// Fill installs the upper-level entries for vpn after a completed walk.
func (p *PWC) Fill(vpn uint64) { p.FillN(vpn, UpperLevels) }

// FillN fills only the given number of upper levels (see ProbeN).
func (p *PWC) FillN(vpn uint64, upper int) {
	for l := 0; l < upper; l++ {
		p.fillLevel(l, tagFor(vpn, l))
	}
	p.stats.Fills++
}

func (p *PWC) fillLevel(l int, tag uint64) {
	lv := &p.levels[l]
	set := lv.set(tag)
	lv.clock++

	// Refresh if already present.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = lv.clock
			return
		}
	}
	// Prefer an invalid way.
	for i := range set {
		if !set[i].valid {
			set[i] = entry{tag: tag, valid: true, used: lv.clock}
			return
		}
	}
	// Victim selection: LRU among unprotected entries; if every entry is
	// protected (ctr > 0), plain LRU over all of them.
	victim, guarded := -1, false
	for i := range set {
		if set[i].ctr > 0 {
			continue
		}
		if victim == -1 || set[i].used < set[victim].used {
			victim = i
		}
	}
	if victim == -1 {
		for i := range set {
			if victim == -1 || set[i].used < set[victim].used {
				victim = i
			}
		}
	} else {
		// Did the guard actually redirect the choice away from the
		// globally-LRU entry?
		global := 0
		for i := range set {
			if set[i].used < set[global].used {
				global = i
			}
		}
		guarded = global != victim
	}
	if guarded {
		p.stats.GuardedSaves++
	}
	set[victim] = entry{tag: tag, valid: true, used: lv.clock}
}

// Package mmu provides the OS-side substrate of the simulation: a
// simulated physical memory, a randomized frame allocator, and a real
// four-level x86-64 page table built inside that physical memory.
//
// The page table is "real" in the sense that every mapping is stored as
// an 8-byte PTE at a concrete simulated physical address, so a page walk
// is a chain of up to four dependent reads of concrete DRAM addresses —
// exactly what the IOMMU walkers issue.
package mmu

import (
	"fmt"

	"gpuwalk/internal/xrand"
)

// Page geometry of the x86-64 architecture.
const (
	PageBits  = 12
	PageSize  = 1 << PageBits
	LevelBits = 9 // 512 entries per table level
	Levels    = 4 // PML4, PDPT, PD, PT
	PTESize   = 8
)

// PTE flag bits (subset of x86-64).
const (
	FlagPresent  = 1 << 0
	FlagWritable = 1 << 1
	FlagUser     = 1 << 2
	// FlagPS marks a PD entry as a 2 MB large-page leaf.
	FlagPS = 1 << 7
)

// Large-page geometry: a 2 MB page spans 512 base frames.
const (
	LargePageBits  = PageBits + LevelBits // 21
	LargePageSize  = 1 << LargePageBits
	FramesPerLarge = 1 << LevelBits
)

// PhysMem is the simulated physical memory. Only page-table words are
// actually stored (sparsely); data pages exist as allocated frames only,
// since the simulator models timing, not values.
type PhysMem struct {
	frames uint64
	words  map[uint64]uint64 // word-aligned phys addr -> 8-byte value
}

// NewPhysMem creates a physical memory of the given size in bytes,
// rounded down to whole frames.
func NewPhysMem(size uint64) *PhysMem {
	return &PhysMem{frames: size / PageSize, words: make(map[uint64]uint64)}
}

// Frames returns the number of physical frames.
func (m *PhysMem) Frames() uint64 { return m.frames }

// ReadWord returns the 8-byte word at the given physical address
// (which must be 8-byte aligned). Unwritten words read as zero.
func (m *PhysMem) ReadWord(addr uint64) uint64 {
	if addr%PTESize != 0 {
		panic(fmt.Sprintf("mmu: unaligned word read at %#x", addr))
	}
	return m.words[addr]
}

// WriteWord stores an 8-byte word at the given physical address.
func (m *PhysMem) WriteWord(addr, val uint64) {
	if addr%PTESize != 0 {
		panic(fmt.Sprintf("mmu: unaligned word write at %#x", addr))
	}
	if val == 0 {
		delete(m.words, addr)
		return
	}
	m.words[addr] = val
}

// WordCount returns the number of nonzero stored words (page-table
// footprint in PTEs), useful for tests and reports.
func (m *PhysMem) WordCount() int { return len(m.words) }

// Allocator hands out free physical frames. Placement is randomized to
// emulate the frame scatter of a long-running OS: consecutive virtual
// pages land on unrelated frames, so page-table walks and DRAM rows see
// realistic (non-sequential) access patterns.
type Allocator struct {
	mem     *PhysMem
	rng     *xrand.Rand
	used    frameSet
	n       uint64
	runNext uint64 // bump pointer for AllocRun (grows downward)
}

// NewAllocator creates an allocator over mem with a deterministic seed.
func NewAllocator(mem *PhysMem, seed uint64) *Allocator {
	return &Allocator{
		mem:  mem,
		rng:  xrand.New(seed),
		used: newFrameSet(mem.frames),
	}
}

// frameChunkBits sizes a frameSet chunk: 1<<15 frames, a 4 KiB bitmap.
const frameChunkBits = 15

type frameChunk [1 << frameChunkBits / 64]uint64

// frameSet is the allocator's used-frame bitset. It is split into
// chunks allocated on first use, so a sparse frame space (the 64 GiB
// large-page configuration) costs only the chunks it touches.
type frameSet struct {
	chunks []*frameChunk
}

func newFrameSet(frames uint64) frameSet {
	return frameSet{chunks: make([]*frameChunk, (frames+1<<frameChunkBits-1)>>frameChunkBits)}
}

func (s *frameSet) has(f uint64) bool {
	c := s.chunks[f>>frameChunkBits]
	return c != nil && c[f%(1<<frameChunkBits)/64]&(1<<(f%64)) != 0
}

func (s *frameSet) add(f uint64) {
	c := s.chunks[f>>frameChunkBits]
	if c == nil {
		c = new(frameChunk)
		s.chunks[f>>frameChunkBits] = c
	}
	c[f%(1<<frameChunkBits)/64] |= 1 << (f % 64)
}

// Alloc returns a free frame number, or ok=false when memory is
// exhausted. Frame 0 is never returned (kept as a null sentinel).
func (a *Allocator) Alloc() (pfn uint64, ok bool) {
	if a.n+1 >= a.mem.frames {
		return 0, false
	}
	for {
		pfn = 1 + a.rng.Uint64n(a.mem.frames-1)
		if !a.used.has(pfn) {
			a.used.add(pfn)
			a.n++
			return pfn, true
		}
	}
}

// Allocated returns the number of frames handed out.
func (a *Allocator) Allocated() uint64 { return a.n }

// AllocRun returns the base frame of n physically contiguous free
// frames, aligned to n (which must be a power of two), or ok=false when
// no such run exists. Runs are carved top-down from physical memory —
// the way an OS reserves a huge-page pool. Frames already taken by the
// randomized single-frame allocator are skipped; the search stops at
// the halfway point so 4 KB allocations always have room.
func (a *Allocator) AllocRun(n uint64) (base uint64, ok bool) {
	if n == 0 || n&(n-1) != 0 {
		return 0, false
	}
	if a.runNext == 0 {
		a.runNext = a.mem.frames
	}
	if a.runNext < a.mem.frames/2+n {
		return 0, false
	}
cand:
	for cand := (a.runNext - n) &^ (n - 1); cand >= a.mem.frames/2; cand -= n {
		for f := cand; f < cand+n; f++ {
			if a.used.has(f) {
				continue cand
			}
		}
		for f := cand; f < cand+n; f++ {
			a.used.add(f)
		}
		a.n += n
		a.runNext = cand
		return cand, true
	}
	return 0, false
}

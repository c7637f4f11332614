// Package workload defines the memory-trace format the GPU model
// executes and provides generators that reproduce the access patterns of
// the paper's twelve benchmarks (Table II).
//
// The paper runs real OpenCL/HCC binaries under gem5; this repo
// substitutes synthetic generators because the scheduling effects under
// study depend only on the *address streams* — how many distinct pages a
// SIMD instruction touches, how much those pages are reused, and how the
// streams from concurrent wavefronts interleave. Each generator
// reproduces the documented structure of its benchmark's dominant
// kernel. See DESIGN.md for the substitution rationale.
package workload

import (
	"fmt"
	"slices"
)

// MemInstr is one dynamic SIMD memory instruction: the virtual address
// each active lane accesses. Lanes is never empty.
type MemInstr struct {
	Lanes []uint64
	Write bool
}

// WavefrontTrace is the ordered memory-instruction stream of one
// wavefront, pinned to a compute unit. App distinguishes co-running
// applications in a merged multi-tenant trace (0 for single-app traces).
type WavefrontTrace struct {
	CU     int
	App    int
	Instrs []MemInstr
}

// Trace is a complete workload: every wavefront's instruction stream
// plus the metadata the experiments report.
type Trace struct {
	Name      string
	Irregular bool
	Footprint uint64 // bytes of virtual memory touched (Table II scale)
	// Apps names the co-running applications of a merged trace, indexed
	// by WavefrontTrace.App. Empty for single-app traces.
	Apps       []string
	Wavefronts []WavefrontTrace
}

// AppCount returns the number of co-running applications (at least 1).
func (t *Trace) AppCount() int {
	if len(t.Apps) > 0 {
		return len(t.Apps)
	}
	return 1
}

// Instructions returns the total SIMD memory instruction count.
func (t *Trace) Instructions() int {
	n := 0
	for i := range t.Wavefronts {
		n += len(t.Wavefronts[i].Instrs)
	}
	return n
}

// Validate checks structural invariants: at least one wavefront, every
// instruction has at least one lane, and CU indices are within [0, cus).
func (t *Trace) Validate(cus int) error {
	if len(t.Wavefronts) == 0 {
		return fmt.Errorf("workload %s: no wavefronts", t.Name)
	}
	for wi := range t.Wavefronts {
		w := &t.Wavefronts[wi]
		if w.CU < 0 || w.CU >= cus {
			return fmt.Errorf("workload %s: wavefront %d pinned to CU %d of %d", t.Name, wi, w.CU, cus)
		}
		if w.App < 0 || w.App >= t.AppCount() {
			return fmt.Errorf("workload %s: wavefront %d tagged app %d of %d", t.Name, wi, w.App, t.AppCount())
		}
		for ii := range w.Instrs {
			if len(w.Instrs[ii].Lanes) == 0 {
				return fmt.Errorf("workload %s: wavefront %d instr %d has no lanes", t.Name, wi, ii)
			}
		}
	}
	return nil
}

// Merge combines several single-app traces into one multi-tenant trace:
// part i's wavefronts keep their CU pinning (the apps time-share every
// CU, as in a MASK-style concurrent-application scenario), are tagged
// App=i, and have their virtual addresses offset into a private 1 TB
// region so the address spaces never collide.
func Merge(name string, parts ...*Trace) *Trace {
	const appStride = 1 << 40
	out := &Trace{Name: name}
	for i, p := range parts {
		out.Apps = append(out.Apps, p.Name)
		out.Footprint += p.Footprint
		out.Irregular = out.Irregular || p.Irregular
		delta := uint64(i) * appStride
		for _, w := range p.Wavefronts {
			nw := WavefrontTrace{CU: w.CU, App: i, Instrs: make([]MemInstr, len(w.Instrs))}
			for ii, in := range w.Instrs {
				lanes := make([]uint64, len(in.Lanes))
				for li, va := range in.Lanes {
					lanes[li] = va + delta
				}
				nw.Instrs[ii] = MemInstr{Lanes: lanes, Write: in.Write}
			}
			out.Wavefronts = append(out.Wavefronts, nw)
		}
	}
	return out
}

// TouchedPages returns the distinct virtual page numbers the trace
// touches, in ascending order, for premapping and footprint reporting.
func (t *Trace) TouchedPages(pageBits uint) []uint64 {
	// Lanes repeat pages heavily (73,728 lanes touch 100-4,300 pages in
	// the default-size Table II traces), so a direct-mapped filter of
	// recently seen pages drops most repeats before the sort. A repeat
	// whose slot another page took meanwhile is appended again, and
	// Compact removes it.
	const filterBits = 12
	var seen [1 << filterBits]uint64 // vpn+1, so the zero slot is empty
	var pages []uint64
	for wi := range t.Wavefronts {
		for ii := range t.Wavefronts[wi].Instrs {
			for _, va := range t.Wavefronts[wi].Instrs[ii].Lanes {
				vpn := va >> pageBits
				slot := &seen[(vpn*0x9e3779b97f4a7c15)>>(64-filterBits)]
				if *slot != vpn+1 {
					*slot = vpn + 1
					pages = append(pages, vpn)
				}
			}
		}
	}
	slices.Sort(pages)
	return slices.Compact(pages)
}

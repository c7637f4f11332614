package core

import (
	"fmt"

	"gpuwalk/internal/xrand"
)

// This file holds the linear reference policies: the executable
// specification that the indexed production schedulers (index.go,
// fairness.go) are tested against. Each one rescans the whole pending
// buffer on every arrival and selection, the direct reading of the
// paper's Figure 7.

// linear is the slice-style interface of the reference policies.
type linear interface {
	Name() string
	// OnArrival is called after r has been appended to pending (so
	// pending includes r). Policies that score requests update state
	// here.
	OnArrival(r *Request, pending []*Request)
	// Select returns the index within pending of the request to service
	// next. It is only called with a non-empty pending slice; the
	// driver removes the request after Select returns.
	Select(pending []*Request) int
}

// passedCounts is the reference's eager aging state: for each pending
// request, how many younger requests were dispatched past it.
type passedCounts map[*Request]uint64

// refDriver adapts a linear policy to Scheduler: append on Admit,
// order-preserving splice on Pick. It also keeps the eager aging
// counts the policies read.
type refDriver struct {
	s       linear
	pending []*Request
	passed  passedCounts
}

func newRefDriver(s linear) *refDriver {
	d := &refDriver{s: s, passed: passedCounts{}}
	switch p := s.(type) {
	case *SIMTAware:
		p.passed = d.passed
	case *CUFair:
		p.passed = d.passed
	}
	return d
}

// Name implements Scheduler.
func (d *refDriver) Name() string { return d.s.Name() }

// Admit implements Scheduler.
func (d *refDriver) Admit(r *Request) {
	d.pending = append(d.pending, r)
	d.s.OnArrival(r, d.pending)
}

// Pick implements Scheduler: every request older than the chosen one
// has been passed once more. The chosen request's count is dropped, so
// a request re-admitted after a fault starts from zero, as the index's
// admission stamp does.
func (d *refDriver) Pick() *Request {
	i := d.s.Select(d.pending)
	r := d.pending[i]
	for _, p := range d.pending {
		if p.Seq < r.Seq {
			d.passed[p]++
		}
	}
	delete(d.passed, r)
	d.pending = append(d.pending[:i], d.pending[i+1:]...)
	return r
}

// PendingLen implements Scheduler.
func (d *refDriver) PendingLen() int { return len(d.pending) }

// NewReference returns the linear reference implementation of a
// built-in policy behind a refDriver. It panics on an unknown kind.
func NewReference(kind Kind, opt Options) Scheduler {
	aging := opt.AgingThreshold
	if aging == 0 {
		aging = DefaultAging
	}
	var s linear
	switch kind {
	case KindFCFS:
		s = FCFS{}
	case KindRandom:
		s = NewRandom(opt.Seed)
	case KindSJF:
		s = &SIMTAware{SJF: true, AgingThreshold: aging, name: string(KindSJF)}
	case KindBatch:
		s = &SIMTAware{Batching: true, AgingThreshold: aging, name: string(KindBatch)}
	case KindSIMTAware:
		s = &SIMTAware{SJF: true, Batching: true, AgingThreshold: aging, name: string(KindSIMTAware)}
	case KindCUFair:
		s = &CUFair{AgingThreshold: aging}
	default:
		panic(fmt.Sprintf("core: unknown scheduler kind %q", kind))
	}
	return newRefDriver(s)
}

// FCFS services requests strictly in arrival order (the paper's
// baseline). The zero value is ready to use.
type FCFS struct{}

// Name implements linear.
func (FCFS) Name() string { return string(KindFCFS) }

// OnArrival implements linear; FCFS keeps no state.
func (FCFS) OnArrival(*Request, []*Request) {}

// LastDecision implements DecisionReporter: FCFS has only one rule.
func (FCFS) LastDecision() Decision { return DecisionFCFS }

// Select implements linear: the oldest pending request. The IOMMU
// keeps pending in arrival order, so that is index 0.
func (FCFS) Select(pending []*Request) int {
	best := 0
	for i := 1; i < len(pending); i++ {
		if pending[i].Seq < pending[best].Seq {
			best = i
		}
	}
	return best
}

// Random picks a uniformly random pending request — the paper's
// cautionary strawman, which slows irregular applications by ~26%.
type Random struct {
	rng *xrand.Rand
}

// NewRandom returns a Random scheduler with a deterministic seed.
func NewRandom(seed uint64) *Random { return &Random{rng: xrand.New(seed)} }

// Name implements linear.
func (*Random) Name() string { return string(KindRandom) }

// OnArrival implements linear; Random keeps no per-request state.
func (*Random) OnArrival(*Request, []*Request) {}

// LastDecision implements DecisionReporter.
func (*Random) LastDecision() Decision { return DecisionRandom }

// Select implements linear.
func (r *Random) Select(pending []*Request) int {
	return r.rng.Intn(len(pending))
}

// SIMTAware is the paper's scheduler. With both SJF and Batching set it
// is the full proposal; with only one set it is the corresponding
// ablation.
//
// Scoring (OnArrival): the new request's PWC estimate is added to the
// running score of its instruction, and every pending request of that
// instruction (including the new one) is updated to the new total.
//
// Selection (Select), in priority order:
//  1. starvation: a request passed by AgingThreshold younger requests
//     (oldest first);
//  2. batching: the oldest pending request of the most recently
//     scheduled instruction;
//  3. shortest-job-first: the lowest-score request (oldest on ties);
//     without SJF, the oldest request.
type SIMTAware struct {
	SJF            bool
	Batching       bool
	AgingThreshold uint64

	name         string
	passed       passedCounts // eager aging counts, kept by refDriver
	lastInstr    InstrID
	haveLast     bool
	lastDecision Decision

	// Stats.
	BatchHits  uint64 // selections made by the batching rule
	SJFPicks   uint64 // selections made by the score rule
	AgingPicks uint64 // selections forced by starvation avoidance
	Rescores   uint64 // OnArrival same-instruction score updates
}

// Name implements linear.
func (s *SIMTAware) Name() string {
	if s.name != "" {
		return s.name
	}
	return string(KindSIMTAware)
}

// OnArrival implements linear: action 1-a happened in the IOMMU
// (r.Est is set from the PWC probe); this is action 1-b, the scan that
// folds the estimate into the instruction's shared score.
func (s *SIMTAware) OnArrival(r *Request, pending []*Request) {
	prev := 0
	for _, p := range pending {
		if p != r && p.Instr == r.Instr {
			prev = p.Score
			break
		}
	}
	score := prev + r.Est
	for _, p := range pending {
		if p.Instr == r.Instr {
			if p != r && p.Score != score {
				s.Rescores++
			}
			p.Score = score
		}
	}
}

// Select implements linear (action 2-a).
func (s *SIMTAware) Select(pending []*Request) int {
	best := -1
	pick := func(i int) { best = i }

	// 1. Starvation avoidance.
	if s.AgingThreshold > 0 {
		for i, p := range pending {
			if s.passed[p] >= s.AgingThreshold &&
				(best == -1 || p.Seq < pending[best].Seq) {
				pick(i)
			}
		}
		if best >= 0 {
			s.AgingPicks++
			s.lastDecision = DecisionAging
			return s.commit(pending, best)
		}
	}

	// 2. Batching: continue the most recently scheduled instruction.
	if s.Batching && s.haveLast {
		for i, p := range pending {
			if p.Instr == s.lastInstr &&
				(best == -1 || p.Seq < pending[best].Seq) {
				pick(i)
			}
		}
		if best >= 0 {
			s.BatchHits++
			s.lastDecision = DecisionBatch
			return s.commit(pending, best)
		}
	}

	// 3. Shortest-job-first by score, oldest on ties; or pure FCFS.
	best = 0
	for i := 1; i < len(pending); i++ {
		p, b := pending[i], pending[best]
		if s.SJF {
			if p.Score < b.Score || (p.Score == b.Score && p.Seq < b.Seq) {
				best = i
			}
		} else if p.Seq < b.Seq {
			best = i
		}
	}
	if s.SJF {
		s.SJFPicks++
		s.lastDecision = DecisionSJF
	} else {
		s.lastDecision = DecisionFCFS
	}
	return s.commit(pending, best)
}

// LastDecision implements DecisionReporter.
func (s *SIMTAware) LastDecision() Decision { return s.lastDecision }

// commit finalizes a selection: remembers the instruction for batching
// and removes the chosen request's estimate from its instruction's
// shared score so the survivors keep the paper's "sum over pending
// requests" semantics. The driver ages the requests passed over.
func (s *SIMTAware) commit(pending []*Request, idx int) int {
	chosen := pending[idx]
	s.lastInstr = chosen.Instr
	s.haveLast = true
	for _, p := range pending {
		if p.Instr == chosen.Instr && p != chosen {
			p.Score -= chosen.Est
		}
	}
	return idx
}

// CUFair is the linear reference for IndexedCUFair, an extension
// beyond the paper. Section VI/VII of the paper
// points at memory-controller QoS research (ATLAS, TCM, PAR-BS, DASH)
// and explicitly leaves "different flavors of page walk scheduling for
// both performance and QoS" as follow-on work. CUFair is one such
// flavor: it keeps the SIMT-aware scheduler's same-instruction batching
// (which protects per-instruction completion) and shortest-job-first
// scoring, but arbitrates *across compute units* round-robin, so a CU
// whose wavefronts issue translation-light instructions cannot
// monopolize the walkers indefinitely.
//
// Selection order:
//  1. starvation avoidance (as SIMT-aware);
//  2. batching: the oldest pending request of the most recently
//     scheduled instruction, to preserve batch integrity;
//  3. fairness: the next CU after the last-served one (round-robin over
//     CUs with pending requests), and within that CU the lowest-score
//     request, oldest on ties.
type CUFair struct {
	AgingThreshold uint64
	passed         passedCounts // eager aging counts, kept by refDriver

	lastInstr    InstrID
	haveLast     bool
	lastCU       int
	served       bool // lastCU is only meaningful after the first pick
	lastDecision Decision

	// Stats.
	BatchHits  uint64
	AgingPicks uint64
	FairPicks  uint64
}

// Name implements linear.
func (s *CUFair) Name() string { return string(KindCUFair) }

// OnArrival implements linear with the same instruction-score
// maintenance as SIMT-aware (action 1-b of Figure 7).
func (s *CUFair) OnArrival(r *Request, pending []*Request) {
	prev := 0
	for _, p := range pending {
		if p != r && p.Instr == r.Instr {
			prev = p.Score
			break
		}
	}
	score := prev + r.Est
	for _, p := range pending {
		if p.Instr == r.Instr {
			p.Score = score
		}
	}
}

// Select implements linear.
func (s *CUFair) Select(pending []*Request) int {
	// 1. Starvation avoidance.
	if s.AgingThreshold > 0 {
		best := -1
		for i, p := range pending {
			if s.passed[p] >= s.AgingThreshold && (best == -1 || p.Seq < pending[best].Seq) {
				best = i
			}
		}
		if best >= 0 {
			s.AgingPicks++
			s.lastDecision = DecisionAging
			return s.commit(pending, best)
		}
	}

	// 2. Batch integrity.
	if s.haveLast {
		best := -1
		for i, p := range pending {
			if p.Instr == s.lastInstr && (best == -1 || p.Seq < pending[best].Seq) {
				best = i
			}
		}
		if best >= 0 {
			s.BatchHits++
			s.lastDecision = DecisionBatch
			return s.commit(pending, best)
		}
	}

	// 3. Round-robin across CUs: the CU with the smallest index strictly
	// greater than lastCU that has pending work, wrapping around.
	cu := s.nextCU(pending)
	best := -1
	for i, p := range pending {
		if p.CU != cu {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		b := pending[best]
		if p.Score < b.Score || (p.Score == b.Score && p.Seq < b.Seq) {
			best = i
		}
	}
	s.FairPicks++
	s.lastDecision = DecisionFair
	return s.commit(pending, best)
}

// LastDecision implements DecisionReporter.
func (s *CUFair) LastDecision() Decision { return s.lastDecision }

// nextCU picks the round-robin successor of lastCU among CUs that have
// pending requests.
func (s *CUFair) nextCU(pending []*Request) int {
	last := s.lastCU
	if !s.served {
		last = -1
	}
	bestWrap, bestAbove := -1, -1
	for _, p := range pending {
		if p.CU > last {
			if bestAbove == -1 || p.CU < bestAbove {
				bestAbove = p.CU
			}
		} else if bestWrap == -1 || p.CU < bestWrap {
			bestWrap = p.CU
		}
	}
	if bestAbove >= 0 {
		return bestAbove
	}
	return bestWrap
}

func (s *CUFair) commit(pending []*Request, idx int) int {
	chosen := pending[idx]
	s.lastInstr = chosen.Instr
	s.haveLast = true
	s.lastCU = chosen.CU
	s.served = true
	for _, p := range pending {
		if p.Instr == chosen.Instr && p != chosen {
			p.Score -= chosen.Est
		}
	}
	return idx
}

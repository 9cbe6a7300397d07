package core

import (
	"fmt"
	"math/rand"

	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/workload"
)

// Bounds are the three reuse bounds of Table II: the tensor-count slack
// above perfect balance a GPU may absorb in exchange for reuse, indexed by
// ReusePattern.BoundIndex. Larger values favour data reuse; zero forces
// strict balance.
type Bounds [3]int

// String implements fmt.Stringer.
func (b Bounds) String() string { return fmt.Sprintf("(%d,%d,%d)", b[0], b[1], b[2]) }

// BoundsPredictor produces per-stage reuse bounds from the stage's data
// characteristics. The autotune package provides the paper's pre-trained
// Random Forest predictor.
type BoundsPredictor interface {
	PredictBounds(f workload.Features) Bounds
}

// Scheduler is the MICCO heuristic scheduler. Construct with NewNaive
// (all bounds zero — the paper's MICCO-naive), NewFixed (constant bounds),
// or NewOptimal (bounds predicted per stage — the paper's MICCO-optimal).
type Scheduler struct {
	name      string
	fixed     Bounds
	predictor BoundsPredictor
	bounds    Bounds // active for the current stage
	rng       *rand.Rand
	// candi is the reusable candidate queue (the paper's candiQueue).
	candi []int
	// comp and mem hold Algorithm 2's scores for candi, index for index:
	// the device clock and the projected memory. They grow to the cluster
	// size once and are reused for every pair.
	comp, mem []float64
	// patterns histograms the local reuse pattern of every assigned pair.
	patterns [4]int64
	// evictionPolicyUses counts assignments decided by the
	// memory-eviction-sensitive policy.
	evictionPolicyUses int64
}

// PatternCounts returns how many assigned pairs fell into each local reuse
// pattern (indexed by ReusePattern), a diagnostic of how much deliberate
// reuse the scheduler found.
func (s *Scheduler) PatternCounts() [4]int64 { return s.patterns }

// EvictionPolicyUses returns how many assignments were decided by the
// memory-eviction-sensitive policy rather than the computation-centric one.
func (s *Scheduler) EvictionPolicyUses() int64 { return s.evictionPolicyUses }

// ResetStats clears the diagnostic counters.
func (s *Scheduler) ResetStats() {
	s.patterns = [4]int64{}
	s.evictionPolicyUses = 0
}

// NewNaive returns MICCO with all reuse bounds fixed at zero.
func NewNaive() *Scheduler {
	s := NewFixed(Bounds{})
	s.name = "MICCO-naive"
	return s
}

// NewFixed returns MICCO with constant reuse bounds b.
func NewFixed(b Bounds) *Scheduler {
	return &Scheduler{
		name:  fmt.Sprintf("MICCO%s", b),
		fixed: b,
		rng:   rand.New(rand.NewSource(1)),
	}
}

// NewOptimal returns MICCO with per-stage bounds from predictor p.
func NewOptimal(p BoundsPredictor) *Scheduler {
	return &Scheduler{
		name:      "MICCO-optimal",
		predictor: p,
		rng:       rand.New(rand.NewSource(1)),
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// ActiveBounds returns the bounds in force for the current stage.
func (s *Scheduler) ActiveBounds() Bounds { return s.bounds }

// BeginStage implements sched.Scheduler: it refreshes the active reuse
// bounds, invoking the predictor's online inference when configured
// (step 2 of the paper's workflow, Fig. 6).
func (s *Scheduler) BeginStage(ctx *sched.Context) {
	if s.predictor != nil {
		s.bounds = s.predictor.PredictBounds(ctx.Features)
		return
	}
	s.bounds = s.fixed
}

// Assign implements sched.Scheduler with Algorithm 1: classify the pair's
// local reuse pattern, fill candiQueue with available GPUs under the
// pattern's reuse bound, then let Algorithm 2 pick the final device.
//
// Residency is read through the cluster's constant-time index: two mask
// probes answer every holder question, candidate filling iterates set bits,
// and all scratch space (candiQueue and Algorithm 2's score slices) is
// reused across calls — the whole placement path performs zero allocations
// when observability is off. Candidate order matches the former per-device
// scan (ascending device ID; step II lists A-holders before B-only
// holders), so random tie-breaks draw identically to the scan-path
// reference.
func (s *Scheduler) Assign(p workload.Pair, ctx *sched.Context) int {
	s.candi = s.candi[:0]
	ma := ctx.HoldersMask(p.A.ID)
	mb := ctx.HoldersMask(p.B.ID)
	s.patterns[ClassifyMasks(ma, mb)]++
	// boundIdx records which step's reuse bound gated the candidate set
	// that survives to Algorithm 2; -1 means the defensive fallback fired.
	boundIdx := -1

	// Step I (Alg. 1 lines 4-7): twoRepeatedSame — GPUs holding both
	// tensors, if within reuse bound 1's allowed imbalance. Iterating ma
	// and filtering on mb.Has enumerates the intersection in ascending
	// device order without materializing it (DevSet intersection of wide
	// sets would allocate).
	if ma.Intersects(mb) {
		lim := s.bounds[0] + ctx.BalanceNum
		for it := ma.First(); it >= 0; it = ma.NextFrom(it + 1) {
			if mb.Has(it) && ctx.StageLoad[it] < lim {
				s.candi = append(s.candi, it)
			}
		}
		if len(s.candi) > 0 {
			boundIdx = 0
		}
	}

	// Step II (lines 8-14): twoRepeatedDiff / oneRepeated — GPUs holding
	// either tensor, under reuse bound 2. Also the fallback when every
	// both-holder was unavailable.
	if len(s.candi) == 0 && !(ma.Empty() && mb.Empty()) {
		lim := s.bounds[1] + ctx.BalanceNum
		for it := ma.First(); it >= 0; it = ma.NextFrom(it + 1) {
			if ctx.StageLoad[it] < lim {
				s.candi = append(s.candi, it)
			}
		}
		for it := mb.First(); it >= 0; it = mb.NextFrom(it + 1) {
			if !ma.Has(it) && ctx.StageLoad[it] < lim {
				s.candi = append(s.candi, it)
			}
		}
		if len(s.candi) > 0 {
			boundIdx = 1
		}
	}

	// Step III (lines 15-18): twoNew, or nothing available above — any live
	// GPU under reuse bound 3. Steps I and II need no down-device filter:
	// a failed device's residency is dropped the moment it fails, so it can
	// never appear in a holder mask. Fault-free runs skip the per-device
	// down probe altogether.
	if len(s.candi) == 0 {
		lim := s.bounds[2] + ctx.BalanceNum
		down := !ctx.Down.Empty()
		for it, load := range ctx.StageLoad[:ctx.NumGPU] {
			if load < lim && !(down && ctx.Down.Has(it)) {
				s.candi = append(s.candi, it)
			}
		}
		if len(s.candi) > 0 {
			boundIdx = 2
		}
	}

	// Defensive fallback: with non-negative bounds and BalanceNum =
	// ceil(numTensor/numGPU) at least one GPU is always below the step-III
	// limit mid-stage, but guard against pathological bound settings (and
	// stages whose recovery re-placements pushed every survivor past the
	// limit). Pick the least-loaded live device.
	if len(s.candi) == 0 {
		best := -1
		for it := 0; it < ctx.NumGPU; it++ {
			if ctx.Down.Has(it) {
				continue
			}
			if best < 0 || ctx.StageLoad[it] < ctx.StageLoad[best] {
				best = it
			}
		}
		if best < 0 {
			best = 0 // no live device: unreachable, the engine errors first
		}
		s.candi = append(s.candi, best)
	}

	if rec := ctx.Decision; rec != nil {
		rec.BoundIndex = boundIdx
		if boundIdx >= 0 {
			rec.Bound = s.bounds[boundIdx]
		}
	}
	return s.assignFromQueue(&p, ctx, ma, mb)
}

// assignFromQueue is Algorithm 2: detect projected oversubscription among
// the candidates; without it, pick least compute (memory as tie-break);
// with it, pick most free memory (compute as tie-break). Remaining ties
// break uniformly at random, as in the paper. The pair's holder masks ride
// along so memory projections need no further residency lookups.
//
// One pass reads each candidate device once and caches both scores; the
// policy choice, the decision record and the two min-filters then run on
// the cached scores.
func (s *Scheduler) assignFromQueue(p *workload.Pair, ctx *sched.Context, ma, mb gpusim.DevSet) int {
	n := len(s.candi)
	if cap(s.comp) < n {
		size := max(n, ctx.NumGPU)
		s.comp, s.mem = make([]float64, size), make([]float64, size)
	}
	// "Least computation" is the candidate's live queue position: the
	// device clock realigns at every stage barrier and already prices the
	// kernels and memory operations of this stage's assignments, matching
	// the cost model of the paper's mapping analysis (Fig. 4).
	comp, mem := s.comp[:n], s.mem[:n]
	fp := sched.FootprintOf(p)
	evict := false
	for i, id := range s.candi {
		d := ctx.Cluster.Device(id)
		m := fp.Projected(d.MemUsed(), ma.Has(id), mb.Has(id))
		comp[i], mem[i] = d.Clock(), float64(m)
		// Per-device capacity: a fault plan's mem-shrink can hold one
		// device's pool below the configured size.
		if m > d.Capacity() {
			evict = true
		}
	}
	primary, secondary := comp, mem
	if evict {
		s.evictionPolicyUses++
		primary, secondary = mem, comp
	}
	if rec := ctx.Decision; rec != nil {
		if evict {
			rec.Policy = "memory-eviction"
		} else {
			rec.Policy = "compute-centric"
		}
		for i, id := range s.candi {
			rec.Candidates = append(rec.Candidates, obs.CandidateScore{Device: id, Score: primary[i]})
		}
	}
	// Keep the candidates attaining the minimum of (primary, secondary) in
	// lexicographic order — the primary min-filter followed by the
	// secondary one — compacted in place, order preserved (the write index
	// never passes the read index).
	sel := 0
	var bestP, bestS float64
	for i, id := range s.candi {
		x, y := primary[i], secondary[i]
		switch {
		case sel == 0 || x < bestP || (x == bestP && y < bestS):
			bestP, bestS = x, y
			s.candi[0], sel = id, 1
		case x == bestP && y == bestS:
			s.candi[sel] = id
			sel++
		}
	}
	if sel == 1 {
		return s.candi[0]
	}
	return s.candi[s.rng.Intn(sel)]
}

// Package dse implements GNNavigator's application-driven design space
// exploration (§3.3, Fig. 4): the design space spanned by the backend's
// reconfigurable settings, a DFS explorer with constraint pruning driven
// by the gray-box estimator, Pareto-front extraction over ⟨T, Γ, Acc⟩,
// and the priority-weighted decision maker that turns the front into
// training guidelines (Bal, Ex-TM, Ex-MA, Ex-TA).
package dse

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/estimator"
	"gnnavigator/internal/hw"
	"gnnavigator/internal/tensor"
)

// Space enumerates the reconfigurable settings of Fig. 3 that the explorer
// searches over. Empty slices pin the corresponding knob to the base
// config's value.
type Space struct {
	Samplers    []backend.SamplerKind
	BatchSizes  []int
	FanoutSets  [][]int
	WalkLengths []int
	CacheRatios []float64
	Policies    []cache.Policy
	// Precisions varies the feature-plane storage width (Cat. 2's second
	// transmission knob): compact precisions shrink Eq. 6's transfer
	// payload and stretch a fixed Γ_cache budget over more rows, at a
	// quantization accuracy cost the estimator measures.
	Precisions []cache.Precision
	BiasRates  []float64
	Hiddens    []int
	// LayerCounts varies model depth (Fig. 3's "Model Layers" knob). For
	// hop-list samplers only fanout sets whose length matches the depth
	// are admitted.
	LayerCounts []int
	// DeviceCounts varies the data-parallel device count (Cat. 5's
	// scale-out knob): K devices divide the simulator's per-device terms
	// by K but add halo-exchange and all-reduce interconnect traffic.
	// Config.Validate prunes counts the base platform cannot host (and
	// non-power-of-two counts) automatically.
	DeviceCounts []int
}

// DefaultSpace is the grid used throughout the evaluation. It subsumes
// every template: PyG, PaGraph (full/low), 2PGraph, SAINT and FastGCN all
// appear as points in it.
func DefaultSpace() Space {
	return Space{
		Samplers:    []backend.SamplerKind{backend.SamplerSAGE, backend.SamplerSAINT},
		BatchSizes:  []int{512, 1024, 2048},
		FanoutSets:  [][]int{{5, 5}, {10, 5}, {15, 8}, {25, 10}},
		WalkLengths: []int{8, 12},
		CacheRatios: []float64{0, 0.08, 0.15, 0.3, 0.45},
		// Opt last: the offline-optimal upper bound. Config.Validate
		// rejects Opt with cache-aware bias, so forEachLeaf's Validate
		// filter prunes those combos automatically.
		Policies:   []cache.Policy{cache.Static, cache.Freq, cache.FIFO, cache.LRU, cache.Opt},
		Precisions: cache.Precisions(),
		BiasRates:  []float64{0, 0.9},
		Hiddens:    []int{32, 64},
		// Multi-device counts survive only on platforms that host them
		// (the Validate filter prunes the rest), so the default grid is
		// safe on single-device platforms too.
		DeviceCounts: []int{1, 2, 4},
	}
}

// IsZero reports whether no dimension of the space is set at all — the
// genuine zero value, as opposed to a deliberately narrow space that
// pins most knobs and varies one (e.g. only CacheRatios). Callers that
// substitute DefaultSpace for "no space given" must test this, not
// Size(), which is 1 for any single-point space.
func (s Space) IsZero() bool {
	return len(s.Samplers) == 0 && len(s.BatchSizes) == 0 &&
		len(s.FanoutSets) == 0 && len(s.WalkLengths) == 0 &&
		len(s.CacheRatios) == 0 && len(s.Policies) == 0 &&
		len(s.Precisions) == 0 && len(s.BiasRates) == 0 &&
		len(s.Hiddens) == 0 && len(s.LayerCounts) == 0 &&
		len(s.DeviceCounts) == 0
}

// Size returns an upper bound on the number of leaf configurations.
func (s Space) Size() int {
	n := 1
	mul := func(k int) {
		if k > 0 {
			n *= k
		}
	}
	mul(len(s.Samplers))
	mul(len(s.BatchSizes))
	mul(len(s.FanoutSets) + len(s.WalkLengths))
	mul(len(s.CacheRatios))
	mul(len(s.Policies))
	mul(len(s.Precisions))
	mul(len(s.BiasRates))
	mul(len(s.Hiddens))
	mul(len(s.LayerCounts))
	mul(len(s.DeviceCounts))
	return n
}

// Constraints are the runtime constraints of Fig. 4. Zero values mean
// unconstrained.
type Constraints struct {
	MaxTimeSec  float64
	MaxMemoryGB float64
	MinAccuracy float64
}

// finite reports whether every metric of p is an ordinary float (not
// NaN, not ±Inf).
func finite(p estimator.Prediction) bool {
	for _, v := range [...]float64{p.TimeSec, p.MemoryGB, p.Accuracy} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Satisfied reports whether a prediction meets the constraints (including
// device feasibility). Non-finite predictions are infeasible by fiat: a
// NaN or Inf metric cannot be compared against a budget, and letting one
// survive into the candidate set would poison the decision maker's
// min-max normalization (every score becomes NaN and no candidate can
// ever win).
func (c Constraints) Satisfied(p estimator.Prediction) bool {
	if !p.Feasible {
		return false
	}
	if !finite(p) {
		return false
	}
	if c.MaxTimeSec > 0 && p.TimeSec > c.MaxTimeSec {
		return false
	}
	if c.MaxMemoryGB > 0 && p.MemoryGB > c.MaxMemoryGB {
		return false
	}
	if c.MinAccuracy > 0 && p.Accuracy < c.MinAccuracy {
		return false
	}
	return true
}

// Priority names the guideline emphases of Table 1.
type Priority string

// Guideline priorities.
const (
	Balance        Priority = "balance" // Bal: equal emphasis on T, Γ, Acc
	TimeMemory     Priority = "ex-tm"   // Ex-TM: emphasize time and memory
	MemoryAccuracy Priority = "ex-ma"   // Ex-MA: emphasize memory and accuracy
	TimeAccuracy   Priority = "ex-ta"   // Ex-TA: emphasize time and accuracy
)

// Priorities lists all guideline emphases in Table 1 order.
func Priorities() []Priority {
	return []Priority{Balance, TimeMemory, MemoryAccuracy, TimeAccuracy}
}

// Weights returns the (time, memory, accuracy) emphasis of the priority.
func (p Priority) Weights() (wT, wG, wA float64) {
	switch p {
	case TimeMemory:
		return 1, 1, 0.25
	case MemoryAccuracy:
		return 0.25, 1, 1
	case TimeAccuracy:
		return 1, 0.25, 1
	default: // Balance
		return 1, 1, 1
	}
}

// accGuardBand is the maximum accuracy sacrifice any guideline may make
// relative to the best candidate. The paper's "extreme" guidelines trade
// accuracy only marginally ("a negligible drop in Acc by 2.8%"); without
// this guard a time-emphasizing priority could pick a degenerate config
// that barely learns.
const accGuardBand = 0.1

// Point pairs a candidate configuration with its predicted performance.
type Point struct {
	Cfg  backend.Config
	Pred estimator.Prediction
}

// Result summarizes one exploration.
type Result struct {
	// Candidates are all constraint-satisfying evaluated points.
	Candidates []Point
	// Pareto is the non-dominated subset over (T, Γ, -Acc).
	Pareto []Point
	// Evaluated counts estimator queries; Pruned counts leaf configs
	// skipped by constraint pruning without evaluation.
	Evaluated, Pruned int
}

// Explorer runs the DFS of Fig. 4.
type Explorer struct {
	Est         *estimator.Estimator
	Space       Space
	Constraints Constraints
	// DisablePruning turns constraint pruning off (ablation).
	DisablePruning bool
	// Ctx, when non-nil, cancels the exploration: the leaf-evaluation
	// fan-out checks it before every estimator query and Explore returns
	// the context's error. nil means no cancellation.
	Ctx context.Context
}

// forEachLeaf enumerates, in DFS order, every admissible leaf
// configuration of the subtree under one (cache ratio, precision) pair:
// the inner-loop admission rules (fanout/depth match for hop-list
// samplers, collapsing duplicate no-cache policy×bias combos,
// node-wise-only cache bias, and Config.Validate) all live here, so
// leaf evaluation and prune accounting count exactly the same set of
// configurations. Precision is not collapsed at ratio 0: an uncached
// run still transfers (and quantizes) every row, so the precisions
// remain distinct designs.
func (s Space) forEachLeaf(base backend.Config, ratio float64, prec cache.Precision, yield func(backend.Config)) {
	for _, smp := range s.Samplers {
		for _, b0 := range s.BatchSizes {
			shapes := len(s.FanoutSets)
			if smp == backend.SamplerSAINT {
				shapes = len(s.WalkLengths)
			}
			for sh := 0; sh < shapes; sh++ {
				for _, layers := range s.LayerCounts {
					for _, pol := range s.Policies {
						for _, bias := range s.BiasRates {
							for _, hidden := range s.Hiddens {
								for _, dev := range s.DeviceCounts {
									cfg := base
									cfg.Sampler = smp
									cfg.BatchSize = b0
									cfg.CacheRatio = ratio
									cfg.Precision = prec
									cfg.Hidden = hidden
									cfg.Layers = layers
									cfg.Devices = dev
									if smp == backend.SamplerSAINT {
										cfg.Fanouts = nil
										cfg.WalkLength = s.WalkLengths[sh]
									} else {
										cfg.Fanouts = s.FanoutSets[sh]
										cfg.WalkLength = 0
										if len(cfg.Fanouts) != cfg.Layers {
											continue
										}
									}
									if ratio == 0 {
										cfg.CachePolicy = cache.None
										cfg.BiasRate = 0
										if pol != s.Policies[0] || bias != s.BiasRates[0] {
											continue // collapse duplicate no-cache combos
										}
									} else {
										cfg.CachePolicy = pol
										cfg.BiasRate = bias
										if bias > 0 && smp != backend.SamplerSAGE {
											continue // cache-aware bias is node-wise only
										}
									}
									// Validate prunes device counts the platform
									// cannot host (and Opt at K > 1).
									if cfg.Validate() != nil {
										continue
									}
									yield(cfg)
								}
							}
						}
					}
				}
			}
		}
	}
}

// countLeaves reports exactly how many leaves forEachLeaf would yield
// under one (cache ratio, precision) pair — the number of estimator
// queries pruning the subtree saves. Counting through the shared
// enumerator (instead of multiplying dimension sizes) keeps Evaluated +
// Pruned invariant against the pruning-disabled total.
func (s Space) countLeaves(base backend.Config, ratio float64, prec cache.Precision) int {
	n := 0
	s.forEachLeaf(base, ratio, prec, func(backend.Config) { n++ })
	return n
}

// Explore traverses the design space depth-first from the base config
// (which supplies dataset, platform, model kind, layers, epochs, LR).
// Dimension order puts CacheRatio early so the memory lower bound can cut
// whole subtrees, mirroring the paper's pruning discussion.
//
// Explore runs in two stages: a serial leaf generator walks the space,
// cutting (and exactly counting) subtrees the cache-memory lower bound
// already rules out; the surviving leaves are then evaluated on
// tensor.Parallelism() workers. The estimator is safe for concurrent
// Predict use and each result lands in its leaf's index slot, so the
// output is deterministic — identical to the serial traversal at any
// worker count.
func (e *Explorer) Explore(base backend.Config) (*Result, error) {
	if e.Est == nil {
		return nil, fmt.Errorf("dse: explorer needs a trained estimator")
	}
	ds, err := dataset.Load(base.Dataset)
	if err != nil {
		return nil, err
	}
	plat, ok := hw.Profile(base.Platform)
	if !ok {
		return nil, fmt.Errorf("dse: unknown platform %q", base.Platform)
	}
	s := e.normalizedSpace(base)
	res := &Result{}

	var leaves []backend.Config
	for _, ratio := range s.CacheRatios {
		for _, prec := range s.Precisions {
			// Constraint pruning: Γ_cache alone is a lower bound on Γ for
			// the whole subtree under this (cache ratio, precision) pair
			// (Eq. 9 is a sum of non-negative parts). The bound is
			// precision-aware: the rows a float32-denominated budget buys
			// at this precision, each at its storage row bytes — so a
			// compact precision can keep a subtree a float32 budget would
			// cut. If it already violates the memory budget or the device
			// capacity, the subtree cannot contain a satisfying candidate.
			if !e.DisablePruning {
				rows := prec.EffectiveCacheRows(ratio, float64(ds.FullVertices), ds.FullFeatDim)
				cacheBytes := rows * float64(prec.StorageRowBytes(ds.FullFeatDim))
				overBudget := e.Constraints.MaxMemoryGB > 0 && cacheBytes/1e9 > e.Constraints.MaxMemoryGB
				overDevice := cacheBytes > plat.Device.MemCapacityBytes
				if overBudget || overDevice {
					res.Pruned += s.countLeaves(base, ratio, prec)
					continue
				}
			}
			s.forEachLeaf(base, ratio, prec, func(cfg backend.Config) {
				leaves = append(leaves, cfg)
			})
		}
	}

	preds := make([]estimator.Prediction, len(leaves))
	// The fan-out short-circuits on the first Predict error like the old
	// DFS's early return (a failing estimator dependency — e.g. a
	// baseline run, which only caches success — would otherwise re-fail
	// once per leaf).
	if err := tensor.ForEachIndexErr(len(leaves), 0, func(i int) error {
		if e.Ctx != nil {
			if cerr := e.Ctx.Err(); cerr != nil {
				return cerr
			}
		}
		var err error
		preds[i], err = e.Est.Predict(leaves[i])
		return err
	}); err != nil {
		return nil, err
	}
	res.Evaluated = len(leaves)
	for i, cfg := range leaves {
		if e.Constraints.Satisfied(preds[i]) {
			res.Candidates = append(res.Candidates, Point{Cfg: cfg, Pred: preds[i]})
		}
	}
	res.Pareto = ParetoFront(res.Candidates)
	return res, nil
}

// normalizedSpace fills empty dimensions from the base config.
func (e *Explorer) normalizedSpace(base backend.Config) Space {
	s := e.Space
	if len(s.Samplers) == 0 {
		s.Samplers = []backend.SamplerKind{base.Sampler}
	}
	if len(s.BatchSizes) == 0 {
		s.BatchSizes = []int{base.BatchSize}
	}
	if len(s.FanoutSets) == 0 {
		s.FanoutSets = [][]int{base.Fanouts}
	}
	if len(s.WalkLengths) == 0 {
		wl := base.WalkLength
		if wl == 0 {
			wl = 8
		}
		s.WalkLengths = []int{wl}
	}
	if len(s.CacheRatios) == 0 {
		s.CacheRatios = []float64{base.CacheRatio}
	}
	if len(s.Policies) == 0 {
		// The policy paired with nonzero cache ratios. The base's policy
		// is usually "none" (no cache), which would invalidate every
		// cached candidate, so default to the static PaGraph-style cache.
		pol := base.CachePolicy
		if pol == "" || pol == cache.None {
			pol = cache.Static
		}
		s.Policies = []cache.Policy{pol}
	}
	if len(s.Precisions) == 0 {
		s.Precisions = []cache.Precision{base.FeaturePrecision()}
	}
	if len(s.BiasRates) == 0 {
		s.BiasRates = []float64{base.BiasRate}
	}
	if len(s.Hiddens) == 0 {
		s.Hiddens = []int{base.Hidden}
	}
	if len(s.LayerCounts) == 0 {
		s.LayerCounts = []int{base.Layers}
	}
	if len(s.DeviceCounts) == 0 {
		s.DeviceCounts = []int{base.DeviceCount()}
	}
	return s
}

// ParetoFront returns the non-dominated subset of points over
// (minimize T, minimize Γ, maximize Acc), preserving input order. A
// point with a non-finite metric is never on the front, just as
// Constraints.Satisfied calls it infeasible.
//
// It runs as a sort-and-sweep: points sorted by (T asc, Γ asc, Acc desc)
// are swept once while an incremental staircase maps cache memory Γ to
// the best accuracy seen at-or-below it. A point is dominated exactly
// when an earlier, distinct triple offers Γ ≤ and Acc ≥ its own (T ≤
// holds by the sort, and distinctness forces one of the three to be
// strict). Cost: O(n log n) for the sort and the staircase searches,
// plus a splice memmove per surviving point that is O(front size) in
// the worst case (a fully anticorrelated T/Γ front) — a flat float64
// copy.
func ParetoFront(points []Point) []Point {
	ord := make([]int, 0, len(points))
	for i, p := range points {
		if finite(p.Pred) {
			ord = append(ord, i)
		}
	}
	slices.SortFunc(ord, func(a, b int) int {
		pa, pb := points[a].Pred, points[b].Pred
		switch {
		case pa.TimeSec != pb.TimeSec:
			if pa.TimeSec < pb.TimeSec {
				return -1
			}
			return 1
		case pa.MemoryGB != pb.MemoryGB:
			if pa.MemoryGB < pb.MemoryGB {
				return -1
			}
			return 1
		case pa.Accuracy != pb.Accuracy:
			if pa.Accuracy > pb.Accuracy {
				return -1
			}
			return 1
		default:
			return a - b
		}
	})
	onFront := make([]bool, len(points))
	// Staircase over processed points: gs strictly ascending, accs[i] the
	// best accuracy among all points with Γ <= gs[i] (so also strictly
	// ascending — entries a cheaper-Γ point already beats are elided).
	var gs, accs []float64
	n := len(ord)
	for i := 0; i < n; {
		p := points[ord[i]].Pred
		// Identical ⟨T, Γ, Acc⟩ triples are adjacent in the sort order and
		// never dominate each other; they share one verdict.
		j := i + 1
		for j < n {
			q := points[ord[j]].Pred
			if q.TimeSec != p.TimeSec || q.MemoryGB != p.MemoryGB || q.Accuracy != p.Accuracy {
				break
			}
			j++
		}
		k := sort.Search(len(gs), func(m int) bool { return gs[m] > p.MemoryGB }) - 1
		if k < 0 || accs[k] < p.Accuracy {
			for _, idx := range ord[i:j] {
				onFront[idx] = true
			}
			// New best accuracy at this Γ: insert, dropping entries at
			// Γ >= ours whose accuracy we match or beat.
			pos := sort.Search(len(gs), func(m int) bool { return gs[m] >= p.MemoryGB })
			cut := pos
			for cut < len(gs) && accs[cut] <= p.Accuracy {
				cut++
			}
			gs = slices.Insert(slices.Delete(gs, pos, cut), pos, p.MemoryGB)
			accs = slices.Insert(slices.Delete(accs, pos, cut), pos, p.Accuracy)
		}
		i = j
	}
	var front []Point
	for i, p := range points {
		if onFront[i] {
			front = append(front, p)
		}
	}
	return front
}

// Decide applies the decision maker: metrics are min-max normalized over
// the candidate set and combined with the priority's weights; the lowest
// score wins. Ties break toward lower time. Candidates whose predicted
// accuracy trails the best by more than accGuardBand are excluded — every
// guideline must keep "comparable accuracy" (§4.2).
func Decide(candidates []Point, priority Priority) (Point, error) {
	if len(candidates) == 0 {
		return Point{}, fmt.Errorf("dse: no candidates satisfy the constraints")
	}
	// Non-finite candidates (possible only when callers bypass
	// Constraints.Satisfied, which rejects them) are excluded before
	// anything else: a NaN metric would poison the min-max normalization
	// (math.Min propagates NaN, turning every score NaN), and an Inf
	// accuracy would set a guard band no finite candidate can meet.
	finiteCands := make([]Point, 0, len(candidates))
	for _, p := range candidates {
		if finite(p.Pred) {
			finiteCands = append(finiteCands, p)
		}
	}
	if len(finiteCands) == 0 {
		return Point{}, fmt.Errorf("dse: no candidate has a finite score")
	}
	candidates = finiteCands
	bestAcc := math.Inf(-1)
	for _, p := range candidates {
		if p.Pred.Accuracy > bestAcc {
			bestAcc = p.Pred.Accuracy
		}
	}
	guarded := make([]Point, 0, len(candidates))
	for _, p := range candidates {
		if p.Pred.Accuracy >= bestAcc-accGuardBand {
			guarded = append(guarded, p)
		}
	}
	if len(guarded) > 0 {
		candidates = guarded
	}
	minT, maxT := math.Inf(1), math.Inf(-1)
	minG, maxG := math.Inf(1), math.Inf(-1)
	minA, maxA := math.Inf(1), math.Inf(-1)
	for _, p := range candidates {
		minT = math.Min(minT, p.Pred.TimeSec)
		maxT = math.Max(maxT, p.Pred.TimeSec)
		minG = math.Min(minG, p.Pred.MemoryGB)
		maxG = math.Max(maxG, p.Pred.MemoryGB)
		minA = math.Min(minA, p.Pred.Accuracy)
		maxA = math.Max(maxA, p.Pred.Accuracy)
	}
	norm := func(v, lo, hi float64) float64 {
		if hi-lo < 1e-12 {
			return 0
		}
		return (v - lo) / (hi - lo)
	}
	wT, wG, wA := priority.Weights()
	best := -1
	bestScore := math.Inf(1)
	for i, p := range candidates {
		score := wT*norm(p.Pred.TimeSec, minT, maxT) +
			wG*norm(p.Pred.MemoryGB, minG, maxG) +
			wA*(1-norm(p.Pred.Accuracy, minA, maxA))
		if score < bestScore || (score == bestScore && best >= 0 && p.Pred.TimeSec < candidates[best].Pred.TimeSec) {
			bestScore = score
			best = i
		}
	}
	if best < 0 {
		// Unreachable after the finiteness filter above (finite inputs
		// always produce a finite first score), but a panic on
		// candidates[-1] is the failure mode this function once had —
		// keep the guard.
		return Point{}, fmt.Errorf("dse: no candidate has a finite score")
	}
	return candidates[best], nil
}

package dse

import (
	"reflect"
	"testing"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/estimator"
	"gnnavigator/internal/model"
)

// sharedEstimator trains a small estimator once for all dse tests.
func sharedEstimator(t *testing.T) *estimator.Estimator {
	t.Helper()
	recs, err := estimator.CollectCached(dataset.OgbnArxiv, model.SAGE, "rtx4090", 24, 7, true)
	if err != nil {
		t.Fatalf("calibration: %v", err)
	}
	e, err := estimator.Train(recs)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return e
}

func baseCfg() backend.Config {
	return backend.Config{
		Dataset:     dataset.OgbnArxiv,
		Platform:    "rtx4090",
		Sampler:     backend.SamplerSAGE,
		BatchSize:   512,
		Fanouts:     []int{10, 5},
		CachePolicy: cache.None,
		Model:       model.SAGE,
		Hidden:      32,
		Layers:      2,
		Epochs:      2,
		LR:          0.01,
		Seed:        3,
	}
}

func smallSpace() Space {
	return Space{
		Samplers:    []backend.SamplerKind{backend.SamplerSAGE},
		BatchSizes:  []int{512, 1024},
		FanoutSets:  [][]int{{5, 5}, {10, 5}},
		CacheRatios: []float64{0, 0.15, 0.45},
		Policies:    []cache.Policy{cache.Static},
		BiasRates:   []float64{0, 0.9},
		Hiddens:     []int{32},
	}
}

// dominates reports whether a dominates b: no worse on all of (T, Γ, Acc)
// and strictly better on at least one.
func dominates(a, b Point) bool {
	if a.Pred.TimeSec > b.Pred.TimeSec || a.Pred.MemoryGB > b.Pred.MemoryGB ||
		a.Pred.Accuracy < b.Pred.Accuracy {
		return false
	}
	return a.Pred.TimeSec < b.Pred.TimeSec || a.Pred.MemoryGB < b.Pred.MemoryGB ||
		a.Pred.Accuracy > b.Pred.Accuracy
}

func TestExploreFindsCandidates(t *testing.T) {
	ex := &Explorer{Est: sharedEstimator(t), Space: smallSpace()}
	res, err := ex.Explore(baseCfg())
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Evaluated == 0 || len(res.Candidates) == 0 {
		t.Fatalf("empty exploration: %+v", res)
	}
	if len(res.Pareto) == 0 || len(res.Pareto) > len(res.Candidates) {
		t.Errorf("pareto size %d vs candidates %d", len(res.Pareto), len(res.Candidates))
	}
	// Every Pareto point must itself be a candidate and non-dominated.
	for _, p := range res.Pareto {
		for _, q := range res.Candidates {
			if dominates(q, p) {
				t.Errorf("pareto point %s dominated by %s", p.Cfg.Label(), q.Cfg.Label())
			}
		}
	}
}

func TestExploreNeedsEstimator(t *testing.T) {
	ex := &Explorer{Space: smallSpace()}
	if _, err := ex.Explore(baseCfg()); err == nil {
		t.Error("explorer without estimator accepted")
	}
}

func TestConstraintPruning(t *testing.T) {
	est := sharedEstimator(t)
	// Reddit2 at full scale: 233k vertices x 602 attrs x 4 B ≈ 0.56 GB per
	// unit cache ratio, so ratio 0.45 alone (~0.25 GB) busts a 0.2 GB
	// budget and its whole subtree can be pruned without evaluation.
	base := baseCfg()
	base.Dataset = dataset.Reddit2
	tight := Constraints{MaxMemoryGB: 0.2}
	with := &Explorer{Est: est, Space: smallSpace(), Constraints: tight}
	resWith, err := with.Explore(base)
	if err != nil {
		t.Fatal(err)
	}
	without := &Explorer{Est: est, Space: smallSpace(), Constraints: tight, DisablePruning: true}
	resWithout, err := without.Explore(base)
	if err != nil {
		t.Fatal(err)
	}
	if resWith.Pruned == 0 {
		t.Error("tight memory constraint pruned nothing")
	}
	if resWith.Evaluated >= resWithout.Evaluated {
		t.Errorf("pruning did not reduce evaluations: %d vs %d",
			resWith.Evaluated, resWithout.Evaluated)
	}
	// Exact prune accounting: every pruned leaf is one the disabled run
	// evaluated, no more, no fewer.
	if resWithout.Pruned != 0 {
		t.Errorf("pruning-disabled run reported %d pruned leaves", resWithout.Pruned)
	}
	if resWith.Evaluated+resWith.Pruned != resWithout.Evaluated {
		t.Errorf("prune accounting inexact: evaluated %d + pruned %d != %d total leaves",
			resWith.Evaluated, resWith.Pruned, resWithout.Evaluated)
	}
	// Pruning must not change the satisfying candidate set.
	if !reflect.DeepEqual(resWith.Candidates, resWithout.Candidates) {
		t.Errorf("pruning changed the candidate set: %d vs %d candidates",
			len(resWith.Candidates), len(resWithout.Candidates))
	}
}

// TestPruneAccountingExactAcrossSpaces drives the invariant through
// spaces that exercise every admission rule the old multiplicative count
// got wrong: samplers with mismatched fanout/depth combos, SAINT (which
// uses WalkLengths, not FanoutSets), collapsed no-cache policy×bias
// duplicates, and bias rates inadmissible off the node-wise sampler.
func TestPruneAccountingExactAcrossSpaces(t *testing.T) {
	est := sharedEstimator(t)
	base := baseCfg()
	base.Dataset = dataset.Reddit2
	spaces := map[string]Space{
		"small": smallSpace(),
		"mixed-samplers": {
			Samplers:    []backend.SamplerKind{backend.SamplerSAGE, backend.SamplerSAINT},
			BatchSizes:  []int{512},
			FanoutSets:  [][]int{{10}, {10, 5}, {15, 8}},
			WalkLengths: []int{8, 12},
			LayerCounts: []int{1, 2},
			CacheRatios: []float64{0, 0.3, 0.45},
			Policies:    []cache.Policy{cache.Static, cache.LRU},
			BiasRates:   []float64{0, 0.9},
			Hiddens:     []int{32},
		},
	}
	for name, space := range spaces {
		tight := Constraints{MaxMemoryGB: 0.2}
		with, err := (&Explorer{Est: est, Space: space, Constraints: tight}).Explore(base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		without, err := (&Explorer{Est: est, Space: space, Constraints: tight, DisablePruning: true}).Explore(base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if with.Pruned == 0 {
			t.Errorf("%s: nothing pruned under a 0.2 GB budget", name)
		}
		if with.Evaluated+with.Pruned != without.Evaluated {
			t.Errorf("%s: evaluated %d + pruned %d != total %d",
				name, with.Evaluated, with.Pruned, without.Evaluated)
		}
	}
}

func TestConstraintsSatisfied(t *testing.T) {
	p := estimator.Prediction{TimeSec: 5, MemoryGB: 2, Accuracy: 0.8, Feasible: true}
	if !(Constraints{}).Satisfied(p) {
		t.Error("unconstrained rejected feasible point")
	}
	if (Constraints{MaxTimeSec: 4}).Satisfied(p) {
		t.Error("time constraint not enforced")
	}
	if (Constraints{MaxMemoryGB: 1}).Satisfied(p) {
		t.Error("memory constraint not enforced")
	}
	if (Constraints{MinAccuracy: 0.9}).Satisfied(p) {
		t.Error("accuracy constraint not enforced")
	}
	p.Feasible = false
	if (Constraints{}).Satisfied(p) {
		t.Error("infeasible point accepted")
	}
}

func TestParetoFrontKnown(t *testing.T) {
	mk := func(t, g, a float64) Point {
		return Point{Pred: estimator.Prediction{TimeSec: t, MemoryGB: g, Accuracy: a, Feasible: true}}
	}
	pts := []Point{
		mk(1, 1, 0.9), // non-dominated
		mk(2, 2, 0.8), // dominated by the first
		mk(0.5, 3, 0.7),
		mk(3, 0.5, 0.95),
	}
	front := ParetoFront(pts)
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3", len(front))
	}
	for _, p := range front {
		if p.Pred.TimeSec == 2 {
			t.Error("dominated point on the front")
		}
	}
}

func TestParetoFrontEmpty(t *testing.T) {
	if got := ParetoFront(nil); len(got) != 0 {
		t.Errorf("front of empty set = %v", got)
	}
}

func TestDecidePriorities(t *testing.T) {
	mk := func(t, g, a float64) Point {
		return Point{Pred: estimator.Prediction{TimeSec: t, MemoryGB: g, Accuracy: a, Feasible: true}}
	}
	// Accuracy spread kept within the decision maker's guard band so the
	// emphasis weights (not the guard) decide.
	fast := mk(1, 10, 0.72)     // fastest, memory-hungry, lower acc
	lean := mk(10, 1, 0.72)     // slow, tiny memory
	accurate := mk(10, 10, 0.8) // slow, hungry, most accurate
	cands := []Point{fast, lean, accurate}

	got, err := Decide(cands, TimeMemory)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pred.Accuracy == 0.8 {
		t.Error("Ex-TM picked the accuracy point")
	}
	got, err = Decide(cands, TimeAccuracy)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pred.TimeSec == 10 && got.Pred.Accuracy == 0.72 {
		t.Error("Ex-TA picked the slow low-accuracy point")
	}
	if _, err := Decide(nil, Balance); err == nil {
		t.Error("Decide on empty candidates accepted")
	}
}

// TestDecideAccuracyGuard: a config whose predicted accuracy collapses is
// never chosen, even under time-emphasizing priorities.
func TestDecideAccuracyGuard(t *testing.T) {
	mk := func(t, g, a float64) Point {
		return Point{Pred: estimator.Prediction{TimeSec: t, MemoryGB: g, Accuracy: a, Feasible: true}}
	}
	degenerate := mk(0.1, 0.1, 0.2) // superfast but barely learns
	sane := mk(1, 1, 0.8)
	for _, p := range Priorities() {
		got, err := Decide([]Point{degenerate, sane}, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Pred.Accuracy == 0.2 {
			t.Errorf("%s picked the degenerate low-accuracy point", p)
		}
	}
}

func TestDecideBalancePrefersDominating(t *testing.T) {
	mk := func(t, g, a float64) Point {
		return Point{Pred: estimator.Prediction{TimeSec: t, MemoryGB: g, Accuracy: a, Feasible: true}}
	}
	good := mk(1, 1, 0.9)
	bad := mk(5, 5, 0.5)
	got, err := Decide([]Point{bad, good}, Balance)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pred.TimeSec != 1 {
		t.Error("Balance did not pick the dominating point")
	}
}

func TestSpaceSizeAndNormalize(t *testing.T) {
	s := smallSpace()
	if s.Size() == 0 {
		t.Error("Size = 0")
	}
	ex := &Explorer{Est: sharedEstimator(t)} // empty space pins to base
	res, err := ex.Explore(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 1 {
		t.Errorf("empty space evaluated %d configs, want exactly the base", res.Evaluated)
	}
}

// TestLayerCountsExplored: the "Model Layers" knob of Fig. 3 produces
// candidates at every admissible depth (fanout-set length must match).
func TestLayerCountsExplored(t *testing.T) {
	space := smallSpace()
	space.LayerCounts = []int{1, 2}
	space.FanoutSets = [][]int{{10}, {10, 5}}
	ex := &Explorer{Est: sharedEstimator(t), Space: space}
	res, err := ex.Explore(baseCfg())
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	depths := map[int]int{}
	for _, p := range res.Candidates {
		depths[p.Cfg.Layers]++
		if p.Cfg.Sampler != backend.SamplerSAINT && len(p.Cfg.Fanouts) != p.Cfg.Layers {
			t.Fatalf("candidate %s has fanouts/layers mismatch", p.Cfg.Label())
		}
	}
	if depths[1] == 0 || depths[2] == 0 {
		t.Errorf("layer depths not both explored: %v", depths)
	}
}

func TestPrioritiesListed(t *testing.T) {
	if len(Priorities()) != 4 {
		t.Errorf("Priorities = %v", Priorities())
	}
	for _, p := range Priorities() {
		wT, wG, wA := p.Weights()
		if wT <= 0 || wG <= 0 || wA <= 0 {
			t.Errorf("priority %s has non-positive weight", p)
		}
	}
}

// TestExploreSweepsDevices: DeviceCounts joins the space. On a
// multi-device platform the explorer evaluates scaled-out leaves; on a
// single-device platform the Validate filter prunes every K > 1 leaf,
// leaving exactly the K=1 enumeration.
func TestExploreSweepsDevices(t *testing.T) {
	est := sharedEstimator(t)
	sp := smallSpace()
	sp.DeviceCounts = []int{1, 2}
	multiBase := baseCfg()
	multiBase.Platform = "rtx4090x2"
	res, err := (&Explorer{Est: est, Space: sp}).Explore(multiBase)
	if err != nil {
		t.Fatal(err)
	}
	single, multi := 0, 0
	for _, c := range res.Candidates {
		if c.Cfg.DeviceCount() > 1 {
			multi++
		} else {
			single++
		}
	}
	if single == 0 || multi == 0 {
		t.Fatalf("device sweep lopsided: %d single-device vs %d multi-device candidates", single, multi)
	}

	// Single-device platform: the K=2 half of the grid is inadmissible,
	// so the evaluation count collapses to the K=1-only space's.
	resSingle, err := (&Explorer{Est: est, Space: sp}).Explore(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	spOne := sp
	spOne.DeviceCounts = []int{1}
	resOne, err := (&Explorer{Est: est, Space: spOne}).Explore(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if resSingle.Evaluated != resOne.Evaluated {
		t.Errorf("single-device platform evaluated %d leaves, want the K=1-only %d",
			resSingle.Evaluated, resOne.Evaluated)
	}
	for _, c := range resSingle.Candidates {
		if c.Cfg.DeviceCount() > 1 {
			t.Fatalf("multi-device candidate %s on a single-device platform", c.Cfg.Label())
		}
	}
}

// TestDefaultSpaceIncludesDevices pins the scale-out knob in the
// evaluation grid.
func TestDefaultSpaceIncludesDevices(t *testing.T) {
	if got := DefaultSpace().DeviceCounts; len(got) < 2 || got[0] != 1 {
		t.Fatalf("DefaultSpace().DeviceCounts = %v, want a sweep starting at 1", got)
	}
}

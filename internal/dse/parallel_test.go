package dse

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/estimator"
	"gnnavigator/internal/tensor"
)

// TestExploreParallelEquivalence: the determinism contract of the
// parallel explorer — Candidates, Pareto, counters and every Decide are
// bitwise-identical at any worker count. Run under -race in CI, this is
// also the concurrency soak for estimator.Predict.
func TestExploreParallelEquivalence(t *testing.T) {
	est := sharedEstimator(t)
	space := smallSpace()
	space.Samplers = []backend.SamplerKind{backend.SamplerSAGE, backend.SamplerSAINT}
	space.WalkLengths = []int{8, 12}
	base := baseCfg()

	explore := func(workers int) (*Result, error) {
		defer tensor.WithParallelism(workers)()
		return (&Explorer{Est: est, Space: space}).Explore(base)
	}
	serial, err := explore(1)
	if err != nil {
		t.Fatalf("serial Explore: %v", err)
	}
	if len(serial.Candidates) == 0 {
		t.Fatal("serial exploration found no candidates; equivalence test is vacuous")
	}
	for _, workers := range []int{0, 4, runtime.GOMAXPROCS(0)} {
		res, err := explore(workers)
		if err != nil {
			t.Fatalf("workers=%d Explore: %v", workers, err)
		}
		if !reflect.DeepEqual(res, serial) {
			t.Fatalf("workers=%d: Result differs from serial (candidates %d vs %d, pareto %d vs %d, evaluated %d vs %d, pruned %d vs %d)",
				workers, len(res.Candidates), len(serial.Candidates),
				len(res.Pareto), len(serial.Pareto),
				res.Evaluated, serial.Evaluated, res.Pruned, serial.Pruned)
		}
		for _, p := range Priorities() {
			want, err1 := Decide(serial.Pareto, p)
			got, err2 := Decide(res.Pareto, p)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("workers=%d %s: Decide error mismatch: %v vs %v", workers, p, err1, err2)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d %s: Decide diverged: %s vs %s",
					workers, p, got.Cfg.Label(), want.Cfg.Label())
			}
		}
	}
}

// mkPt builds a candidate point with the given prediction triple.
func mkPt(T, g, a float64) Point {
	return Point{Pred: estimator.Prediction{TimeSec: T, MemoryGB: g, Accuracy: a, Feasible: true}}
}

// TestParetoFrontMatchesQuadratic cross-checks the sort-and-sweep front
// against the all-pairs reference on random point sets. Values are drawn
// from a coarse grid so ties — the delicate part of the sweep — occur
// constantly.
func TestParetoFrontMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	grid := func(levels int) float64 {
		return float64(rng.Intn(levels)) / float64(levels-1)
	}
	for _, n := range []int{0, 1, 2, 3, 5, 17, 100, 400} {
		for _, levels := range []int{2, 4, 16} {
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = mkPt(grid(levels), grid(levels), grid(levels))
			}
			want := paretoFrontQuadratic(pts)
			got := ParetoFront(pts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d levels=%d: sweep front (%d pts) != quadratic front (%d pts)",
					n, levels, len(got), len(want))
			}
		}
	}
	// Continuous values (ties only at duplicates) for good measure.
	for _, n := range []int{50, 333} {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = mkPt(rng.Float64(), rng.Float64(), rng.Float64())
		}
		if got, want := ParetoFront(pts), paretoFrontQuadratic(pts); !reflect.DeepEqual(got, want) {
			t.Fatalf("continuous n=%d: sweep front != quadratic front", n)
		}
	}
}

// TestParetoFrontDuplicatesKept: identical non-dominated points all stay
// on the front (they do not dominate each other), in input order.
func TestParetoFrontDuplicatesKept(t *testing.T) {
	dup := mkPt(1, 1, 0.9)
	pts := []Point{dup, mkPt(2, 2, 0.5), dup, mkPt(0.5, 3, 0.7)}
	front := ParetoFront(pts)
	if !reflect.DeepEqual(front, []Point{dup, dup, mkPt(0.5, 3, 0.7)}) {
		t.Fatalf("duplicate handling wrong: %d-point front", len(front))
	}
}

// TestParetoFrontNaNFallback: non-finite coordinates route to the
// quadratic reference instead of corrupting the sweep's sort. Points are
// tagged through Cfg.BatchSize because reflect.DeepEqual can't compare
// NaN predictions (NaN != NaN).
func TestParetoFrontNaNFallback(t *testing.T) {
	pts := []Point{
		mkPt(math.NaN(), 1, 0.9),
		mkPt(1, 1, 0.9),
		mkPt(2, 2, 0.5),
		mkPt(1, math.Inf(1), 0.9),
	}
	for i := range pts {
		pts[i].Cfg.BatchSize = i
	}
	tags := func(front []Point) []int {
		out := make([]int, len(front))
		for i, p := range front {
			out[i] = p.Cfg.BatchSize
		}
		return out
	}
	want := tags(paretoFrontQuadratic(pts))
	got := tags(ParetoFront(pts))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NaN input: sweep picked %v, reference %v", got, want)
	}
}

// TestSatisfiedRejectsNonFinite: a NaN or Inf metric can never satisfy
// the constraints, even unconstrained — otherwise it would reach the
// decision maker and poison every score.
func TestSatisfiedRejectsNonFinite(t *testing.T) {
	base := estimator.Prediction{TimeSec: 1, MemoryGB: 1, Accuracy: 0.8, Feasible: true}
	if !(Constraints{}).Satisfied(base) {
		t.Fatal("finite feasible point rejected")
	}
	for name, p := range map[string]estimator.Prediction{
		"nan-time":   {TimeSec: math.NaN(), MemoryGB: 1, Accuracy: 0.8, Feasible: true},
		"inf-time":   {TimeSec: math.Inf(1), MemoryGB: 1, Accuracy: 0.8, Feasible: true},
		"nan-mem":    {TimeSec: 1, MemoryGB: math.NaN(), Accuracy: 0.8, Feasible: true},
		"inf-mem":    {TimeSec: 1, MemoryGB: math.Inf(1), Accuracy: 0.8, Feasible: true},
		"nan-acc":    {TimeSec: 1, MemoryGB: 1, Accuracy: math.NaN(), Feasible: true},
		"neginf-acc": {TimeSec: 1, MemoryGB: 1, Accuracy: math.Inf(-1), Feasible: true},
	} {
		if (Constraints{}).Satisfied(p) {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDecideAllNaNDoesNotPanic is the regression test for the
// candidates[-1] panic: if every score is NaN (candidates that bypassed
// Satisfied), Decide must return an error, not crash.
func TestDecideAllNaNDoesNotPanic(t *testing.T) {
	cands := []Point{
		mkPt(math.NaN(), 1, 0.5),
		mkPt(math.NaN(), 2, 0.6),
	}
	if _, err := Decide(cands, Balance); err == nil {
		t.Fatal("Decide on all-NaN candidates returned no error")
	}
	// A single finite candidate among NaNs must win.
	cands = append(cands, mkPt(1, 1, math.NaN()), mkPt(3, 3, 0.55))
	got, err := Decide(cands, Balance)
	if err != nil {
		t.Fatalf("Decide with one finite candidate: %v", err)
	}
	if got.Pred.TimeSec != 3 {
		t.Fatalf("Decide picked a NaN-scored candidate: %+v", got.Pred)
	}
}

// TestDecideInfAccuracyCannotEvictFinite: a non-finite candidate must
// not set the accuracy guard band — an +Inf-accuracy point would
// otherwise exclude every finite candidate and fail the decision.
func TestDecideInfAccuracyCannotEvictFinite(t *testing.T) {
	cands := []Point{
		mkPt(1, 1, math.Inf(1)), // bogus prediction, bypassed Satisfied
		mkPt(1, 1, 0.9),
	}
	got, err := Decide(cands, Balance)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if got.Pred.Accuracy != 0.9 {
		t.Fatalf("Decide picked the non-finite candidate: %+v", got.Pred)
	}
	// Same via a non-finite metric on an otherwise high-accuracy point.
	cands = []Point{
		mkPt(1, math.Inf(1), 0.95),
		mkPt(1, 1, 0.8),
	}
	got, err = Decide(cands, Balance)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if got.Pred.Accuracy != 0.8 {
		t.Fatalf("unscorable point set the guard band: %+v", got.Pred)
	}
}

// TestDecideTieBreakOrderIndependent: equal scores break toward lower
// time, regardless of candidate order.
func TestDecideTieBreakOrderIndependent(t *testing.T) {
	// Symmetric under Balance's equal T/Γ weights: both score identically.
	fast := mkPt(1, 2, 0.8)
	lean := mkPt(2, 1, 0.8)
	a, err := Decide([]Point{fast, lean}, Balance)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decide([]Point{lean, fast}, Balance)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pred.TimeSec != 1 || b.Pred.TimeSec != 1 {
		t.Fatalf("tie did not break toward lower time: %v / %v", a.Pred.TimeSec, b.Pred.TimeSec)
	}
}

// TestSpaceIsZero distinguishes the genuine zero value from narrow
// single-point spaces (the core.New default-substitution bug).
func TestSpaceIsZero(t *testing.T) {
	if !(Space{}).IsZero() {
		t.Error("zero Space not IsZero")
	}
	one := Space{CacheRatios: []float64{0.15}}
	if one.IsZero() {
		t.Error("single-dimension Space reported zero")
	}
	if one.Size() > 1 {
		t.Errorf("single-point Space Size = %d", one.Size())
	}
	if (Space{Policies: []cache.Policy{cache.LRU}}).IsZero() {
		t.Error("policy-only Space reported zero")
	}
	if smallSpace().IsZero() {
		t.Error("smallSpace reported zero")
	}
}

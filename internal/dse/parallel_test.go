package dse

import (
	"math"
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

// TestParetoFrontMatchesQuadratic checks the sort-and-sweep front
// against its all-pairs definition on every paretoPointSets set: a
// point is on the front exactly when no other point dominates it, and
// the front keeps input order.
func TestParetoFrontMatchesQuadratic(t *testing.T) {
	for si, pts := range paretoPointSets() {
		front := ParetoFront(pts)
		k := 0
		for i, p := range pts {
			dominated := false
			for _, q := range pts {
				if dominates(q, p) {
					dominated = true
					break
				}
			}
			onFront := k < len(front) && front[k].Cfg.BatchSize == i
			if onFront {
				k++
			}
			if onFront == dominated {
				t.Fatalf("set %d (n=%d): point %d dominated=%v, on front=%v", si, len(pts), i, dominated, onFront)
			}
		}
		if k != len(front) {
			t.Fatalf("set %d (n=%d): front out of input order", si, len(pts))
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

// TestParetoFrontExcludesNonFinite: a point with a NaN or infinite
// metric is never on the front — Constraints.Satisfied calls it
// infeasible — and never removes a finite point from it, at every input
// size. Points are tagged through Cfg.BatchSize because
// reflect.DeepEqual can't compare NaN predictions (NaN != NaN).
func TestParetoFrontExcludesNonFinite(t *testing.T) {
	tags := func(pts ...Point) []int {
		for i := range pts {
			pts[i].Cfg.BatchSize = i
		}
		out := []int{}
		for _, p := range ParetoFront(pts) {
			out = append(out, p.Cfg.BatchSize)
		}
		return out
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		got  []int
		want []int
	}{
		{"lone NaN", tags(mkPt(nan, 1, 0.9)), []int{}},
		{"NaN beside a finite point", tags(mkPt(nan, 1, 0.9), mkPt(2, 2, 0.5)), []int{1}},
		{"mixed", tags(
			mkPt(nan, 1, 0.9),
			mkPt(1, 1, 0.9),
			mkPt(2, 2, 0.5),
			mkPt(1, inf, 0.9),
			mkPt(-inf, 0, 1), // would dominate point 1 were it finite
			mkPt(nan, nan, nan),
		), []int{1}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s: front %v, want %v", tc.name, tc.got, tc.want)
		}
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

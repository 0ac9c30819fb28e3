package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// linearData draws y = 3x0 - 2x1 + 1 + noise.
func linearData(rng *rand.Rand, n int, noise float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0, x1 := rng.NormFloat64(), rng.NormFloat64()
		X[i] = []float64{x0, x1}
		y[i] = 3*x0 - 2*x1 + 1 + rng.NormFloat64()*noise
	}
	return X, y
}

// stepData draws y = 5 if x0 > 0 else -5 (tree-friendly, linear-hostile).
func stepData(rng *rand.Rand, n int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0 := rng.NormFloat64()
		X[i] = []float64{x0, rng.NormFloat64()}
		if x0 > 0 {
			y[i] = 5
		} else {
			y[i] = -5
		}
	}
	return X, y
}

// predictBatch maps r.Predict over rows.
func predictBatch(r Regressor, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = r.Predict(x)
	}
	return out
}

func TestCheckXYErrors(t *testing.T) {
	r := &Ridge{}
	if err := r.Fit(nil, nil); err == nil {
		t.Error("empty training set accepted")
	}
	if err := r.Fit([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Error("row/target mismatch accepted")
	}
	if err := r.Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows accepted")
	}
	if err := r.Fit([][]float64{{}}, []float64{1}); err == nil {
		t.Error("zero-width features accepted")
	}
}

func TestRidgeRecoversLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := linearData(rng, 200, 0.01)
	r := &Ridge{Lambda: 1e-6}
	if err := r.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.W[0]-3) > 0.05 || math.Abs(r.W[1]+2) > 0.05 || math.Abs(r.W[2]-1) > 0.05 {
		t.Errorf("weights = %v, want [3 -2 1]", r.W)
	}
	teX, teY := linearData(rng, 50, 0.01)
	if r2 := R2(predictBatch(r, teX), teY); r2 < 0.99 {
		t.Errorf("ridge R2 = %v on clean linear data", r2)
	}
}

func TestRidgeHandlesConstantFeature(t *testing.T) {
	// A constant column makes the normal matrix singular without pivots.
	X := [][]float64{{1, 7}, {2, 7}, {3, 7}, {4, 7}}
	y := []float64{2, 4, 6, 8}
	r := &Ridge{Lambda: 1e-9}
	if err := r.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Predict([]float64{5, 7})-10) > 0.2 {
		t.Errorf("Predict = %v, want ~10", r.Predict([]float64{5, 7}))
	}
}

func TestTreeFitsStep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := stepData(rng, 300)
	tr := &Tree{MaxDepth: 4}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	teX, teY := stepData(rng, 100)
	if r2 := R2(predictBatch(tr, teX), teY); r2 < 0.95 {
		t.Errorf("tree R2 = %v on step data", r2)
	}
	// A linear model cannot beat the tree here.
	lin := &Ridge{Lambda: 1e-6}
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2lin := R2(predictBatch(lin, teX), teY); r2lin > 0.9 {
		t.Errorf("ridge unexpectedly strong on step data: %v", r2lin)
	}
}

func TestTreeRespectsMinLeaf(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1, 2, 3, 4}
	tr := &Tree{MaxDepth: 10, MinLeaf: 4}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// With MinLeaf = n the tree must be a single leaf predicting the mean.
	for _, x := range X {
		if got := tr.Predict(x); math.Abs(got-2.5) > 1e-9 {
			t.Errorf("Predict(%v) = %v, want 2.5", x, got)
		}
	}
}

func TestForestBeatsSingleTreeOnNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func(n int) ([][]float64, []float64) {
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			X[i] = []float64{a, b}
			y[i] = math.Sin(a)*2 + b*b + rng.NormFloat64()*0.4
		}
		return X, y
	}
	X, y := gen(400)
	teX, teY := gen(150)
	tr := &Tree{MaxDepth: 12, MinLeaf: 1}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	fo := &Forest{Trees: 25, MaxDepth: 12, MinLeaf: 1, Seed: 9}
	if err := fo.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	mseTree := MSE(predictBatch(tr, teX), teY)
	mseForest := MSE(predictBatch(fo, teX), teY)
	if mseForest >= mseTree {
		t.Errorf("forest MSE %v >= tree MSE %v", mseForest, mseTree)
	}
}

func TestMetricsKnownValues(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 5}
	if got := MSE(pred, truth); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("MSE = %v, want 4/3", got)
	}
	if got := R2(truth, truth); got != 1 {
		t.Errorf("perfect R2 = %v, want 1", got)
	}
	// Predicting the mean gives R2 = 0.
	m := (1.0 + 2 + 5) / 3
	if got := R2([]float64{m, m, m}, truth); math.Abs(got) > 1e-12 {
		t.Errorf("mean-prediction R2 = %v, want 0", got)
	}
}

// Property: R2 of predictions equal to truth is always 1; adding noise
// can only reduce it.
func TestR2Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		truth := make([]float64, n)
		for i := range truth {
			truth[i] = rng.NormFloat64() * 10
		}
		if R2(truth, truth) != 1 {
			return false
		}
		noisy := make([]float64, n)
		for i := range noisy {
			noisy[i] = truth[i] + rng.NormFloat64()
		}
		return R2(noisy, truth) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: tree predictions are always within [min(y), max(y)].
func TestTreePredictionBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.NormFloat64() * 5
			if y[i] < lo {
				lo = y[i]
			}
			if y[i] > hi {
				hi = y[i]
			}
		}
		tr := &Tree{MaxDepth: 6}
		if tr.Fit(X, y) != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			p := tr.Predict([]float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUnfittedPredictZero(t *testing.T) {
	if (&Ridge{}).Predict([]float64{1}) != 0 {
		t.Error("unfitted ridge nonzero")
	}
	if (&Tree{}).Predict([]float64{1}) != 0 {
		t.Error("unfitted tree nonzero")
	}
	if (&Forest{}).Predict([]float64{1}) != 0 {
		t.Error("unfitted forest nonzero")
	}
}

// Package regress is a small from-scratch regression toolkit: ridge
// regression, CART regression trees and random forests, plus the R²/MSE
// metrics the paper reports in Table 2. The gray-box estimator
// uses these as the "black-box" halves of its predictions; the pure
// decision-tree baseline of Fig. 5 comes from here too.
package regress

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Regressor is a trainable scalar-output model.
type Regressor interface {
	// Fit trains on rows X (each a feature vector) and targets y.
	Fit(X [][]float64, y []float64) error
	// Predict returns the estimate for one feature vector.
	Predict(x []float64) float64
}

// checkXY validates training data shape.
func checkXY(X [][]float64, y []float64) (nFeat int, err error) {
	if len(X) == 0 || len(X) != len(y) {
		return 0, fmt.Errorf("regress: bad training shape: %d rows, %d targets", len(X), len(y))
	}
	nFeat = len(X[0])
	if nFeat == 0 {
		return 0, fmt.Errorf("regress: zero-width features")
	}
	for i, row := range X {
		if len(row) != nFeat {
			return 0, fmt.Errorf("regress: row %d has %d features, want %d", i, len(row), nFeat)
		}
	}
	return nFeat, nil
}

// --- ridge regression --------------------------------------------------------

// Ridge is linear least squares with L2 regularization and an intercept.
type Ridge struct {
	Lambda float64
	// W holds the learned weights; the last entry is the intercept.
	W []float64
}

// Fit solves (XᵀX + λI)w = Xᵀy by Gaussian elimination with partial
// pivoting (the intercept column is not regularized).
func (r *Ridge) Fit(X [][]float64, y []float64) error {
	nFeat, err := checkXY(X, y)
	if err != nil {
		return err
	}
	d := nFeat + 1 // + intercept
	// Build normal equations.
	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d+1)
	}
	row := make([]float64, d)
	for n, x := range X {
		copy(row, x)
		row[d-1] = 1
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				a[i][j] += row[i] * row[j]
			}
			a[i][d] += row[i] * y[n]
		}
	}
	for i := 0; i < nFeat; i++ { // do not regularize intercept
		a[i][i] += r.Lambda
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < d; col++ {
		pivot := col
		for rr := col + 1; rr < d; rr++ {
			if math.Abs(a[rr][col]) > math.Abs(a[pivot][col]) {
				pivot = rr
			}
		}
		a[col], a[pivot] = a[pivot], a[col]
		p := a[col][col]
		if math.Abs(p) < 1e-12 {
			// Singular direction; skip (weight stays 0 after back-subst).
			continue
		}
		for rr := 0; rr < d; rr++ {
			if rr == col {
				continue
			}
			f := a[rr][col] / p
			for cc := col; cc <= d; cc++ {
				a[rr][cc] -= f * a[col][cc]
			}
		}
	}
	r.W = make([]float64, d)
	for i := 0; i < d; i++ {
		if math.Abs(a[i][i]) > 1e-12 {
			r.W[i] = a[i][d] / a[i][i]
		}
	}
	return nil
}

// Predict implements Regressor.
func (r *Ridge) Predict(x []float64) float64 {
	if r.W == nil {
		return 0
	}
	var s float64
	for i, v := range x {
		if i < len(r.W)-1 {
			s += r.W[i] * v
		}
	}
	return s + r.W[len(r.W)-1]
}

// --- CART regression tree -----------------------------------------------------

// Tree is a CART regression tree split on variance reduction.
type Tree struct {
	MaxDepth      int // default 8
	MinLeaf       int // default 3
	root          *treeNode
	featureSubset int // 0 = all; used by RandomForest
	rng           *rand.Rand
}

type treeNode struct {
	feature     int
	threshold   float64
	left, right *treeNode
	value       float64
	leaf        bool
}

// Fit implements Regressor.
func (t *Tree) Fit(X [][]float64, y []float64) error {
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	if t.MaxDepth == 0 {
		t.MaxDepth = 8
	}
	if t.MinLeaf == 0 {
		t.MinLeaf = 3
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(X, y, idx, 0)
	return nil
}

func mean(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sse(y []float64, idx []int) float64 {
	m := mean(y, idx)
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

func (t *Tree) build(X [][]float64, y []float64, idx []int, depth int) *treeNode {
	if depth >= t.MaxDepth || len(idx) < 2*t.MinLeaf {
		return &treeNode{leaf: true, value: mean(y, idx)}
	}
	nFeat := len(X[0])
	features := make([]int, nFeat)
	for i := range features {
		features[i] = i
	}
	if t.featureSubset > 0 && t.featureSubset < nFeat && t.rng != nil {
		t.rng.Shuffle(nFeat, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:t.featureSubset]
	}
	parentSSE := sse(y, idx)
	bestGain := 1e-9
	bestFeat, bestThr := -1, 0.0
	sorted := make([]int, len(idx))
	for _, f := range features {
		copy(sorted, idx)
		slices.SortFunc(sorted, func(a, b int) int { return cmp.Compare(X[a][f], X[b][f]) })
		// Prefix sums for O(n) split scan.
		var sumL, sqL float64
		var sumT, sqT float64
		for _, i := range sorted {
			sumT += y[i]
			sqT += y[i] * y[i]
		}
		for k := 0; k < len(sorted)-1; k++ {
			i := sorted[k]
			sumL += y[i]
			sqL += y[i] * y[i]
			if X[sorted[k]][f] == X[sorted[k+1]][f] {
				continue // cannot split between equal values
			}
			nL := float64(k + 1)
			nR := float64(len(sorted) - k - 1)
			if int(nL) < t.MinLeaf || int(nR) < t.MinLeaf {
				continue
			}
			sseL := sqL - sumL*sumL/nL
			sumR := sumT - sumL
			sseR := (sqT - sqL) - sumR*sumR/nR
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (X[sorted[k]][f] + X[sorted[k+1]][f]) / 2
			}
		}
	}
	if bestFeat < 0 {
		return &treeNode{leaf: true, value: mean(y, idx)}
	}
	var left, right []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return &treeNode{
		feature:   bestFeat,
		threshold: bestThr,
		left:      t.build(X, y, left, depth+1),
		right:     t.build(X, y, right, depth+1),
	}
}

// Predict implements Regressor.
func (t *Tree) Predict(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// --- random forest ------------------------------------------------------------

// Forest is a bagged ensemble of CART trees with feature subsampling.
type Forest struct {
	Trees    int // default 30
	MaxDepth int // default 10
	MinLeaf  int // default 2
	Seed     int64

	members []*Tree
}

// Fit implements Regressor.
func (f *Forest) Fit(X [][]float64, y []float64) error {
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	if f.Trees == 0 {
		f.Trees = 30
	}
	if f.MaxDepth == 0 {
		f.MaxDepth = 10
	}
	if f.MinLeaf == 0 {
		f.MinLeaf = 2
	}
	rng := rand.New(rand.NewSource(f.Seed + 1))
	nFeat := len(X[0])
	subset := nFeat
	if nFeat > 3 {
		subset = (2*nFeat + 2) / 3
	}
	f.members = f.members[:0]
	n := len(X)
	for k := 0; k < f.Trees; k++ {
		// Bootstrap sample.
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = X[j]
			by[i] = y[j]
		}
		tr := &Tree{
			MaxDepth: f.MaxDepth, MinLeaf: f.MinLeaf,
			featureSubset: subset,
			rng:           rand.New(rand.NewSource(f.Seed + int64(k)*7919)),
		}
		if err := tr.Fit(bx, by); err != nil {
			return err
		}
		f.members = append(f.members, tr)
	}
	return nil
}

// Predict implements Regressor.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.members) == 0 {
		return 0
	}
	var s float64
	for _, t := range f.members {
		s += t.Predict(x)
	}
	return s / float64(len(f.members))
}

// --- metrics -----------------------------------------------------------------

// MSE returns the mean squared error.
func MSE(pred, truth []float64) float64 {
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// R2 returns the coefficient of determination (1 = perfect; can be
// negative for models worse than predicting the mean).
func R2(pred, truth []float64) float64 {
	var m float64
	for _, v := range truth {
		m += v
	}
	m /= float64(len(truth))
	var ssRes, ssTot float64
	for i := range truth {
		d := truth[i] - pred[i]
		ssRes += d * d
		t := truth[i] - m
		ssTot += t * t
	}
	if ssTot < 1e-12 {
		if ssRes < 1e-12 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Package graph provides the compressed-sparse-row (CSR) graph substrate
// used throughout GNNavigator: adjacency storage, degree statistics,
// subgraph induction, and vertex reordering.
//
// All vertex identifiers are dense int32 indices in [0, NumVertices).
// Graphs are treated as directed adjacency in CSR form; undirected graphs
// store both arc directions. The package is deliberately free of any
// training or sampling logic — those live in higher layers.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Graph is an immutable CSR adjacency structure.
//
// The neighbors of vertex v occupy Adj[Offsets[v]:Offsets[v+1]].
// A Graph additionally carries per-vertex dense features and integer
// class labels, because every consumer in this repository (samplers,
// caches, trainers) needs them together.
type Graph struct {
	offsets []int64
	adj     []int32

	// Features is row-major [NumVertices x FeatDim]. May be nil for
	// topology-only graphs.
	Features []float32
	FeatDim  int

	// Labels holds a class id per vertex, or nil.
	Labels []int32
	// NumClasses is the number of distinct label classes (0 if unlabeled).
	NumClasses int

	// Name is an optional human-readable identifier (dataset name).
	Name string
}

// ErrMalformed reports a structurally invalid CSR input.
var ErrMalformed = errors.New("graph: malformed CSR input")

// NewCSR builds a Graph from raw CSR arrays. It validates monotonicity of
// offsets and range of adjacency targets.
func NewCSR(offsets []int64, adj []int32) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("%w: empty offsets", ErrMalformed)
	}
	n := len(offsets) - 1
	if offsets[0] != 0 {
		return nil, fmt.Errorf("%w: offsets[0] = %d, want 0", ErrMalformed, offsets[0])
	}
	for i := 0; i < n; i++ {
		if offsets[i+1] < offsets[i] {
			return nil, fmt.Errorf("%w: offsets not monotonic at %d", ErrMalformed, i)
		}
	}
	if offsets[n] != int64(len(adj)) {
		return nil, fmt.Errorf("%w: offsets[n]=%d != len(adj)=%d", ErrMalformed, offsets[n], len(adj))
	}
	for i, u := range adj {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("%w: adj[%d]=%d out of range [0,%d)", ErrMalformed, i, u, n)
		}
	}
	return &Graph{offsets: offsets, adj: adj}, nil
}

// FromAdjList builds a Graph from an adjacency list. The adjacency list is
// copied into CSR form; neighbor order is preserved.
func FromAdjList(neighbors [][]int32) (*Graph, error) {
	n := len(neighbors)
	offsets := make([]int64, n+1)
	var m int64
	for i, ns := range neighbors {
		offsets[i] = m
		m += int64(len(ns))
		_ = i
	}
	offsets[n] = m
	adj := make([]int32, 0, m)
	for _, ns := range neighbors {
		adj = append(adj, ns...)
	}
	return NewCSR(offsets, adj)
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of stored arcs |E|.
func (g *Graph) NumEdges() int64 { return g.offsets[len(g.offsets)-1] }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the neighbor slice of v. The slice aliases internal
// storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Offsets exposes the CSR offsets array (read-only by convention).
func (g *Graph) Offsets() []int64 { return g.offsets }

// Feature returns the feature row of v (aliases internal storage).
func (g *Graph) Feature(v int32) []float32 {
	base := int(v) * g.FeatDim
	return g.Features[base : base+g.FeatDim]
}

// DegreeStats summarizes the degree distribution of a graph. It drives the
// analytic parts of the performance estimator (Eq. 11–12 of the paper).
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// Std is the standard deviation of the degree distribution.
	Std float64
	// PowerLawAlpha is the fitted exponent of P(d) ~ d^-alpha via the
	// Clauset-style MLE over degrees >= 1 (2.0–3.5 for typical graphs).
	PowerLawAlpha float64
	// GiniCoefficient in [0,1]: 0 = perfectly uniform degrees,
	// close to 1 = extremely skewed. Captures cacheability.
	GiniCoefficient float64
}

// Stats computes DegreeStats over all vertices.
func (g *Graph) Stats() DegreeStats {
	n := g.NumVertices()
	if n == 0 {
		return DegreeStats{}
	}
	degs := make([]int, n)
	var sum float64
	min, max := math.MaxInt, 0
	for v := 0; v < n; v++ {
		d := g.Degree(int32(v))
		degs[v] = d
		sum += float64(d)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	mean := sum / float64(n)
	var sq float64
	for _, d := range degs {
		diff := float64(d) - mean
		sq += diff * diff
	}
	std := math.Sqrt(sq / float64(n))

	// MLE power-law fit: alpha = 1 + n' / sum(ln(d/dmin)) over d >= dmin.
	const dmin = 1.0
	var lnSum float64
	var np int
	for _, d := range degs {
		if d >= 1 {
			lnSum += math.Log(float64(d) / dmin)
			np++
		}
	}
	alpha := 0.0
	if lnSum > 0 {
		alpha = 1 + float64(np)/lnSum
	}

	slices.Sort(degs)
	// Gini = sum_i (2i - n - 1) d_i / (n * sum d).
	var gini float64
	for i, d := range degs {
		gini += float64(2*(i+1)-n-1) * float64(d)
	}
	if sum > 0 {
		gini /= float64(n) * sum
	}
	return DegreeStats{
		Min: min, Max: max, Mean: mean, Std: std,
		PowerLawAlpha: alpha, GiniCoefficient: gini,
	}
}

// DegreeOrder returns the vertex ids sorted by descending degree.
// Ties are broken by ascending id so the order is deterministic.
// PaGraph-style static caches fill device memory in this order.
func (g *Graph) DegreeOrder() []int32 {
	n := g.NumVertices()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if da, db := g.Degree(a), g.Degree(b); da != db {
			return cmp.Compare(db, da)
		}
		return cmp.Compare(a, b)
	})
	return order
}

// Relabel returns a new Graph with vertex v renamed to perm[v]. perm must
// be a permutation of [0, n). Degree-descending relabeling improves cache
// locality and is the "Reorder" knob of the runtime backend.
func (g *Graph) Relabel(perm []int32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: perm length %d != n %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: perm is not a permutation (value %d)", p)
		}
		seen[p] = true
	}
	inv := make([]int32, n) // inv[new] = old
	for old, nw := range perm {
		inv[nw] = int32(old)
	}
	offsets := make([]int64, n+1)
	adj := make([]int32, 0, g.NumEdges())
	for nw := 0; nw < n; nw++ {
		offsets[nw] = int64(len(adj))
		old := inv[nw]
		for _, u := range g.Neighbors(old) {
			adj = append(adj, perm[u])
		}
	}
	offsets[n] = int64(len(adj))
	out, err := NewCSR(offsets, adj)
	if err != nil {
		return nil, err
	}
	out.Name = g.Name
	if g.Features != nil {
		out.FeatDim = g.FeatDim
		out.Features = make([]float32, len(g.Features))
		for nw := 0; nw < n; nw++ {
			copy(out.Features[nw*g.FeatDim:(nw+1)*g.FeatDim], g.Feature(inv[nw]))
		}
	}
	if g.Labels != nil {
		out.NumClasses = g.NumClasses
		out.Labels = make([]int32, n)
		for nw := 0; nw < n; nw++ {
			out.Labels[nw] = g.Labels[inv[nw]]
		}
	}
	return out, nil
}

// DegreeReorderPerm returns the permutation that relabels vertices in
// descending-degree order (hub vertices get the smallest new ids).
func (g *Graph) DegreeReorderPerm() []int32 {
	order := g.DegreeOrder()
	perm := make([]int32, len(order))
	for nw, old := range order {
		perm[old] = int32(nw)
	}
	return perm
}

// Validate re-checks structural invariants; useful in tests and after
// hand-construction.
func (g *Graph) Validate() error {
	_, err := NewCSR(g.offsets, g.adj)
	if err != nil {
		return err
	}
	if g.Features != nil && len(g.Features) != g.NumVertices()*g.FeatDim {
		return fmt.Errorf("%w: features length %d != n*dim %d", ErrMalformed,
			len(g.Features), g.NumVertices()*g.FeatDim)
	}
	if g.Labels != nil {
		if len(g.Labels) != g.NumVertices() {
			return fmt.Errorf("%w: labels length %d != n %d", ErrMalformed, len(g.Labels), g.NumVertices())
		}
		for v, c := range g.Labels {
			if c < 0 || int(c) >= g.NumClasses {
				return fmt.Errorf("%w: label[%d]=%d out of range [0,%d)", ErrMalformed, v, c, g.NumClasses)
			}
		}
	}
	return nil
}

package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// triangle returns the directed triangle 0->1,1->2,2->0 plus reverse arcs.
func triangle(t *testing.T) *Graph {
	t.Helper()
	g, err := FromAdjList([][]int32{{1, 2}, {2, 0}, {0, 1}})
	if err != nil {
		t.Fatalf("FromAdjList: %v", err)
	}
	return g
}

func TestNewCSRValid(t *testing.T) {
	g, err := NewCSR([]int64{0, 2, 3, 3}, []int32{1, 2, 0})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if got := g.Degree(0); got != 2 {
		t.Errorf("Degree(0) = %d, want 2", got)
	}
	if got := g.Degree(2); got != 0 {
		t.Errorf("Degree(2) = %d, want 0", got)
	}
}

func TestNewCSRRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int64
		adj     []int32
	}{
		{"empty offsets", nil, nil},
		{"nonzero first", []int64{1, 2}, []int32{0}},
		{"non-monotonic", []int64{0, 2, 1}, []int32{0, 1}},
		{"length mismatch", []int64{0, 1}, []int32{0, 1}},
		{"target out of range", []int64{0, 1}, []int32{5}},
		{"negative target", []int64{0, 1}, []int32{-1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCSR(tc.offsets, tc.adj); err == nil {
				t.Errorf("NewCSR(%v, %v) succeeded, want error", tc.offsets, tc.adj)
			}
		})
	}
}

func TestNeighbors(t *testing.T) {
	g := triangle(t)
	ns := g.Neighbors(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Errorf("Neighbors(0) = %v, want [1 2]", ns)
	}
}

func TestStatsUniform(t *testing.T) {
	// 4-cycle: every vertex has degree 2.
	g, err := FromAdjList([][]int32{{1, 3}, {0, 2}, {1, 3}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Min != 2 || s.Max != 2 {
		t.Errorf("Min/Max = %d/%d, want 2/2", s.Min, s.Max)
	}
	if s.Mean != 2 {
		t.Errorf("Mean = %v, want 2", s.Mean)
	}
	if s.Std != 0 {
		t.Errorf("Std = %v, want 0", s.Std)
	}
	if s.GiniCoefficient > 1e-12 {
		t.Errorf("Gini = %v, want 0 for uniform degrees", s.GiniCoefficient)
	}
}

func TestStatsSkewed(t *testing.T) {
	// Star: hub 0 connected to 1..9.
	adj := make([][]int32, 10)
	for i := int32(1); i < 10; i++ {
		adj[0] = append(adj[0], i)
		adj[i] = []int32{0}
	}
	g, err := FromAdjList(adj)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Max != 9 || s.Min != 1 {
		t.Errorf("Max/Min = %d/%d, want 9/1", s.Max, s.Min)
	}
	if s.GiniCoefficient <= 0 {
		t.Errorf("Gini = %v, want > 0 for star", s.GiniCoefficient)
	}
}

func TestDegreeOrderDeterministic(t *testing.T) {
	adj := [][]int32{{1, 2, 3}, {0}, {0}, {0, 1, 2}}
	g, err := FromAdjList(adj)
	if err != nil {
		t.Fatal(err)
	}
	order := g.DegreeOrder()
	// Vertices 0 and 3 have degree 3 (tie broken by id), then 1, 2 (degree 1).
	want := []int32{0, 3, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("DegreeOrder = %v, want %v", order, want)
		}
	}
}

func TestRelabelIdentity(t *testing.T) {
	g := triangle(t)
	out, err := g.Relabel([]int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 3; v++ {
		a, b := g.Neighbors(v), out.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("Neighbors(%d)[%d] = %d, want %d", v, i, b[i], a[i])
			}
		}
	}
}

func TestRelabelRejectsNonPermutation(t *testing.T) {
	g := triangle(t)
	if _, err := g.Relabel([]int32{0, 0, 1}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := g.Relabel([]int32{0, 1}); err == nil {
		t.Error("short perm accepted")
	}
}

func TestDegreeReorderPermMovesHubFirst(t *testing.T) {
	// Vertex 2 is the hub.
	adj := [][]int32{{2}, {2}, {0, 1, 3}, {2}}
	g, err := FromAdjList(adj)
	if err != nil {
		t.Fatal(err)
	}
	perm := g.DegreeReorderPerm()
	if perm[2] != 0 {
		t.Errorf("perm[hub] = %d, want 0", perm[2])
	}
	out, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if out.Degree(0) != 3 {
		t.Errorf("relabeled vertex 0 degree = %d, want 3", out.Degree(0))
	}
}

// TestRelabelPreservesEdgesProperty checks, for random graphs and random
// permutations, that relabeling preserves edge multiset and degrees.
func TestRelabelPreservesEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		adj := make([][]int32, n)
		for v := 0; v < n; v++ {
			d := rng.Intn(5)
			for i := 0; i < d; i++ {
				adj[v] = append(adj[v], int32(rng.Intn(n)))
			}
		}
		g, err := FromAdjList(adj)
		if err != nil {
			return false
		}
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		out, err := g.Relabel(perm)
		if err != nil {
			return false
		}
		if out.NumEdges() != g.NumEdges() {
			return false
		}
		// Degree of old vertex v must equal degree of perm[v].
		for v := 0; v < n; v++ {
			if g.Degree(int32(v)) != out.Degree(perm[v]) {
				return false
			}
		}
		// Edge (v,u) must map to (perm[v], perm[u]).
		for v := 0; v < n; v++ {
			old := g.Neighbors(int32(v))
			nw := out.Neighbors(perm[v])
			for i := range old {
				if nw[i] != perm[old[i]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesBadLabels(t *testing.T) {
	g := triangle(t)
	g.Labels = []int32{0, 5, 0}
	g.NumClasses = 2
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted out-of-range label")
	}
}

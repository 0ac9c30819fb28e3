package graph

import (
	"reflect"
	"testing"
)

// pathGraph builds the undirected path 0-1-2-...-(n-1) with both arc
// directions stored.
func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		if v > 0 {
			adj[v] = append(adj[v], int32(v-1))
		}
		if v < n-1 {
			adj[v] = append(adj[v], int32(v+1))
		}
	}
	g, err := FromAdjList(adj)
	if err != nil {
		t.Fatalf("FromAdjList: %v", err)
	}
	return g
}

// vertexCounts returns the number of vertices each part owns.
func vertexCounts(p *Partition) []int {
	counts := make([]int, p.K)
	for _, o := range p.Owner {
		counts[o]++
	}
	return counts
}

// cutArcs counts stored arcs whose endpoints lie in different parts.
// Undirected graphs store both arc directions, so each cut undirected
// edge counts twice.
func cutArcs(g *Graph, p *Partition) int64 {
	var cut int64
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if p.Owner[u] != p.Owner[v] {
				cut++
			}
		}
	}
	return cut
}

func TestPartitionK1Identity(t *testing.T) {
	g := pathGraph(t, 7)
	for _, s := range PartitionStrategies() {
		p, err := PartitionGraph(g, 1, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for v, o := range p.Owner {
			if o != 0 {
				t.Fatalf("%s: Owner[%d] = %d, want 0", s, v, o)
			}
		}
		if vertexCounts(p)[0] != 7 {
			t.Fatalf("%s: vertex counts = %v, want [7]", s, vertexCounts(p))
		}
	}
}

func TestPartitionKExceedsVertices(t *testing.T) {
	g := pathGraph(t, 3)
	for _, s := range PartitionStrategies() {
		p, err := PartitionGraph(g, 8, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		// Empty parts are allowed; every vertex still has exactly one owner.
		if len(p.Owner) != 3 {
			t.Fatalf("%s: %d owners, want 3", s, len(p.Owner))
		}
		for v, o := range p.Owner {
			if o < 0 || int(o) >= 8 {
				t.Fatalf("%s: Owner[%d] = %d out of range", s, v, o)
			}
		}
	}
}

func TestPartitionSingleVertex(t *testing.T) {
	g, err := FromAdjList([][]int32{nil})
	if err != nil {
		t.Fatalf("FromAdjList: %v", err)
	}
	for _, s := range PartitionStrategies() {
		p, err := PartitionGraph(g, 4, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if cut := cutArcs(g, p); cut != 0 {
			t.Fatalf("%s: %d cut arcs, want 0", s, cut)
		}
		if vertexCounts(p)[p.Owner[0]] != 1 {
			t.Fatalf("%s: owner count mismatch: %v", s, vertexCounts(p))
		}
	}
}

// TestPartitionGreedyHandComputed walks the LDG assignment on the path
// 0-1-2-3 with K=2 (capacity ceil(4/2)=2) by hand:
//
//	DegreeOrder = [1 2 0 3] (degree desc, id asc).
//	v1: no assigned neighbors -> least-loaded -> part 0. sizes [1 0]
//	v2: neighbor 1 in part 0, score 1*(1-1/2)=0.5 > 0 -> part 0. sizes [2 0]
//	v0: neighbor 1 in part 0, score 1*(1-2/2)=0 (full) -> fallback -> part 1
//	v3: neighbor 2 in part 0, score 0 -> fallback -> part 1. sizes [2 2]
//
// Owner = [1 0 0 1]; cut arcs {0-1, 1-0, 2-3, 3-2} -> 4 cut arcs.
func TestPartitionGreedyHandComputed(t *testing.T) {
	g := pathGraph(t, 4)
	p, err := PartitionGraph(g, 2, PartitionGreedy)
	if err != nil {
		t.Fatalf("PartitionGraph: %v", err)
	}
	if want := []int32{1, 0, 0, 1}; !reflect.DeepEqual(p.Owner, want) {
		t.Fatalf("Owner = %v, want %v", p.Owner, want)
	}
	if cut := cutArcs(g, p); cut != 4 {
		t.Fatalf("%d cut arcs, want 4", cut)
	}
	if !reflect.DeepEqual(vertexCounts(p), []int{2, 2}) {
		t.Fatalf("vertex counts = %v, want [2 2]", vertexCounts(p))
	}
}

// TestPartitionGreedyCutsLessThanHash checks the heuristic earns its
// keep on a clustered graph: two dense blobs joined by one bridge edge.
func TestPartitionGreedyCutsLessThanHash(t *testing.T) {
	const half = 16
	adj := make([][]int32, 2*half)
	clique := func(base int) {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				if i != j {
					adj[base+i] = append(adj[base+i], int32(base+j))
				}
			}
		}
	}
	clique(0)
	clique(half)
	adj[half-1] = append(adj[half-1], int32(half))
	adj[half] = append(adj[half], int32(half-1))
	g, err := FromAdjList(adj)
	if err != nil {
		t.Fatalf("FromAdjList: %v", err)
	}
	greedy, err := PartitionGraph(g, 2, PartitionGreedy)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	hash, err := PartitionGraph(g, 2, PartitionHash)
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	// Hash cuts ~half the arcs in expectation; greedy should keep most
	// of each blob together. (LDG is not optimal — the two bridge hubs
	// are placed first and one gets pulled across — but it must beat
	// hash by a wide margin.)
	greedyCut, hashCut := cutArcs(g, greedy), cutArcs(g, hash)
	if greedyCut >= hashCut {
		t.Fatalf("greedy cut %d not better than hash cut %d", greedyCut, hashCut)
	}
	if lim := g.NumEdges() / 4; greedyCut > lim {
		t.Fatalf("greedy cuts %d arcs, want <= %d (quarter of arcs)", greedyCut, lim)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := pathGraph(t, 100)
	for _, s := range PartitionStrategies() {
		a, err := PartitionGraph(g, 4, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		b, err := PartitionGraph(g, 4, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: partition not deterministic", s)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := PartitionGraph(g, 0, PartitionHash); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := PartitionGraph(g, 2, "metis"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := PartitionGraph(nil, 2, PartitionHash); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestPartitionGreedyBalanceCap(t *testing.T) {
	// A star graph tempts greedy to pile everything onto the hub's part;
	// the capacity term must keep every part at <= ceil(n/k).
	const n = 33
	adj := make([][]int32, n)
	for v := 1; v < n; v++ {
		adj[0] = append(adj[0], int32(v))
		adj[v] = append(adj[v], 0)
	}
	g, err := FromAdjList(adj)
	if err != nil {
		t.Fatalf("FromAdjList: %v", err)
	}
	p, err := PartitionGraph(g, 4, PartitionGreedy)
	if err != nil {
		t.Fatalf("PartitionGraph: %v", err)
	}
	cap := (n + 3) / 4
	for k, c := range vertexCounts(p) {
		if c > cap {
			t.Fatalf("part %d has %d vertices, cap %d", k, c, cap)
		}
	}
}

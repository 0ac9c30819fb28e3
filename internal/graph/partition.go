package graph

import (
	"fmt"
	"slices"
)

// K-way vertex partitioning for multi-device training. A Partition
// assigns every vertex to exactly one of K parts; the part that owns a
// vertex stores its feature row, and any other part that needs the row
// (because one of its own vertices has an arc to it) must fetch it over
// the inter-device interconnect. The halo traffic itself is counted per
// batch by the backend, not precomputed here.

// PartitionStrategy selects the vertex-assignment heuristic.
type PartitionStrategy string

const (
	// PartitionHash assigns vertices by a splitmix64 hash of the vertex
	// id: O(V), perfectly streaming, expected balance within O(sqrt) of
	// uniform, but oblivious to structure — the expected cut fraction is
	// (K-1)/K.
	PartitionHash PartitionStrategy = "hash"
	// PartitionGreedy is linear deterministic greedy (LDG) over
	// DegreeOrder: each vertex joins the part holding most of its
	// already-assigned neighbors, weighted by remaining capacity.
	// High-degree vertices are placed first so the hubs that dominate
	// boundary traffic anchor their neighborhoods.
	PartitionGreedy PartitionStrategy = "greedy"
)

// Valid reports whether s names a known strategy.
func (s PartitionStrategy) Valid() bool {
	return s == PartitionHash || s == PartitionGreedy
}

// PartitionStrategies lists the known strategies in stable order.
func PartitionStrategies() []PartitionStrategy {
	return []PartitionStrategy{PartitionHash, PartitionGreedy}
}

// Partition is a K-way vertex partition of a graph.
type Partition struct {
	// K is the number of parts. Parts may be empty when K exceeds the
	// vertex count.
	K int
	// Owner[v] is the part index owning vertex v, in [0, K).
	Owner []int32
}

// PartitionGraph partitions g into k parts with the given strategy.
func PartitionGraph(g *Graph, k int, strategy PartitionStrategy) (*Partition, error) {
	if g == nil {
		return nil, fmt.Errorf("graph: partition: nil graph")
	}
	if k < 1 {
		return nil, fmt.Errorf("graph: partition: k = %d, want >= 1", k)
	}
	if !strategy.Valid() {
		return nil, fmt.Errorf("graph: partition: unknown strategy %q (have %v)", strategy, PartitionStrategies())
	}
	n := g.NumVertices()
	owner := make([]int32, n)
	switch {
	case k == 1:
		// Identity: everything in part 0.
	case strategy == PartitionHash:
		for v := range owner {
			owner[v] = int32(splitmix64(uint64(v)) % uint64(k))
		}
	default:
		assignGreedy(g, k, owner)
	}
	return &Partition{K: k, Owner: owner}, nil
}

// assignGreedy fills owner with the LDG assignment: walk vertices in
// DegreeOrder; each joins the part p maximizing
// |assigned neighbors in p| * (1 - size(p)/C), with capacity
// C = ceil(n/k). A part at capacity scores <= 0 and is never chosen by
// affinity, so no part exceeds C; a vertex with no positive-scoring part
// (no assigned neighbors, or all of them in full parts) falls back to
// the least-loaded part. All ties break toward the lower part index, so
// the assignment is deterministic.
func assignGreedy(g *Graph, k int, owner []int32) {
	n := len(owner)
	for v := range owner {
		owner[v] = -1
	}
	capacity := (n + k - 1) / k
	sizes := make([]int, k)
	affinity := make([]int, k) // scratch: assigned-neighbor count per part
	touched := make([]int32, 0, 64)
	for _, v := range g.DegreeOrder() {
		for _, u := range g.Neighbors(v) {
			if o := owner[u]; o >= 0 {
				if affinity[o] == 0 {
					touched = append(touched, o)
				}
				affinity[o]++
			}
		}
		best, bestScore := int32(-1), 0.0
		// Iterate touched parts in index order so equal scores pick the
		// lower index regardless of neighbor order.
		slices.Sort(touched)
		for _, p := range touched {
			score := float64(affinity[p]) * (1 - float64(sizes[p])/float64(capacity))
			if score > bestScore {
				best, bestScore = p, score
			}
			affinity[p] = 0
		}
		touched = touched[:0]
		if best < 0 {
			best = leastLoaded(sizes)
		}
		owner[v] = best
		sizes[best]++
	}
}

// leastLoaded returns the lowest-index part with minimum size.
func leastLoaded(sizes []int) int32 {
	best := 0
	for p := 1; p < len(sizes); p++ {
		if sizes[p] < sizes[best] {
			best = p
		}
	}
	return int32(best)
}

// splitmix64 is the SplitMix64 finalizer, the same mixer the sampling
// layer uses for per-batch seeds. It is bijective, so hash partitioning
// inherits its full avalanche behavior.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

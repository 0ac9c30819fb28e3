package sample

import (
	"math"
	"math/rand"
	"slices"

	"gnnavigator/internal/graph"
	"gnnavigator/internal/tensor"
)

// Frozen map-based batch assembly.
//
// This file preserves the pre-frontier implementation of every sampler:
// per-block `map[int32]int32` position tables, `map[int32]bool` dedup
// sets and growth-by-append index slices. It exists so the old-vs-new
// equivalence tests can pin the stamped frontier path to be
// bitwise-identical to this reference (both consume the RNG in exactly
// the same order). It is reference code — do not optimize it.

// NewMapReference returns a frozen map-based sampler that consumes its
// RNG identically to s and therefore produces bitwise-identical
// mini-batches for any (rng, graph, targets). It returns nil when s is
// not one of the built-in sampler kinds.
func NewMapReference(s Sampler) Sampler {
	switch v := s.(type) {
	case *NodeWise:
		return &mapRefNodeWise{fanouts: v.Fanouts, bias: v.Bias, strength: v.BiasStrength}
	case *LayerWise:
		return &mapRefLayerWise{deltas: v.Deltas}
	case *SubgraphWise:
		return &mapRefSubgraphWise{walkLength: v.WalkLength, layers: v.Layers}
	}
	return nil
}

// mapPickScratch is the frozen pre-overlay neighbor-selection scratch:
// the uniform branch shuffles a full copy of the neighborhood (O(degree)
// per destination) where the live path's sparse Fisher-Yates overlay is
// O(fanout). Draw-for-draw the RNG consumption and the returned picks are
// identical to pickScratch.pickNeighbors.
type mapPickScratch struct {
	tmp     []int32
	weights []float64
	taken   []bool
	out     []int32
}

func (sc *mapPickScratch) pickNeighbors(rng *rand.Rand, ns []int32, fanout int, bias BiasFunc, strength float64) []int32 {
	if fanout <= 0 || fanout >= len(ns) {
		sc.tmp = tensor.Grow(sc.tmp, len(ns))
		copy(sc.tmp, ns)
		return sc.tmp
	}
	if bias == nil || strength <= 0 {
		// Partial Fisher-Yates over a scratch copy.
		sc.tmp = tensor.Grow(sc.tmp, len(ns))
		tmp := sc.tmp
		copy(tmp, ns)
		for i := 0; i < fanout; i++ {
			j := i + rng.Intn(len(tmp)-i)
			tmp[i], tmp[j] = tmp[j], tmp[i]
		}
		return tmp[:fanout]
	}
	// Weighted sampling without replacement via repeated draws.
	sc.weights = tensor.Grow(sc.weights, len(ns))
	sc.taken = tensor.Grow(sc.taken, len(ns))
	weights := sc.weights
	taken := sc.taken
	var total float64
	for i, u := range ns {
		w := 1 + strength*bias(u)
		if w < 0 {
			w = 0
		}
		weights[i] = w
		taken[i] = false
		total += w
	}
	out := tensor.Grow(sc.out, fanout)[:0]
	for len(out) < fanout && total > 1e-12 {
		r := rng.Float64() * total
		var acc float64
		for i, w := range weights {
			if taken[i] {
				continue
			}
			acc += w
			if r <= acc {
				out = append(out, ns[i])
				taken[i] = true
				total -= w
				break
			}
		}
	}
	sc.out = out[:0]
	return out
}

type mapRefNodeWise struct {
	fanouts  []int
	bias     BiasFunc
	strength float64
	scratch  mapPickScratch
}

func (s *mapRefNodeWise) Name() string   { return "node-wise/mapref" }
func (s *mapRefNodeWise) NumLayers() int { return len(s.fanouts) }

func (s *mapRefNodeWise) Sample(rng *rand.Rand, g *graph.Graph, targets []int32) *MiniBatch {
	L := len(s.fanouts)
	blocks := make([]Block, L)
	dst := dedup(targets)
	var totalEdges int
	for h := 0; h < L; h++ {
		blk := expandMap(rng, g, dst, s.fanouts[h], s.bias, s.strength, &s.scratch)
		blocks[L-1-h] = blk
		totalEdges += blk.NumEdges()
		dst = blk.SrcNodes
	}
	return &MiniBatch{
		Blocks:      blocks,
		Targets:     blocks[L-1].SrcNodes[:blocks[L-1].DstCount],
		InputNodes:  blocks[0].SrcNodes,
		NumVertices: len(blocks[0].SrcNodes),
		NumEdges:    totalEdges,
	}
}

// expandMap is the pre-frontier expand: a fresh position map per block and
// append-grown src/indices.
func expandMap(rng *rand.Rand, g *graph.Graph, dst []int32, fanout int, bias BiasFunc, biasStrength float64, sc *mapPickScratch) Block {
	srcPos := make(map[int32]int32, len(dst)*2)
	src := make([]int32, len(dst))
	copy(src, dst)
	for i, v := range dst {
		srcPos[v] = int32(i)
	}
	offsets := make([]int32, len(dst)+1)
	var indices []int32
	for i, v := range dst {
		offsets[i] = int32(len(indices))
		ns := g.Neighbors(v)
		if len(ns) == 0 {
			continue
		}
		picks := sc.pickNeighbors(rng, ns, fanout, bias, biasStrength)
		for _, u := range picks {
			pos, ok := srcPos[u]
			if !ok {
				pos = int32(len(src))
				src = append(src, u)
				srcPos[u] = pos
			}
			indices = append(indices, pos)
		}
	}
	offsets[len(dst)] = int32(len(indices))
	return Block{SrcNodes: src, DstCount: len(dst), Offsets: offsets, Indices: indices}
}

type mapRefLayerWise struct {
	deltas []int
}

func (s *mapRefLayerWise) Name() string   { return "layer-wise/mapref" }
func (s *mapRefLayerWise) NumLayers() int { return len(s.deltas) }

func (s *mapRefLayerWise) Sample(rng *rand.Rand, g *graph.Graph, targets []int32) *MiniBatch {
	L := len(s.deltas)
	blocks := make([]Block, L)
	dst := dedup(targets)
	var totalEdges int
	for h := 0; h < L; h++ {
		blk := expandLayerWiseMap(rng, g, dst, s.deltas[h])
		blocks[L-1-h] = blk
		totalEdges += blk.NumEdges()
		dst = blk.SrcNodes
	}
	return &MiniBatch{
		Blocks:      blocks,
		Targets:     blocks[L-1].SrcNodes[:blocks[L-1].DstCount],
		InputNodes:  blocks[0].SrcNodes,
		NumVertices: len(blocks[0].SrcNodes),
		NumEdges:    totalEdges,
	}
}

func expandLayerWiseMap(rng *rand.Rand, g *graph.Graph, dst []int32, delta int) Block {
	weight := make(map[int32]int)
	for _, v := range dst {
		for _, u := range g.Neighbors(v) {
			weight[u]++
		}
	}
	srcPos := make(map[int32]int32, len(dst)+delta)
	src := make([]int32, len(dst))
	copy(src, dst)
	for i, v := range dst {
		srcPos[v] = int32(i)
	}
	type cand struct {
		v   int32
		key float64
	}
	vs := make([]int32, 0, len(weight))
	for v := range weight {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	cands := make([]cand, 0, len(weight))
	for _, v := range vs {
		key := math.Pow(rng.Float64(), 1/float64(weight[v]))
		cands = append(cands, cand{v, key})
	}
	if delta > len(cands) {
		delta = len(cands)
	}
	for i := 0; i < delta; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].key > cands[best].key {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	selected := make(map[int32]bool, delta)
	for i := 0; i < delta; i++ {
		selected[cands[i].v] = true
	}
	for _, v := range dst {
		selected[v] = true
	}
	offsets := make([]int32, len(dst)+1)
	var indices []int32
	for i, v := range dst {
		offsets[i] = int32(len(indices))
		for _, u := range g.Neighbors(v) {
			if !selected[u] {
				continue
			}
			pos, ok := srcPos[u]
			if !ok {
				pos = int32(len(src))
				src = append(src, u)
				srcPos[u] = pos
			}
			indices = append(indices, pos)
		}
	}
	offsets[len(dst)] = int32(len(indices))
	return Block{SrcNodes: src, DstCount: len(dst), Offsets: offsets, Indices: indices}
}

type mapRefSubgraphWise struct {
	walkLength int
	layers     int
}

func (s *mapRefSubgraphWise) Name() string   { return "subgraph-wise/mapref" }
func (s *mapRefSubgraphWise) NumLayers() int { return s.layers }

func (s *mapRefSubgraphWise) Sample(rng *rand.Rand, g *graph.Graph, targets []int32) *MiniBatch {
	roots := dedup(targets)
	inSet := make(map[int32]int32, len(roots)*(s.walkLength+1))
	nodes := make([]int32, 0, len(roots)*(s.walkLength+1))
	add := func(v int32) {
		if _, ok := inSet[v]; !ok {
			inSet[v] = int32(len(nodes))
			nodes = append(nodes, v)
		}
	}
	for _, r := range roots {
		add(r)
		cur := r
		for step := 0; step < s.walkLength; step++ {
			ns := g.Neighbors(cur)
			if len(ns) == 0 {
				break
			}
			cur = ns[rng.Intn(len(ns))]
			add(cur)
		}
	}
	offsets := make([]int32, len(nodes)+1)
	var indices []int32
	for i, v := range nodes {
		offsets[i] = int32(len(indices))
		for _, u := range g.Neighbors(v) {
			if pos, ok := inSet[u]; ok {
				indices = append(indices, pos)
			}
		}
	}
	offsets[len(nodes)] = int32(len(indices))

	L := s.layers
	if L < 1 {
		L = 1
	}
	blocks := make([]Block, L)
	var totalEdges int
	for l := 0; l < L; l++ {
		blocks[l] = Block{
			SrcNodes: nodes,
			DstCount: len(nodes),
			Offsets:  offsets,
			Indices:  indices,
		}
		totalEdges += len(indices)
	}
	return &MiniBatch{
		Blocks:      blocks,
		Targets:     nodes,
		InputNodes:  nodes,
		NumVertices: len(nodes),
		NumEdges:    totalEdges,
	}
}

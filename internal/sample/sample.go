// Package sample implements the paper's unified sampler abstraction
// (Eq. 2): every sampler iteratively fans out neighbors from a target
// vertex set at some probability p(η), producing a layered mini-batch.
//
// Four concrete strategies are provided, matching Fig. 3's "Sampler
// Choices": node-wise (GraphSAGE), layer-wise (FastGCN, via the Eq. 3
// expectation), subgraph-wise (GraphSAINT random walks), and
// locality-aware biased sampling (2PGraph, where p(η) favors
// device-cached vertices).
//
// Batch assembly is map-free: vertex dedup and global→local position
// remapping run on epoch-stamped dense frontier tables (Frontier) owned
// by each sampler, and every slice a MiniBatch keeps is sized to its
// exact upper bound. Each sampler has one body, SampleInto, which refills
// a caller's MiniBatch in place and grows a slice only when it is short:
// steady state it performs no hashing and no allocation. Sample is
// SampleInto on a fresh MiniBatch, so it allocates only the slices it
// returns. TestGoldenSampleStream pins every strategy's output to a
// digest recorded against the hash-map implementation this replaced.
package sample

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"gnnavigator/internal/graph"
	"gnnavigator/internal/tensor"
)

// Block is one layer of message flow in a sampled mini-batch.
//
// SrcNodes lists global vertex ids; its first DstCount entries are this
// block's destination (output) vertices, so a block's destinations are a
// prefix of its sources. Neighbors of destination i are
// SrcNodes[Indices[Offsets[i]:Offsets[i+1]]].
type Block struct {
	SrcNodes []int32
	DstCount int
	Offsets  []int32
	Indices  []int32
}

// NumEdges returns the number of sampled message edges in the block.
func (b *Block) NumEdges() int { return len(b.Indices) }

// MiniBatch is a layered sample: Blocks[0] is consumed by the first
// (input-most) GNN layer and Blocks[len-1] produces the target outputs.
// Invariant: Blocks[l+1].SrcNodes == Blocks[l].SrcNodes[:Blocks[l].DstCount].
type MiniBatch struct {
	Blocks  []Block
	Targets []int32

	// InputNodes aliases Blocks[0].SrcNodes: the vertices whose raw
	// features must be resident on the device (the transmission volume of
	// Algo. 1 line 3 before cache filtering).
	InputNodes []int32

	// NumVertices is |V_i|: the number of distinct vertices in the batch.
	NumVertices int
	// NumEdges is the total sampled edges across blocks.
	NumEdges int
}

// Validate checks the structural invariants that the GNN trainer relies
// on. It is used by tests and by the backend in debug paths.
func (mb *MiniBatch) Validate() error {
	if len(mb.Blocks) == 0 {
		return fmt.Errorf("sample: minibatch has no blocks")
	}
	last := mb.Blocks[len(mb.Blocks)-1]
	if last.DstCount != len(mb.Targets) {
		return fmt.Errorf("sample: last block dst %d != targets %d", last.DstCount, len(mb.Targets))
	}
	for l, b := range mb.Blocks {
		if b.DstCount > len(b.SrcNodes) {
			return fmt.Errorf("sample: block %d dst %d > src %d", l, b.DstCount, len(b.SrcNodes))
		}
		if len(b.Offsets) != b.DstCount+1 {
			return fmt.Errorf("sample: block %d offsets len %d != dst+1", l, len(b.Offsets))
		}
		if int(b.Offsets[b.DstCount]) != len(b.Indices) {
			return fmt.Errorf("sample: block %d offsets end %d != indices %d", l, b.Offsets[b.DstCount], len(b.Indices))
		}
		for _, ix := range b.Indices {
			if ix < 0 || int(ix) >= len(b.SrcNodes) {
				return fmt.Errorf("sample: block %d index %d out of range", l, ix)
			}
		}
		if l+1 < len(mb.Blocks) {
			next := mb.Blocks[l+1]
			if len(next.SrcNodes) != b.DstCount {
				return fmt.Errorf("sample: block %d->%d src/dst chain broken", l, l+1)
			}
			for i := range next.SrcNodes {
				if next.SrcNodes[i] != b.SrcNodes[i] {
					return fmt.Errorf("sample: block %d->%d node order mismatch at %d", l, l+1, i)
				}
			}
		}
	}
	if len(mb.InputNodes) != len(mb.Blocks[0].SrcNodes) {
		return fmt.Errorf("sample: InputNodes not aliased to first block")
	}
	return nil
}

// Sampler produces mini-batches from target vertex sets. The three
// samplers here are also Refillers.
type Sampler interface {
	Name() string
	// Sample expands targets into a layered mini-batch using rng. The
	// batch is the caller's to keep.
	Sample(rng *rand.Rand, g *graph.Graph, targets []int32) *MiniBatch
	// NumLayers reports how many blocks Sample produces.
	NumLayers() int
}

// Refiller is the in-place form of a Sampler. SampleInto is the body
// Sample runs on a fresh MiniBatch: it refills mb's blocks in place, so
// the batch it returns is valid only until the next call with the same
// mb. mb must own its slices — fresh, or last filled by the same
// sampler — never a replayed plan batch that aliases plan arrays.
type Refiller interface {
	Sampler
	SampleInto(rng *rand.Rand, g *graph.Graph, targets []int32, mb *MiniBatch) *MiniBatch
}

// BiasFunc scores a candidate neighbor; higher means more likely to be
// selected. A nil BiasFunc means unbiased (uniform) sampling. The 2PGraph
// template wires cache residency in here.
type BiasFunc func(v int32) float64

// Residency is the device-residency view a locality-aware bias reads —
// the feature plane (cache.FeatureSource) implements it. The pipeline
// samples each batch on the goroutine that updates the cache, after the
// previous batch's update, so the reads are deterministic even when the
// underlying residency is dynamic (FIFO/LRU).
type Residency interface {
	Resident(v int32) bool
}

// ResidencyBias returns the 2PGraph p(η): score 1 for device-resident
// vertices, 0 otherwise.
func ResidencyBias(r Residency) BiasFunc {
	return func(v int32) float64 {
		if r.Resident(v) {
			return 1
		}
		return 0
	}
}

// Frontier is the epoch-stamped dense vertex table (graph.Frontier) that
// replaced every hash map in the batch-assembly hot path: membership is
// stamp[v] == epoch, lookup is one array read, and reset is an epoch
// bump. Each sampler owns the Frontier scratch it needs, one per pipeline
// producer, so steady-state sampling performs no hashing and no
// per-batch table allocation.
type Frontier = graph.Frontier

// dedupWith writes the distinct elements of vs into buf (reused across
// calls) in first-occurrence order, using fr as the membership table over
// vertex ids in [0, n). The returned slice aliases buf's storage.
func dedupWith(fr *Frontier, n int, buf, vs []int32) []int32 {
	fr.Reset(n)
	out := tensor.Grow(buf, len(vs))[:0]
	for _, v := range vs {
		if _, seen := fr.PosOrInsert(v, 0); !seen {
			out = append(out, v)
		}
	}
	return out
}

// refillBlocks sizes mb.Blocks to L, keeping every block's slices for
// the samplers to refill.
func (mb *MiniBatch) refillBlocks(L int) []Block {
	if cap(mb.Blocks) < L {
		blocks := make([]Block, L)
		copy(blocks, mb.Blocks[:cap(mb.Blocks)])
		mb.Blocks = blocks
	}
	mb.Blocks = mb.Blocks[:L]
	return mb.Blocks
}

// seal derives the batch-level fields from freshly refilled blocks.
func (mb *MiniBatch) seal() *MiniBatch {
	last := &mb.Blocks[len(mb.Blocks)-1]
	mb.Targets = last.SrcNodes[:last.DstCount]
	mb.InputNodes = mb.Blocks[0].SrcNodes
	mb.NumVertices = len(mb.InputNodes)
	mb.NumEdges = 0
	for l := range mb.Blocks {
		mb.NumEdges += mb.Blocks[l].NumEdges()
	}
	return mb
}

// --- node-wise (GraphSAGE) -------------------------------------------------

// NodeWise samples Fanouts[h] neighbors per destination at hop h from the
// targets (hop 0 feeds the last GNN layer). A non-nil Bias skews neighbor
// choice, with BiasStrength in [0,1] interpolating between uniform (0) and
// fully bias-driven (1) selection — this realizes the paper's p(η).
//
// The sampler owns reusable scratch (neighbor-selection buffers plus the
// epoch-stamped Frontier position table), so a NodeWise value must not be
// shared across concurrent Sample calls. In the pipelined engine
// (internal/pipeline) every Sample call happens on the single producer
// goroutine, which satisfies this contract; the scratch
// never leaks into the returned MiniBatch, so batches Sample hands
// downstream stay valid while later batches are sampled.
type NodeWise struct {
	Fanouts      []int
	Bias         BiasFunc
	BiasStrength float64

	scratch  pickScratch
	frontier Frontier
	dedupBuf []int32
}

// Name implements Sampler.
func (s *NodeWise) Name() string { return "node-wise" }

// NumLayers implements Sampler.
func (s *NodeWise) NumLayers() int { return len(s.Fanouts) }

// Sample implements Sampler.
func (s *NodeWise) Sample(rng *rand.Rand, g *graph.Graph, targets []int32) *MiniBatch {
	return s.SampleInto(rng, g, targets, &MiniBatch{})
}

// SampleInto refills mb with targets' batch and returns it; see Refiller
// for what mb may be and how long the result stays valid.
func (s *NodeWise) SampleInto(rng *rand.Rand, g *graph.Graph, targets []int32, mb *MiniBatch) *MiniBatch {
	L := len(s.Fanouts)
	blocks := mb.refillBlocks(L)
	dst := dedupWith(&s.frontier, g.NumVertices(), s.dedupBuf, targets)
	s.dedupBuf = dst
	for h := 0; h < L; h++ {
		blk := &blocks[L-1-h]
		expand(rng, g, dst, s.Fanouts[h], s.Bias, s.BiasStrength, &s.scratch, &s.frontier, blk)
		dst = blk.SrcNodes
	}
	return mb.seal()
}

// expand refills blk with one block: every dst samples up to fanout
// neighbors. Position lookup runs on the epoch-stamped frontier table,
// and the three slices are sized to their exact upper bounds (every dst
// contributes at most fanout edges, each edge introduces at most one new
// source), so a block grows at most its three slices and hashes nothing.
func expand(rng *rand.Rand, g *graph.Graph, dst []int32, fanout int, bias BiasFunc, biasStrength float64, sc *pickScratch, fr *Frontier, blk *Block) {
	fr.Reset(g.NumVertices())
	edgeBound := 0
	if fanout > 0 {
		edgeBound = len(dst) * fanout
	} else {
		for _, v := range dst {
			edgeBound += g.Degree(v)
		}
	}
	src := tensor.Grow(blk.SrcNodes, len(dst)+edgeBound)[:len(dst)]
	copy(src, dst)
	for i, v := range dst {
		fr.Set(v, int32(i))
	}
	offsets := tensor.Grow(blk.Offsets, len(dst)+1)
	indices := tensor.Grow(blk.Indices, edgeBound)[:0]
	for i, v := range dst {
		offsets[i] = int32(len(indices))
		ns := g.Neighbors(v)
		if len(ns) == 0 {
			continue
		}
		// Whole neighborhood (fanout <= 0 or >= degree, the common case at
		// small fanouts): no RNG is consumed and this loop only reads
		// picks, so aliasing the graph's own CSR slice is safe and skips
		// any defensive copy.
		picks := ns
		if fanout > 0 && fanout < len(ns) {
			picks = sc.pickNeighbors(rng, ns, fanout, bias, biasStrength)
		}
		for _, u := range picks {
			pos, seen := fr.PosOrInsert(u, int32(len(src)))
			if !seen {
				src = append(src, u)
			}
			indices = append(indices, pos)
		}
	}
	offsets[len(dst)] = int32(len(indices))
	*blk = Block{SrcNodes: src, DstCount: len(dst), Offsets: offsets, Indices: indices}
}

// pickScratch holds the reusable buffers neighbor selection needs, so
// the per-destination hot path allocates nothing after warm-up. The
// returned slices alias the scratch: callers must consume a pick before
// requesting the next one.
type pickScratch struct {
	tmp     []int32
	overlay Frontier // displaced-slot overlay for the sparse Fisher-Yates
	weights []float64
	taken   []bool
	out     []int32
}

// pickNeighbors selects fanout neighbors without replacement; callers
// must ensure 0 < fanout < len(ns) — taking the whole neighborhood
// consumes no randomness, and expand handles it inline by aliasing the
// CSR slice read-only. With a bias, selection is a weighted draw where
// weight(u) = 1 + strength*bias(u). The hub overlay draws and picks
// exactly as the scratch-copy Fisher-Yates would, so a batch depends on
// the seed alone, not on which branch a neighbourhood takes.
func (sc *pickScratch) pickNeighbors(rng *rand.Rand, ns []int32, fanout int, bias BiasFunc, strength float64) []int32 {
	if bias == nil || strength <= 0 {
		if len(ns) > 64 && len(ns) > 4*fanout {
			// Hub neighborhoods: sparse partial Fisher-Yates. Draws and
			// picks are bitwise-identical to shuffling a full copy of ns,
			// but only the slots the shuffle actually displaces are
			// materialized, in an epoch-stamped overlay indexed by
			// neighbor position — O(fanout), not O(degree). Slot i is
			// never read after draw i (j >= i always), so recording the
			// swap's write to slot j alone suffices.
			sc.overlay.Reset(len(ns))
			out := tensor.Grow(sc.out, fanout)
			sc.out = out
			for i := 0; i < fanout; i++ {
				j := i + rng.Intn(len(ns)-i)
				vi := ns[i]
				if p, ok := sc.overlay.Pos(int32(i)); ok {
					vi = p
				}
				vj := ns[j]
				if p, ok := sc.overlay.Pos(int32(j)); ok {
					vj = p
				}
				out[i] = vj
				sc.overlay.Set(int32(j), vi)
			}
			return out
		}
		// Typical neighborhoods: partial Fisher-Yates over a scratch copy.
		// Below the hub threshold one small memcopy beats per-draw overlay
		// bookkeeping.
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

// --- layer-wise (FastGCN) ---------------------------------------------------

// LayerWise implements FastGCN-style importance sampling: at each hop a
// fixed budget Delta[h] of distinct vertices is drawn from the candidate
// neighborhood with probability proportional to degree. Eq. 3 of the paper
// shows this is the unified abstraction with E[k_l] = Δ_l/|B_l| · μ.
//
// Like NodeWise, the sampler owns reusable frontier/candidate scratch and
// must not be shared across concurrent Sample calls.
type LayerWise struct {
	// Deltas[h] is the vertex budget at hop h from the targets.
	Deltas []int

	count    Frontier // candidate multiplicities, then the selected set
	pos      Frontier // source position table
	dedupBuf []int32
	touched  []uint64 // candidate bitmap over vertex ids, all zero between hops
	cands    []lwCand
}

// lwCand pairs a candidate vertex with its Efraimidis–Spirakis key.
type lwCand struct {
	v   int32
	key float64
}

// lwBefore is the strict order the budget is taken in: key descending,
// then vertex id ascending. An exact key tie takes two draws rounding to
// the same float64; the id breaks it, so the top-δ set is unique.
func lwBefore(a, b lwCand) bool {
	return a.key > b.key || (a.key == b.key && a.v < b.v)
}

// selectTop reorders c in place so that c[:k] holds its k first
// candidates under lwBefore, in no particular order (Hoare's FIND:
// quickselect, O(len(c)) expected). It needs 0 <= k < len(c); because
// lwBefore is strict, the set it leaves in c[:k] is the one a full sort
// would put there.
func selectTop(c []lwCand, k int) {
	lo, hi := 0, len(c)-1
	for lo < hi {
		pivot := c[k]
		i, j := lo, hi
		for i <= j {
			for lwBefore(c[i], pivot) {
				i++
			}
			for lwBefore(pivot, c[j]) {
				j--
			}
			if i <= j {
				c[i], c[j] = c[j], c[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// Name implements Sampler.
func (s *LayerWise) Name() string { return "layer-wise" }

// NumLayers implements Sampler.
func (s *LayerWise) NumLayers() int { return len(s.Deltas) }

// Sample implements Sampler.
func (s *LayerWise) Sample(rng *rand.Rand, g *graph.Graph, targets []int32) *MiniBatch {
	return s.SampleInto(rng, g, targets, &MiniBatch{})
}

// SampleInto refills mb with targets' batch and returns it; see Refiller
// for what mb may be and how long the result stays valid.
func (s *LayerWise) SampleInto(rng *rand.Rand, g *graph.Graph, targets []int32, mb *MiniBatch) *MiniBatch {
	L := len(s.Deltas)
	blocks := mb.refillBlocks(L)
	dst := dedupWith(&s.count, g.NumVertices(), s.dedupBuf, targets)
	s.dedupBuf = dst
	for h := 0; h < L; h++ {
		blk := &blocks[L-1-h]
		s.expand(rng, g, dst, s.Deltas[h], blk)
		dst = blk.SrcNodes
	}
	return mb.seal()
}

func (s *LayerWise) expand(rng *rand.Rand, g *graph.Graph, dst []int32, delta int, blk *Block) {
	// Candidate pool: union of all dst neighborhoods, weighted by the
	// number of dst vertices adjacent to each candidate (degree-importance).
	// The multiplicity lives in the stamped count table; the touched bitmap
	// marks first-seen candidates so they can be revisited without map
	// iteration. An edge bound for the final indices slice falls out of
	// the same pass.
	n := g.NumVertices()
	s.count.Reset(n)
	touched := tensor.Grow(s.touched, (n+63)/64)
	s.touched = touched
	edgeBound, nc := 0, 0
	for _, v := range dst {
		edgeBound += g.Degree(v)
		for _, u := range g.Neighbors(v) {
			if c, seen := s.count.PosOrInsert(u, 1); seen {
				s.count.Set(u, c+1)
			} else {
				touched[u>>6] |= 1 << (u & 63)
				nc++
			}
		}
	}
	// Weighted reservoir-ish draw of delta distinct candidates.
	// Candidates are keyed in ascending vertex order, which fixes the rng
	// consumption (and hence the draw) independent of any table layout.
	// A scan of the bitmap yields that order in O(n/64 + candidates) and
	// leaves the bitmap zeroed.
	cands := tensor.Grow(s.cands, nc)
	s.cands = cands
	i := 0
	for k, word := range touched {
		if word == 0 {
			continue
		}
		touched[k] = 0
		for ; word != 0; word &= word - 1 {
			v := int32(k<<6 | bits.TrailingZeros64(word))
			// Efraimidis–Spirakis: key = U^(1/w); take top delta keys.
			w, _ := s.count.Pos(v)
			cands[i] = lwCand{v, math.Pow(rng.Float64(), 1/float64(w))}
			i++
		}
	}
	// Only the set of the top-delta keys is read below (membership goes
	// into selected; src order comes from the dst-neighbour walk), so when
	// delta covers every candidate there is nothing to select, and
	// otherwise a quickselect that puts the top delta first will do.
	if delta >= len(cands) {
		delta = len(cands)
	} else {
		selectTop(cands, delta)
	}
	// The counts are dead once the keys are drawn: recycle the count table
	// as the selected-membership set.
	selected := &s.count
	selected.Reset(n)
	for i := 0; i < delta; i++ {
		selected.Set(cands[i].v, 0)
	}
	for _, v := range dst { // dst vertices always usable as sources
		selected.Set(v, 0)
	}
	s.pos.Reset(n)
	src := tensor.Grow(blk.SrcNodes, len(dst)+delta)[:len(dst)]
	copy(src, dst)
	for i, v := range dst {
		s.pos.Set(v, int32(i))
	}
	offsets := tensor.Grow(blk.Offsets, len(dst)+1)
	indices := tensor.Grow(blk.Indices, edgeBound)[:0]
	for i, v := range dst {
		offsets[i] = int32(len(indices))
		for _, u := range g.Neighbors(v) {
			if !selected.Has(u) {
				continue
			}
			pos, seen := s.pos.PosOrInsert(u, int32(len(src)))
			if !seen {
				src = append(src, u)
			}
			indices = append(indices, pos)
		}
	}
	offsets[len(dst)] = int32(len(indices))
	*blk = Block{SrcNodes: src, DstCount: len(dst), Offsets: offsets, Indices: indices}
}

// --- subgraph-wise (GraphSAINT) ---------------------------------------------

// SubgraphWise implements GraphSAINT-style random-walk sampling: from the
// targets as roots, WalkLength-step random walks collect a vertex set whose
// induced subgraph is trained on directly. Per the paper's abstraction this
// is node-wise sampling "with many more hops but a single neighbor fanout".
// Layers blocks all share the induced adjacency.
//
// Like NodeWise, the sampler owns a reusable frontier table and must not
// be shared across concurrent Sample calls.
type SubgraphWise struct {
	WalkLength int
	// Layers is the number of GNN layers the batch will feed.
	Layers int

	frontier Frontier
	dedupBuf []int32
}

// Name implements Sampler.
func (s *SubgraphWise) Name() string { return "subgraph-wise" }

// NumLayers implements Sampler.
func (s *SubgraphWise) NumLayers() int { return s.Layers }

// Sample implements Sampler.
func (s *SubgraphWise) Sample(rng *rand.Rand, g *graph.Graph, targets []int32) *MiniBatch {
	return s.SampleInto(rng, g, targets, &MiniBatch{})
}

// SampleInto refills mb with targets' batch and returns it; see Refiller
// for what mb may be and how long the result stays valid. Every block
// shares one slice triple, refilled from the first block's.
func (s *SubgraphWise) SampleInto(rng *rand.Rand, g *graph.Graph, targets []int32, mb *MiniBatch) *MiniBatch {
	n := g.NumVertices()
	roots := dedupWith(&s.frontier, n, s.dedupBuf, targets)
	s.dedupBuf = roots
	blocks := mb.refillBlocks(max(s.Layers, 1))
	// Walk-set membership and positions live in the frontier table; the
	// walk can add at most WalkLength+1 distinct vertices per root, which
	// pre-sizes the node list exactly.
	inSet := &s.frontier
	inSet.Reset(n)
	nodes := tensor.Grow(blocks[0].SrcNodes, len(roots)*(s.WalkLength+1))[:0]
	add := func(v int32) {
		if _, seen := inSet.PosOrInsert(v, int32(len(nodes))); !seen {
			nodes = append(nodes, v)
		}
	}
	for _, r := range roots {
		add(r)
		cur := r
		for step := 0; step < s.WalkLength; step++ {
			ns := g.Neighbors(cur)
			if len(ns) == 0 {
				break
			}
			cur = ns[rng.Intn(len(ns))]
			add(cur)
		}
	}
	// Induced adjacency restricted to the walk set, with targets first —
	// the dst prefix convention requires target rows up front, and `nodes`
	// already begins with all roots. The walk set's total degree bounds
	// the induced edge count, pre-sizing the indices slice.
	edgeBound := 0
	for _, v := range nodes {
		edgeBound += g.Degree(v)
	}
	offsets := tensor.Grow(blocks[0].Offsets, len(nodes)+1)
	indices := tensor.Grow(blocks[0].Indices, edgeBound)[:0]
	for i, v := range nodes {
		offsets[i] = int32(len(indices))
		for _, u := range g.Neighbors(v) {
			if pos, ok := inSet.Pos(u); ok {
				indices = append(indices, pos)
			}
		}
	}
	offsets[len(nodes)] = int32(len(indices))
	// Every layer trains on the full induced subgraph (src == dst set),
	// and the loss is taken over the whole subgraph.
	for l := range blocks {
		blocks[l] = Block{SrcNodes: nodes, DstCount: len(nodes), Offsets: offsets, Indices: indices}
	}
	return mb.seal()
}

// --- analytic expectation (Eq. 12) -------------------------------------------

// AnalyticBatchSize evaluates the white-box part of Eq. 12:
//
//	E[|V_i|] ≈ (|B0| · Π_l (1+k_l))^τ
//
// with τ in (0, 1] the overlap penalty exponent. τ=1 is the no-overlap
// upper bound; the estimator learns the effective τ (together with a
// multiplicative correction) from profiled runs.
func AnalyticBatchSize(b0 int, fanouts []int, tau float64) float64 {
	prod := float64(b0)
	for _, k := range fanouts {
		prod *= float64(1 + k)
	}
	return math.Pow(prod, tau)
}

// EpochBatches splits train vertices into shuffled batches of size b0. The
// final short batch is kept (PyTorch's drop_last=False behaviour). Callers
// derive rng per epoch (EpochRNG) rather than threading one shared stream
// across epochs, so the shuffle for epoch e is independent of every other
// epoch's draws.
func EpochBatches(rng *rand.Rand, train []int32, b0 int) [][]int32 {
	if b0 <= 0 {
		b0 = len(train)
	}
	perm := make([]int32, len(train))
	copy(perm, train)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	var out [][]int32
	for start := 0; start < len(perm); start += b0 {
		end := start + b0
		if end > len(perm) {
			end = len(perm)
		}
		out = append(out, perm[start:end])
	}
	return out
}

// EpochPlan returns epoch e's batch target lists for a (seed, targets,
// batchSize) triple: shuffled through the per-epoch stream (EpochRNG)
// when shuffle is set, chunked in the given order otherwise. It is the
// single source of truth for batch structure — the live pipeline
// producer and the plan compiler (internal/plan) both iterate it, which
// is what makes a compiled plan bitwise-identical to live sampling.
func EpochPlan(seed int64, epoch int, targets []int32, b0 int, shuffle bool) [][]int32 {
	if shuffle {
		return EpochBatches(EpochRNG(seed, epoch), targets, b0)
	}
	if b0 <= 0 {
		b0 = len(targets)
	}
	var out [][]int32
	for start := 0; start < len(targets); start += b0 {
		out = append(out, targets[start:min(start+b0, len(targets))])
	}
	return out
}

// Package plan compiles an epoch's sampling into a replayable artifact.
//
// Since the per-batch RNG derivation (sample.BatchRNG over (seed, epoch,
// batchIndex)), an entire training run's sampling is a pure function of
// its configuration — yet every run re-pays the sampler for it. A Plan
// materializes that function once: the compiler drives the sampler over
// the exact epoch/batch structure the live pipeline would iterate
// (sample.EpochPlan + sample.BatchRNG) and packs every mini-batch's
// layered structure into a handful of shared int32 arrays.
//
// Three consumers:
//
//   - Replay: pipeline.Config.Plan serves batches straight from the
//     packed arrays instead of calling the sampler. Replayed batches are
//     bitwise-identical to live sampling at every prefetch depth (the
//     pipeline equivalence tests pin this under -race).
//   - Sharing: calibration probes that differ only in cache/model
//     dimensions sample identical plans; the calibration worker of one
//     sampling core fetches them through one Cache, which compiles each
//     unique key once and goes when the worker is done with the core.
//   - Mining: VertexCounts/CountOrder extract exact per-vertex access
//     counts (the freq policy's admission order), and BatchInputs
//     exposes the exact future access order that powers the Belady
//     cache.Opt upper bound.
//
// Storage exploits the mini-batch prefix-chain invariant
// (Blocks[l+1].SrcNodes == Blocks[l].SrcNodes[:Blocks[l].DstCount], all
// prefixes of InputNodes): only InputNodes plus per-block DstCount,
// offsets and indices are stored, and blocks that share one
// offsets/indices pair (subgraph-wise sampling) are deduplicated.
// Replay reconstructs each block as a sub-slice of the immutable plan
// arrays — replayed mini-batches must be treated read-only.
package plan

import (
	"cmp"
	"fmt"
	"iter"
	"math/rand"
	"slices"

	"gnnavigator/internal/graph"
	"gnnavigator/internal/sample"
)

// Key identifies one compiled plan: everything sampling depends on, and
// nothing it doesn't. Cache ratio/policy, bias and model dimensions are
// deliberately absent — probes differing only in those share a plan.
type Key struct {
	Dataset   string
	Reorder   bool
	Sampler   string // descriptor from SamplerDesc
	BatchSize int
	Seed      int64
	Epochs    int
	Shuffle   bool
	Targets   int    // len(targets)
	TargetsFP uint64 // FNV-1a fingerprint of the target ids
}

// SamplerDesc renders the sampling-relevant identity of a sampler — the
// knobs that change its draws for a fixed RNG. Bias state is excluded on
// purpose: plans are only compiled from unbiased samplers (a cache-aware
// bias reads live residency, which a replay cannot reproduce), and an
// unbiased NodeWise ignores its BiasStrength entirely.
func SamplerDesc(s sample.Sampler) string {
	switch t := s.(type) {
	case *sample.NodeWise:
		return fmt.Sprintf("node-wise%v", t.Fanouts)
	case *sample.LayerWise:
		return fmt.Sprintf("layer-wise%v", t.Deltas)
	case *sample.SubgraphWise:
		return fmt.Sprintf("subgraph-wise/%d/%d", t.WalkLength, t.Layers)
	}
	return s.Name()
}

// TargetsFingerprint hashes a target list (FNV-64a over little-endian
// ids) for key identity without retaining the slice. The loop is
// hash/fnv's, inlined, without a Write call per 4-byte id.
func TargetsFingerprint(targets []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range targets {
		u := uint32(v)
		h = (h ^ uint64(u&0xff)) * prime64
		h = (h ^ uint64(u>>8&0xff)) * prime64
		h = (h ^ uint64(u>>16&0xff)) * prime64
		h = (h ^ uint64(u>>24)) * prime64
	}
	return h
}

// KeyFor assembles the plan key for one sampling configuration.
func KeyFor(dataset string, reorder bool, smp sample.Sampler, batchSize int, seed int64, epochs int, shuffle bool, targets []int32) Key {
	return Key{
		Dataset:   dataset,
		Reorder:   reorder,
		Sampler:   SamplerDesc(smp),
		BatchSize: batchSize,
		Seed:      seed,
		Epochs:    epochs,
		Shuffle:   shuffle,
		Targets:   len(targets),
		TargetsFP: TargetsFingerprint(targets),
	}
}

// Plan is one compiled sampling run: Epochs × BatchesPerEpoch layered
// mini-batches packed into shared int32 arrays. Immutable after Compile;
// safe for concurrent replay from any number of goroutines.
type Plan struct {
	key Key

	layers   int
	perEpoch int

	// Packed batch data. nodes concatenates every batch's InputNodes;
	// offsets/indices concatenate per-block CSR segments (deduplicated
	// when consecutive blocks share them, as subgraph-wise blocks do).
	nodes, offsets, indices []int32

	// batchNode[b]..batchNode[b+1] is batch b's extent in nodes.
	batchNode []int64
	// Per (batch, layer) block k = b*layers+l: DstCount, and base
	// offsets into the shared offsets/indices arrays. A block's
	// offsets segment spans dstCount+1 entries; its indices length is
	// offsets[blockOff[k]+dstCount].
	blockDst []int32
	blockOff []int64
	blockIdx []int64
}

// Key returns the identity the plan was compiled under.
func (p *Plan) Key() Key { return p.key }

// Epochs returns the number of compiled epochs.
func (p *Plan) Epochs() int { return p.key.Epochs }

// BatchesPerEpoch returns the fixed number of batches per epoch.
func (p *Plan) BatchesPerEpoch() int { return p.perEpoch }

// NumBatches returns the total compiled batch count.
func (p *Plan) NumBatches() int { return p.key.Epochs * p.perEpoch }

// NumLayers returns the blocks per batch.
func (p *Plan) NumLayers() int { return p.layers }

// Bytes reports the packed footprint of the plan's data arrays.
func (p *Plan) Bytes() int64 {
	return int64(len(p.nodes)+len(p.offsets)+len(p.indices)+len(p.blockDst))*4 +
		int64(len(p.batchNode)+len(p.blockOff)+len(p.blockIdx))*8
}

// Compile runs the sampler once over the full (seed, epochs, targets)
// batch structure and packs the result. smp must be unbiased and is
// driven exactly as the live pipeline would drive it — sample.EpochPlan
// for the per-epoch batch lists, the sample.BatchRNG stream per batch —
// so replay is bitwise-identical to live sampling. The key must match
// the arguments (KeyFor over the same values).
//
// smp must be a sample.Refiller: compiling allocates nothing per batch,
// because one rand.Rand is reseeded for every batch, one MiniBatch is
// refilled through SampleInto, and every plan array is sized once,
// after the first batch.
func Compile(g *graph.Graph, smp sample.Sampler, key Key, targets []int32) (*Plan, error) {
	if g == nil || smp == nil {
		return nil, fmt.Errorf("plan: need a graph and a sampler")
	}
	if key.Epochs < 1 {
		return nil, fmt.Errorf("plan: epochs %d < 1", key.Epochs)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("plan: no target vertices")
	}
	if got := SamplerDesc(smp); got != key.Sampler {
		return nil, fmt.Errorf("plan: sampler %q does not match key %q", got, key.Sampler)
	}
	if key.Targets != len(targets) || key.TargetsFP != TargetsFingerprint(targets) {
		return nil, fmt.Errorf("plan: targets do not match key fingerprint")
	}
	into, ok := smp.(sample.Refiller)
	if !ok {
		return nil, fmt.Errorf("plan: sampler %q cannot refill a batch in place", key.Sampler)
	}
	L := max(smp.NumLayers(), 1)
	p := &Plan{key: key, layers: L}
	mb := &sample.MiniBatch{}
	rng := rand.New(rand.NewSource(0))
	for e := 0; e < key.Epochs; e++ {
		chunks := sample.EpochPlan(key.Seed, e, targets, key.BatchSize, key.Shuffle)
		if e == 0 {
			p.perEpoch = len(chunks)
			batches := key.Epochs * p.perEpoch
			p.batchNode = append(make([]int64, 0, batches+1), 0)
			p.blockDst = make([]int32, 0, batches*L)
			p.blockOff = make([]int64, 0, batches*L)
			p.blockIdx = make([]int64, 0, batches*L)
		} else if len(chunks) != p.perEpoch {
			return nil, fmt.Errorf("plan: epoch %d has %d batches, epoch 0 had %d", e, len(chunks), p.perEpoch)
		}
		for i, tg := range chunks {
			rng.Seed(sample.BatchSeed(key.Seed, e, i))
			mb = into.SampleInto(rng, g, tg, mb)
			if err := p.appendBatch(mb); err != nil {
				return nil, fmt.Errorf("plan: epoch %d batch %d: %w", e, i, err)
			}
			if e == 0 && i == 0 {
				// A full batch is about as large as any: the first one's
				// packed size times the batch count, plus a thirty-second
				// for the draw-to-draw spread, bounds the run. Reserve it at
				// once rather than re-copying the arrays as they grow; the
				// shorter last batch of each epoch leaves the slack.
				reserve := func(s []int32) []int32 {
					n := len(s) * key.Epochs * p.perEpoch
					return slices.Grow(s, n+n/32-len(s))
				}
				p.nodes, p.offsets, p.indices = reserve(p.nodes), reserve(p.offsets), reserve(p.indices)
			}
		}
	}
	return p, nil
}

// sameSlice reports whether two slices alias the same backing segment
// (subgraph-wise blocks share one offsets/indices pair across layers).
func sameSlice(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// appendBatch packs one sampled mini-batch, checking the structural
// invariants replay depends on.
func (p *Plan) appendBatch(mb *sample.MiniBatch) error {
	if len(mb.Blocks) != p.layers {
		return fmt.Errorf("got %d blocks, want %d", len(mb.Blocks), p.layers)
	}
	if len(mb.InputNodes) != len(mb.Blocks[0].SrcNodes) {
		return fmt.Errorf("InputNodes not aliased to first block")
	}
	p.nodes = append(p.nodes, mb.InputNodes...)
	p.batchNode = append(p.batchNode, int64(len(p.nodes)))
	srcLen := len(mb.InputNodes)
	for l, blk := range mb.Blocks {
		if len(blk.SrcNodes) != srcLen {
			return fmt.Errorf("block %d src/dst chain broken", l)
		}
		if len(blk.Offsets) != blk.DstCount+1 || int(blk.Offsets[blk.DstCount]) != len(blk.Indices) {
			return fmt.Errorf("block %d malformed CSR", l)
		}
		p.blockDst = append(p.blockDst, int32(blk.DstCount))
		if l > 0 && sameSlice(blk.Offsets, mb.Blocks[l-1].Offsets) && sameSlice(blk.Indices, mb.Blocks[l-1].Indices) {
			k := len(p.blockOff)
			p.blockOff = append(p.blockOff, p.blockOff[k-1])
			p.blockIdx = append(p.blockIdx, p.blockIdx[k-1])
		} else {
			p.blockOff = append(p.blockOff, int64(len(p.offsets)))
			p.blockIdx = append(p.blockIdx, int64(len(p.indices)))
			p.offsets = append(p.offsets, blk.Offsets...)
			p.indices = append(p.indices, blk.Indices...)
		}
		srcLen = blk.DstCount
	}
	return nil
}

// Replay returns batch (epoch, index) as a fresh mini-batch envelope
// whose data slices alias the plan's immutable arrays.
func (p *Plan) Replay(epoch, index int) *sample.MiniBatch {
	return p.ReplayInto(&sample.MiniBatch{}, epoch, index)
}

// ReplayInto fills mb with batch (epoch, index), reusing mb's Blocks
// slice; every data slice aliases the plan's packed arrays, so the call
// performs zero allocations once mb's Blocks capacity is warm. The
// result must be treated read-only and stays valid for the plan's
// lifetime.
func (p *Plan) ReplayInto(mb *sample.MiniBatch, epoch, index int) *sample.MiniBatch {
	b := epoch*p.perEpoch + index
	L := p.layers
	if cap(mb.Blocks) < L {
		mb.Blocks = make([]sample.Block, L)
	}
	mb.Blocks = mb.Blocks[:L]
	nodes := p.nodes[p.batchNode[b]:p.batchNode[b+1]]
	srcLen := len(nodes)
	total := 0
	for l := 0; l < L; l++ {
		k := b*L + l
		dst := int(p.blockDst[k])
		off := p.offsets[p.blockOff[k] : p.blockOff[k]+int64(dst)+1 : p.blockOff[k]+int64(dst)+1]
		idxLen := int64(off[dst])
		idx := p.indices[p.blockIdx[k] : p.blockIdx[k]+idxLen : p.blockIdx[k]+idxLen]
		mb.Blocks[l] = sample.Block{SrcNodes: nodes[:srcLen], DstCount: dst, Offsets: off, Indices: idx}
		total += int(idxLen)
		srcLen = dst
	}
	last := &mb.Blocks[L-1]
	mb.Targets = last.SrcNodes[:last.DstCount]
	mb.InputNodes = nodes
	mb.NumVertices = len(nodes)
	mb.NumEdges = total
	return mb
}

// InputNodes returns batch (epoch, index)'s input vertex list (aliasing
// the plan arrays; read-only).
func (p *Plan) InputNodes(epoch, index int) []int32 {
	b := epoch*p.perEpoch + index
	return p.nodes[p.batchNode[b]:p.batchNode[b+1]]
}

// BatchInputs iterates every batch's InputNodes in (epoch, index) order
// for the first `epochs` epochs (<= 0 or beyond the compiled count means
// all). This is exactly the access stream a run's feature cache sees —
// the input to cache.BuildOptScript.
func (p *Plan) BatchInputs(epochs int) iter.Seq[[]int32] {
	n := p.NumBatches()
	if epochs > 0 && epochs < p.key.Epochs {
		n = epochs * p.perEpoch
	}
	return func(yield func([]int32) bool) {
		for b := 0; b < n; b++ {
			if !yield(p.nodes[p.batchNode[b]:p.batchNode[b+1]]) {
				return
			}
		}
	}
}

// VertexCounts returns exact per-vertex access counts over the whole
// compiled plan (every batch's InputNodes), for a vertex space of size
// numVertices.
func (p *Plan) VertexCounts(numVertices int) []int64 {
	counts := make([]int64, numVertices)
	for _, v := range p.nodes {
		counts[v]++
	}
	return counts
}

// CountOrder returns all vertices ordered by plan access count
// descending (ties by ascending id), with never-touched vertices
// appended in degree order — the freq policy's admission order, mined
// from the compiled plan instead of a throwaway replay.
func (p *Plan) CountOrder(g *graph.Graph) []int32 {
	return CountOrder(p.VertexCounts(g.NumVertices()), g)
}

// CountOrder orders vertices by access count descending (ties by
// ascending id), appending untouched vertices in g's degree order so a
// large cache still fills deterministically — the exact ordering rule
// the backend's freq policy has always used.
func CountOrder(counts []int64, g *graph.Graph) []int32 {
	order := make([]int32, 0, len(counts))
	for v := range counts {
		if counts[v] > 0 {
			order = append(order, int32(v))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		if counts[a] != counts[b] {
			return cmp.Compare(counts[b], counts[a])
		}
		return cmp.Compare(a, b)
	})
	for _, v := range g.DegreeOrder() {
		if counts[v] == 0 {
			order = append(order, v)
		}
	}
	return order
}

// CompatibleWith checks that the plan can replace live sampling for a
// pipeline run with the given sampling parameters: everything must match
// the compiled key, except that a run may replay a prefix of the
// compiled epochs.
func (p *Plan) CompatibleWith(smp sample.Sampler, seed int64, epochs, batchSize int, shuffle bool, targets []int32) error {
	k := p.key
	if smp != nil {
		if got := SamplerDesc(smp); got != k.Sampler {
			return fmt.Errorf("plan: sampler %q != compiled %q", got, k.Sampler)
		}
	}
	if seed != k.Seed {
		return fmt.Errorf("plan: seed %d != compiled %d", seed, k.Seed)
	}
	if shuffle != k.Shuffle {
		return fmt.Errorf("plan: shuffle %v != compiled %v", shuffle, k.Shuffle)
	}
	if batchSize != k.BatchSize {
		return fmt.Errorf("plan: batch size %d != compiled %d", batchSize, k.BatchSize)
	}
	if epochs > k.Epochs {
		return fmt.Errorf("plan: run needs %d epochs, plan has %d", epochs, k.Epochs)
	}
	if len(targets) != k.Targets || TargetsFingerprint(targets) != k.TargetsFP {
		return fmt.Errorf("plan: target set does not match compiled fingerprint")
	}
	return nil
}

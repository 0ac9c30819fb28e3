// Package model implements the graph neural networks the paper trains —
// GCN, GraphSAGE and GAT — with exact forward and backward passes over
// sampled mini-batch blocks (Algo. 1 lines 4–9: Aggregate, Combine, Loss,
// Backwards). Everything is pure Go on the tensor/nn substrate; the
// "device" that executes it is modeled separately in internal/sim.
//
// Every layer ends in one nn.Epilogue, run in place over its output:
// bias (GraphSAGE's two paths summed), activation (ReLU; ELU for GAT;
// none on the output layer) and the next layer's input dropout. Layer
// 0's input dropout writes a buffer of its own, since the feature matrix
// belongs to the caller. Mean aggregation adds four source rows per pass
// over the output row, in edge order.
//
// A model may be attached to a tensor.Workspace (SetWorkspace), in which
// case all forward/backward intermediates come from the arena and the
// training loop owner recycles them once per iteration with
// ws.ReleaseAll(). Aggregation loops and epilogues are sharded over
// disjoint row or element ranges on the tensor worker pool; outputs are
// bitwise-identical at any parallelism setting.
package model

import (
	"fmt"
	"math/rand"

	"gnnavigator/internal/nn"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// Kind names a GNN architecture.
type Kind string

// Supported architectures.
const (
	GCN  Kind = "gcn"
	SAGE Kind = "sage"
	GAT  Kind = "gat"
)

// Config describes a model instance.
type Config struct {
	Kind    Kind
	InDim   int
	Hidden  int
	OutDim  int
	Layers  int
	Heads   int     // GAT only; defaults to 1
	Dropout float64 // applied to layer inputs during training
	Seed    int64
}

// convLayer is one graph convolution with cached state for backward.
type convLayer interface {
	// Forward computes the layer's linear part over h and finishes it
	// with epi, in place: bias, activation and the next layer's dropout.
	Forward(blk *sample.Block, h *tensor.Dense, epi *nn.Epilogue, train bool) *tensor.Dense
	// Backward takes the gradient at the layer's pre-bias output (epi's
	// Backward has run), accumulates the layer's parameter gradients
	// and, when needInput is set, returns the gradient with respect to h
	// (nil otherwise: the bottom layer's input is the feature matrix,
	// which nothing trains).
	Backward(dy *tensor.Dense, needInput bool) *tensor.Dense
	Params() []*nn.Param
	setWorkspace(ws *tensor.Workspace)
}

// Model is a stack of graph convolutions with activations and dropout.
type Model struct {
	cfg    Config
	layers []convLayer
	// inDrop is layer 0's input dropout. epis[l] is layer l's epilogue:
	// its bias, its activation (none on the output layer) and layer
	// l+1's input dropout.
	inDrop *nn.Dropout
	epis   []*nn.Epilogue
	rng    *rand.Rand
	ws     *tensor.Workspace
}

// layerDims returns layer l's input and output widths and its head
// count (GAT only; the output layer is single-head, no concat).
func (c Config) layerDims(l int) (in, out, heads int) {
	in, out, heads = c.Hidden, c.Hidden, c.Heads
	if heads == 0 {
		heads = 1
	}
	if l == 0 {
		in = c.InDim
	}
	if l == c.Layers-1 {
		out, heads = c.OutDim, 1
	}
	return in, out, heads
}

// validate rejects the configurations New cannot build.
func (c Config) validate() error {
	if c.Layers < 1 {
		return fmt.Errorf("model: Layers = %d, want >= 1", c.Layers)
	}
	if c.InDim < 1 || c.OutDim < 1 || (c.Layers > 1 && c.Hidden < 1) {
		return fmt.Errorf("model: bad dims in=%d hidden=%d out=%d", c.InDim, c.Hidden, c.OutDim)
	}
	switch c.Kind {
	case GCN, SAGE:
	case GAT:
		for l := 0; l < c.Layers; l++ {
			if _, out, heads := c.layerDims(l); heads < 1 || out%heads != 0 {
				return fmt.Errorf("model: GAT out dim %d not divisible by heads %d", out, heads)
			}
		}
	default:
		return fmt.Errorf("model: unknown kind %q", c.Kind)
	}
	return nil
}

// New builds a model per cfg.
func New(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Heads == 0 {
		cfg.Heads = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg, rng: rng, inDrop: &nn.Dropout{P: cfg.Dropout, Rng: rng}}
	for l := 0; l < cfg.Layers; l++ {
		in, out, heads := cfg.layerDims(l)
		var layer convLayer
		switch cfg.Kind {
		case GCN:
			layer = newGCNLayer(rng, fmt.Sprintf("gcn%d", l), in, out)
		case SAGE:
			layer = newSAGELayer(rng, fmt.Sprintf("sage%d", l), in, out)
		case GAT:
			layer = newGATLayer(rng, fmt.Sprintf("gat%d", l), in, out, heads)
		}
		m.layers = append(m.layers, layer)
		epi := &nn.Epilogue{}
		if l < cfg.Layers-1 {
			epi.Act = nn.ReLU
			if cfg.Kind == GAT {
				epi.Act = nn.ELU
			}
			epi.Drop = &nn.Dropout{P: cfg.Dropout, Rng: rng}
		}
		m.epis = append(m.epis, epi)
	}
	return m, nil
}

// SetWorkspace attaches ws to every layer and the input dropout so the
// whole forward/backward pass draws intermediates from the arena. The
// caller owns the recycle point: call ws.ReleaseAll() only after the
// iteration's outputs (logits, gradients) are no longer needed. A nil ws
// restores plain allocation.
func (m *Model) SetWorkspace(ws *tensor.Workspace) {
	m.ws = ws
	for _, l := range m.layers {
		l.setWorkspace(ws)
	}
	m.inDrop.WS = ws
}

// Workspace returns the attached arena (nil if none).
func (m *Model) Workspace() *tensor.Workspace { return m.ws }

// SeedDropout re-roots the dropout mask stream at an explicit seed: all
// dropout layers share one fresh serial RNG, drawn in layer order during
// Forward. Training loops that need checkpoint/resume determinism call
// this once per batch with a seed derived from (run seed, epoch, batch
// index), making every batch's masks a pure function of its coordinates
// — independent of how many batches ran before it in this process.
func (m *Model) SeedDropout(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m.inDrop.Rng = rng
	for _, e := range m.epis {
		if e.Drop != nil {
			e.Drop.Rng = rng
		}
	}
}

// Cfg returns the model configuration.
func (m *Model) Cfg() Config { return m.cfg }

// Name returns the architecture name.
func (m *Model) Name() string { return string(m.cfg.Kind) }

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	var out []*nn.Param
	for _, l := range m.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Forward runs the network over a mini-batch. feats holds the raw features
// of mb.InputNodes (row i ↔ InputNodes[i]). It returns logits for
// mb.Targets in order.
func (m *Model) Forward(mb *sample.MiniBatch, feats *tensor.Dense, train bool) (*tensor.Dense, error) {
	if len(mb.Blocks) != len(m.layers) {
		return nil, fmt.Errorf("model: %d blocks for %d layers", len(mb.Blocks), len(m.layers))
	}
	if feats.Rows != len(mb.InputNodes) {
		return nil, fmt.Errorf("model: feats rows %d != input nodes %d", feats.Rows, len(mb.InputNodes))
	}
	h := m.inDrop.Forward(feats, train)
	for l, layer := range m.layers {
		h = layer.Forward(&mb.Blocks[l], h, m.epis[l], train)
	}
	return h, nil
}

// Backward propagates dLogits through the network, accumulating parameter
// gradients, and yields nothing else: the gradient with respect to the
// input features has no reader, so layer 0 computes only its dW and db
// and skips its dX matmuls, aggregate scatter and dropout mask — the
// widest of each in the whole pass. Each epilogue's backward runs in
// place on the dX its layer above returned; the output layer's is a
// no-op, so dLogits is only read.
func (m *Model) Backward(dLogits *tensor.Dense) {
	d := dLogits
	for l := len(m.layers) - 1; l >= 0; l-- {
		m.epis[l].Backward(d)
		d = m.layers[l].Backward(d, l > 0)
	}
}

// FLOPs estimates the batch's multiply-add count across all layers — the
// white-box input to the simulator's t_compute (Eq. 8); see CountFLOPs.
func (m *Model) FLOPs(mb *sample.MiniBatch) float64 {
	var total float64
	for l := range m.layers {
		blk := &mb.Blocks[l]
		total += layerFLOPs(m.cfg, l, Shape{len(blk.SrcNodes), blk.DstCount, blk.NumEdges()})
	}
	return total
}

// Shape is one block's vertex and edge counts: all the FLOPs model
// reads of a block.
type Shape struct{ Src, Dst, Edges int }

// CountFLOPs is the multiply-add count of a model built from cfg over
// one block of each given shape per layer, bottom layer first — the
// closed form Model.FLOPs evaluates, without building a model. It
// rejects the configurations New rejects.
func CountFLOPs(cfg Config, shapes []Shape) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if len(shapes) != cfg.Layers {
		return 0, fmt.Errorf("model: %d block shapes for %d layers", len(shapes), cfg.Layers)
	}
	var total float64
	for l, s := range shapes {
		total += layerFLOPs(cfg, l, s)
	}
	return total, nil
}

// layerFLOPs is layer l's multiply-add count over a block of shape s.
func layerFLOPs(cfg Config, l int, s Shape) float64 {
	in, out, heads := cfg.layerDims(l)
	switch cfg.Kind {
	case GCN:
		return float64(s.Edges+s.Dst)*float64(in) + // aggregation adds
			2*float64(s.Dst)*float64(in)*float64(out) // combine matmul
	case SAGE:
		return float64(s.Edges)*float64(in) + // neighbor aggregation
			4*float64(s.Dst)*float64(in)*float64(out) // two matmuls
	default: // GAT
		perHead := out / heads
		e := float64(s.Edges + s.Dst)                            // incl. self edges
		flops := 2*float64(s.Src)*float64(in)*float64(perHead) + // z = hW
			e*float64(perHead)*3 + // scores + weighted sum
			e*4 // softmax-ish
		return flops * float64(heads)
	}
}

// --- shared mean aggregation --------------------------------------------

// meanAggregate computes, for each dst, the mean of its sampled neighbor
// rows (plus optionally the dst row itself). It returns the aggregate and
// the per-dst divisor used (for backward), both drawn from ws. The loop
// is sharded over destination rows, which write disjoint output rows.
// Per element the sum is +0 plus each source in edge order (self first),
// four sources to a pass over the row — (((row+s0)+s1)+s2)+s3, the same
// additions in the same order as one at a time — then one multiply by
// 1/n.
func meanAggregate(ws *tensor.Workspace, blk *sample.Block, h *tensor.Dense, includeSelf bool) (*tensor.Dense, []float64) {
	agg := ws.Get(blk.DstCount, h.Cols)
	div := ws.Get(1, blk.DstCount).Data
	tensor.ParallelRows(blk.DstCount, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := agg.Row(i)
			nbrs := blk.Indices[blk.Offsets[i]:blk.Offsets[i+1]]
			n := len(nbrs)
			if includeSelf {
				src := h.Row(i)[:len(row)] // dst i is src position i by the prefix invariant
				for j := range row {
					row[j] = 0 + src[j]
				}
				n++
			} else {
				for j := range row {
					row[j] = 0
				}
			}
			for ; len(nbrs) >= 4; nbrs = nbrs[4:] {
				s0 := h.Row(int(nbrs[0]))[:len(row)]
				s1 := h.Row(int(nbrs[1]))[:len(row)]
				s2 := h.Row(int(nbrs[2]))[:len(row)]
				s3 := h.Row(int(nbrs[3]))[:len(row)]
				for j := range row {
					row[j] = (((row[j] + s0[j]) + s1[j]) + s2[j]) + s3[j]
				}
			}
			for _, ix := range nbrs {
				src := h.Row(int(ix))[:len(row)]
				for j := range row {
					row[j] += src[j]
				}
			}
			if n > 0 {
				inv := 1 / float64(n)
				for j := range row {
					row[j] *= inv
				}
				div[i] = float64(n)
			} else {
				div[i] = 1
			}
		}
	})
	return agg, div
}

// meanAggregateBackward scatters dAgg back to source rows. Source rows
// are written by many destinations, so the parallel path shards over
// source-row ranges: every shard scans the full edge list and applies
// only the contributions landing in its range, preserving the serial
// accumulation order per row (bitwise-identical to the serial pass).
func meanAggregateBackward(ws *tensor.Workspace, blk *sample.Block, dAgg *tensor.Dense, div []float64, srcRows int, includeSelf bool) *tensor.Dense {
	dh := ws.Get(srcRows, dAgg.Cols)
	tensor.ParallelRows(srcRows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := dh.Row(r)
			for j := range row {
				row[j] = 0
			}
		}
		for i := 0; i < blk.DstCount; i++ {
			inv := 1 / div[i]
			drow := dAgg.Row(i)
			if includeSelf && i >= lo && i < hi {
				dst := dh.Row(i)
				for j := range dst {
					dst[j] += drow[j] * inv
				}
			}
			for _, ix := range blk.Indices[blk.Offsets[i]:blk.Offsets[i+1]] {
				if int(ix) < lo || int(ix) >= hi {
					continue
				}
				dst := dh.Row(int(ix))
				for j := range dst {
					dst[j] += drow[j] * inv
				}
			}
		}
	})
	return dh
}

// --- GCN ------------------------------------------------------------------

// gcnLayer computes Y = mean(self ∪ neighbors)·W + b, the sampled-subgraph
// analogue of Kipf–Welling propagation.
type gcnLayer struct {
	lin *nn.Linear
	ws  *tensor.Workspace

	blk     *sample.Block
	div     []float64
	srcRows int
}

func newGCNLayer(rng *rand.Rand, name string, in, out int) *gcnLayer {
	return &gcnLayer{lin: nn.NewLinear(rng, name, in, out)}
}

func (l *gcnLayer) setWorkspace(ws *tensor.Workspace) {
	l.ws = ws
	l.lin.WS = ws
}

func (l *gcnLayer) Forward(blk *sample.Block, h *tensor.Dense, epi *nn.Epilogue, train bool) *tensor.Dense {
	l.blk = blk
	l.srcRows = h.Rows
	agg, div := meanAggregate(l.ws, blk, h, true)
	l.div = div
	return epi.Forward(l.lin.Product(agg), l.lin.B.Value.Data, nil, nil, train)
}

func (l *gcnLayer) Backward(dy *tensor.Dense, needInput bool) *tensor.Dense {
	l.lin.BackwardParams(dy)
	if !needInput {
		return nil
	}
	dAgg := l.lin.BackwardInput(dy)
	return meanAggregateBackward(l.ws, l.blk, dAgg, l.div, l.srcRows, true)
}

func (l *gcnLayer) Params() []*nn.Param { return l.lin.Params() }

// --- GraphSAGE --------------------------------------------------------------

// sageLayer computes Y = H_dst·W_self + mean(neighbors)·W_nb + b
// (GraphSAGE-mean with separate self path).
type sageLayer struct {
	self *nn.Linear
	nb   *nn.Linear
	ws   *tensor.Workspace

	blk     *sample.Block
	div     []float64
	srcRows int
	hdrDst  tensor.Dense // reusable header aliasing the dst prefix of h
}

func newSAGELayer(rng *rand.Rand, name string, in, out int) *sageLayer {
	return &sageLayer{
		self: nn.NewLinear(rng, name+".self", in, out),
		nb:   nn.NewLinear(rng, name+".nb", in, out),
	}
}

func (l *sageLayer) setWorkspace(ws *tensor.Workspace) {
	l.ws = ws
	l.self.WS = ws
	l.nb.WS = ws
}

func (l *sageLayer) Forward(blk *sample.Block, h *tensor.Dense, epi *nn.Epilogue, train bool) *tensor.Dense {
	l.blk = blk
	l.srcRows = h.Rows
	// Self path: dst rows are the src prefix (aliased, not copied).
	l.hdrDst = tensor.Dense{Rows: blk.DstCount, Cols: h.Cols, Data: h.Data[:blk.DstCount*h.Cols]}
	ySelf := l.self.Product(&l.hdrDst)
	agg, div := meanAggregate(l.ws, blk, h, false)
	l.div = div
	yNb := l.nb.Product(agg)
	// (ySelf + b_self) + (yNb + b_nb), then the rest of the epilogue;
	// backward reads neither product, so yNb goes back to the arena.
	y := epi.Forward(ySelf, l.self.B.Value.Data, yNb, l.nb.B.Value.Data, train)
	l.ws.Put(yNb)
	return y
}

func (l *sageLayer) Backward(dy *tensor.Dense, needInput bool) *tensor.Dense {
	l.nb.BackwardParams(dy)
	l.self.BackwardParams(dy)
	if !needInput {
		return nil
	}
	dAgg := l.nb.BackwardInput(dy)
	dh := meanAggregateBackward(l.ws, l.blk, dAgg, l.div, l.srcRows, false)
	dDst := l.self.BackwardInput(dy)
	// Scatter the self-path gradient into the dst prefix (disjoint rows).
	tensor.ParallelRows(l.blk.DstCount, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := dh.Row(i)
			srow := dDst.Row(i)
			for j := range row {
				row[j] += srow[j]
			}
		}
	})
	return dh
}

func (l *sageLayer) Params() []*nn.Param {
	return append(l.self.Params(), l.nb.Params()...)
}

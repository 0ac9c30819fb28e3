package model

import (
	"math"
	"math/rand"
	"testing"

	"gnnavigator/internal/nn"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// Batch and model dims for the equivalence tests: large enough that the
// sharded loops actually dispatch to the worker pool (row loops need
// >= 16 rows, elementwise loops >= 8192 elements) instead of silently
// taking the inline serial path.
const (
	eqSrc0 = 1400 // layer-0 sources (input rows)
	eqDst0 = 600  // layer-0 destinations == layer-1 sources
	eqDst1 = 200  // layer-1 destinations (targets)
	eqIn   = 32
	eqHid  = 64
	eqOut  = 8
)

// bigBatch builds a random two-layer mini-batch big enough to cross
// every parallel dispatch threshold (see eq* consts).
func bigBatch(rng *rand.Rand) *sample.MiniBatch {
	nodes := make([]int32, eqSrc0)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	mkBlock := func(src []int32, dstCount, maxFan int) sample.Block {
		offsets := make([]int32, dstCount+1)
		var indices []int32
		for i := 0; i < dstCount; i++ {
			offsets[i] = int32(len(indices))
			for f := rng.Intn(maxFan + 1); f > 0; f-- {
				indices = append(indices, int32(rng.Intn(len(src))))
			}
		}
		offsets[dstCount] = int32(len(indices))
		return sample.Block{SrcNodes: src, DstCount: dstCount, Offsets: offsets, Indices: indices}
	}
	b0 := mkBlock(nodes, eqDst0, 8)
	b1 := mkBlock(nodes[:eqDst0], eqDst1, 8)
	mb := &sample.MiniBatch{
		Blocks:      []sample.Block{b0, b1},
		Targets:     nodes[:eqDst1],
		InputNodes:  nodes,
		NumVertices: eqSrc0,
		NumEdges:    b0.NumEdges() + b1.NumEdges(),
	}
	return mb
}

// runOnce builds a fresh model, runs forward + backward on a large
// batch, and returns logits and a parameter-grad snapshot.
func runOnce(t *testing.T, kind Kind, heads int, ws *tensor.Workspace) (*tensor.Dense, []*tensor.Dense) {
	t.Helper()
	m, err := New(Config{
		Kind: kind, InDim: eqIn, Hidden: eqHid, OutDim: eqOut, Layers: 2,
		Heads: heads, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetWorkspace(ws)
	mb := bigBatch(rand.New(rand.NewSource(11)))
	if err := mb.Validate(); err != nil {
		t.Fatal(err)
	}
	feats := randFeats(rand.New(rand.NewSource(3)), eqSrc0, eqIn)
	logits, err := m.Forward(mb, feats, false)
	if err != nil {
		t.Fatal(err)
	}
	dLogits := randFeats(rand.New(rand.NewSource(4)), logits.Rows, logits.Cols)
	m.Backward(dLogits)
	return logits.Clone(), cloneGrads(m)
}

func cloneGrads(m *Model) []*tensor.Dense {
	var grads []*tensor.Dense
	for _, p := range m.Params() {
		grads = append(grads, p.Grad.Clone())
	}
	return grads
}

// TestParallelModelBitwiseEqualSerial demands that a full forward +
// backward pass over every architecture is bit-identical between the
// serial path, the 4-worker path, and the workspace-backed path.
func TestParallelModelBitwiseEqualSerial(t *testing.T) {
	prev := tensor.Parallelism()
	t.Cleanup(func() { tensor.SetParallelism(prev) })
	for _, kind := range []Kind{GCN, SAGE, GAT} {
		tensor.SetParallelism(1)
		wantLogits, wantGrads := runOnce(t, kind, 2, nil)

		check := func(label string, logits *tensor.Dense, grads []*tensor.Dense) {
			t.Helper()
			for i, w := range wantLogits.Data {
				if logits.Data[i] != w {
					t.Fatalf("%s/%s: logits[%d] = %v, want %v (bitwise)", kind, label, i, logits.Data[i], w)
				}
			}
			for p := range wantGrads {
				for i, w := range wantGrads[p].Data {
					if grads[p].Data[i] != w {
						t.Fatalf("%s/%s: grad[%d][%d] = %v, want %v (bitwise)", kind, label, p, i, grads[p].Data[i], w)
					}
				}
			}
		}

		tensor.SetParallelism(4)
		logits, grads := runOnce(t, kind, 2, nil)
		check("parallel", logits, grads)

		logits, grads = runOnce(t, kind, 2, tensor.NewWorkspace())
		check("parallel+ws", logits, grads)
	}
}

// chainBatch builds a random mini-batch of the given depth whose blocks
// chain (block l's destinations are block l+1's sources).
func chainBatch(rng *rand.Rand, layers int) *sample.MiniBatch {
	nodes := make([]int32, 90*layers)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	mb := &sample.MiniBatch{InputNodes: nodes, NumVertices: len(nodes)}
	src := len(nodes)
	for l := 0; l < layers; l++ {
		dst := src - 80
		offsets := make([]int32, dst+1)
		var indices []int32
		for i := 0; i < dst; i++ {
			offsets[i] = int32(len(indices))
			for f := rng.Intn(6); f > 0; f-- {
				indices = append(indices, int32(rng.Intn(src)))
			}
		}
		offsets[dst] = int32(len(indices))
		mb.Blocks = append(mb.Blocks, sample.Block{SrcNodes: nodes[:src], DstCount: dst, Offsets: offsets, Indices: indices})
		mb.NumEdges += len(indices)
		src = dst
	}
	mb.Targets = nodes[:src]
	return mb
}

// TestInputGradientIsDead proves the half of the backward pass that
// Model.Backward skips is dead: with dropout on, the parameter gradients
// it leaves equal, bit for bit, those of the same layers chained by hand
// with needInput=true everywhere — the pass as it ran while Backward
// still returned dX.
func TestInputGradientIsDead(t *testing.T) {
	for _, kind := range []Kind{GCN, SAGE, GAT} {
		for _, layers := range []int{2, 3} {
			m, err := New(Config{
				Kind: kind, InDim: 7, Hidden: 6, OutDim: 3, Layers: layers,
				Heads: 2, Dropout: 0.3, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			mb := chainBatch(rand.New(rand.NewSource(int64(layers))), layers)
			if err := mb.Validate(); err != nil {
				t.Fatal(err)
			}
			feats := randFeats(rand.New(rand.NewSource(3)), len(mb.InputNodes), 7)
			m.SeedDropout(17)
			logits, err := m.Forward(mb, feats, true)
			if err != nil {
				t.Fatal(err)
			}
			dLogits := randFeats(rand.New(rand.NewSource(4)), logits.Rows, logits.Cols)
			m.Backward(dLogits)
			got := cloneGrads(m)

			for _, p := range m.Params() {
				p.ZeroGrad()
			}
			d := dLogits
			for l := layers - 1; l >= 0; l-- {
				m.epis[l].Backward(d)
				d = m.layers[l].Backward(d, true)
			}
			if d.Rows != feats.Rows || d.Cols != feats.Cols {
				t.Fatalf("%s/%d: full chain's dX is %dx%d, want %dx%d", kind, layers, d.Rows, d.Cols, feats.Rows, feats.Cols)
			}
			for p, want := range cloneGrads(m) {
				for i, w := range want.Data {
					if math.Float64bits(got[p].Data[i]) != math.Float64bits(w) {
						t.Fatalf("%s/%d layers: grad %s[%d] = %v, want %v (bitwise)", kind, layers, m.Params()[p].Name, i, got[p].Data[i], w)
					}
				}
			}
		}
	}
}

// TestWorkspaceIterationsStayClean runs several train-style iterations on
// one model with ReleaseAll between them (the backend's lifecycle) and
// checks the results match a workspace-free model fed the same inputs —
// i.e. recycled buffers never leak state across iterations.
func TestWorkspaceIterationsStayClean(t *testing.T) {
	for _, kind := range []Kind{GCN, SAGE, GAT} {
		ws := tensor.NewWorkspace()
		mWS := buildModel(t, kind, 2)
		mWS.SetWorkspace(ws)
		mRef := buildModel(t, kind, 2)
		optWS := nn.NewAdam(0.01)
		optRef := nn.NewAdam(0.01)
		for iter := 0; iter < 3; iter++ {
			rng := rand.New(rand.NewSource(int64(10 + iter)))
			feats := randFeats(rng, 6, 5)
			labels := []int32{int32(iter % 3), int32((iter + 1) % 3)}

			logitsWS, err := mWS.Forward(tinyBatch(), feats.Clone(), false)
			if err != nil {
				t.Fatal(err)
			}
			lossWS, dWS := nn.SoftmaxCrossEntropyWS(ws, logitsWS, labels)
			mWS.Backward(dWS)
			optWS.Step(mWS.Params())
			ws.ReleaseAll()

			logitsRef, err := mRef.Forward(tinyBatch(), feats.Clone(), false)
			if err != nil {
				t.Fatal(err)
			}
			lossRef, dRef := nn.SoftmaxCrossEntropy(logitsRef, labels)
			mRef.Backward(dRef)
			optRef.Step(mRef.Params())

			if lossWS != lossRef {
				t.Fatalf("%s iter %d: loss %v != %v", kind, iter, lossWS, lossRef)
			}
		}
		pWS, pRef := mWS.Params(), mRef.Params()
		for i := range pWS {
			for j, w := range pRef[i].Value.Data {
				if pWS[i].Value.Data[j] != w {
					t.Fatalf("%s: param %s[%d] = %v, want %v after 3 iters", kind, pWS[i].Name, j, pWS[i].Value.Data[j], w)
				}
			}
		}
	}
}

// TestMeanAggregateTermOrder pins meanAggregate to its definition, bit
// for bit: per output element, +0 plus each source row in order (self
// first), then one multiply by 1/n. A third of the input rows are
// negative zeros, so a sum that started anywhere but +0 would show. Two
// blocks run: bigBatch's random one, and one whose destination i has
// i%8 neighbours, so every count 0–7 — a full group of four sources,
// a remainder, both, or neither — occurs on many rows of every shard,
// with and without the self row.
func TestMeanAggregateTermOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := randFeats(rng, eqSrc0, eqIn)
	for r := 0; r < h.Rows; r += 3 {
		for j := range h.Row(r) {
			h.Row(r)[j] = math.Copysign(0, -1)
		}
	}
	fan := sample.Block{SrcNodes: bigBatch(rng).InputNodes, DstCount: eqDst0, Offsets: make([]int32, eqDst0+1)}
	for i := 0; i < fan.DstCount; i++ {
		for k := 0; k < i%8; k++ {
			fan.Indices = append(fan.Indices, int32(rng.Intn(eqSrc0)))
		}
		fan.Offsets[i+1] = int32(len(fan.Indices))
	}
	for _, tc := range []struct {
		name string
		blk  *sample.Block
	}{{"random", &bigBatch(rng).Blocks[0]}, {"fan0-7", &fan}} {
		name, blk := tc.name, tc.blk
		for _, includeSelf := range []bool{false, true} {
			agg, div := meanAggregate(tensor.NewWorkspace(), blk, h, includeSelf)
			for i := 0; i < blk.DstCount; i++ {
				var srcs []int
				if includeSelf {
					srcs = append(srcs, i)
				}
				for _, ix := range blk.Indices[blk.Offsets[i]:blk.Offsets[i+1]] {
					srcs = append(srcs, int(ix))
				}
				wantDiv := float64(max(len(srcs), 1))
				if div[i] != wantDiv {
					t.Fatalf("%s self=%v dst %d: divisor %v, want %v", name, includeSelf, i, div[i], wantDiv)
				}
				for j := 0; j < h.Cols; j++ {
					want := 0.0
					for _, r := range srcs {
						want += h.At(r, j)
					}
					if len(srcs) > 0 {
						want *= 1 / float64(len(srcs))
					}
					if got := agg.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s self=%v dst %d col %d: %v (%#x), want %v (%#x)", name, includeSelf, i, j,
							got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestEpilogueTermOrder pins the fused epilogue to the passes it
// replaced, written out here one element at a time: forward y+b (or
// (y+b)+(y2+b2), GraphSAGE's two paths), then ReLU or ELU, then the
// next layer's mask — serial draws, survivors ×1/keep, dropped +0;
// backward dy·mask (a dropped entry keeps dy·0, a signed zero), then
// the activation's derivative at the pre-activation value. A third of
// the inputs and of dy are −0, and some dropped entries carry a
// negative dy. It runs serial and at four workers, bit for bit.
func TestEpilogueTermOrder(t *testing.T) {
	prev := tensor.Parallelism()
	t.Cleanup(func() { tensor.SetParallelism(prev) })
	const rows, cols, p, seed = eqDst0, eqHid, 0.3, 23
	rng := rand.New(rand.NewSource(31))
	negZeroThird := func(m *tensor.Dense) *tensor.Dense {
		for i := 0; i < len(m.Data); i += 3 {
			m.Data[i] = math.Copysign(0, -1)
		}
		return m
	}
	y := negZeroThird(randFeats(rng, rows, cols))
	y2 := negZeroThird(randFeats(rng, rows, cols))
	dy := negZeroThird(randFeats(rng, rows, cols))
	b := randFeats(rng, 1, cols).Data
	b2 := randFeats(rng, 1, cols).Data
	b[1], b2[1] = math.Copysign(0, -1), math.Copysign(0, -1) // -0 + -0 stays -0

	for _, act := range []nn.Act{nn.ReLU, nn.ELU} {
		for _, twoPaths := range []bool{false, true} {
			for _, train := range []bool{false, true} {
				// The unfused definition.
				keep := 1 - p
				draws := rand.New(rand.NewSource(seed))
				wantY, wantD := make([]float64, len(y.Data)), make([]float64, len(y.Data))
				var droppedNeg int
				for i, v := range y.Data {
					j := i % cols
					pre := v + b[j]
					if twoPaths {
						pre = (v + b[j]) + (y2.Data[i] + b2[j])
					}
					out := pre
					switch act {
					case nn.ReLU:
						if !(pre > 0) {
							out = 0
						}
					case nn.ELU:
						if pre <= 0 {
							out = 1 * (math.Exp(pre) - 1)
						}
					}
					g := dy.Data[i]
					if train {
						mask := 0.0
						if draws.Float64() < keep {
							mask = 1 / keep
							out *= mask
						} else {
							out = 0
							if g < 0 {
								droppedNeg++
							}
						}
						g *= mask
					}
					switch act {
					case nn.ReLU:
						if !(pre > 0) {
							g = 0
						}
					case nn.ELU:
						if pre <= 0 {
							g *= 1 * math.Exp(pre)
						}
					}
					wantY[i], wantD[i] = out, g
				}
				if train && droppedNeg == 0 {
					t.Fatal("no dropped entry carries a negative dy")
				}
				for _, workers := range []int{1, 4} {
					tensor.SetParallelism(workers)
					e := &nn.Epilogue{Act: act, Drop: &nn.Dropout{P: p, Rng: rand.New(rand.NewSource(seed))}}
					var second *tensor.Dense
					if twoPaths {
						second = y2.Clone()
					}
					gotY := e.Forward(y.Clone(), b, second, b2, train)
					gotD := dy.Clone()
					e.Backward(gotD)
					for _, c := range []struct {
						pass      string
						got, want []float64
					}{{"forward", gotY.Data, wantY}, {"backward", gotD.Data, wantD}} {
						for i, w := range c.want {
							if g := c.got[i]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("act %d two=%v train=%v workers=%d: %s elem %d = %v (%#x), want %v (%#x)",
									act, twoPaths, train, workers, c.pass, i, g, math.Float64bits(g), w, math.Float64bits(w))
							}
						}
					}
				}
			}
		}
	}
}

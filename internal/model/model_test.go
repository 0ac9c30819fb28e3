package model

import (
	"math"
	"math/rand"
	"testing"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/nn"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// tinyBatch builds a fixed two-layer mini-batch over 6 vertices:
// targets {0,1}; layer-1 block dst {0,1} src {0,1,2,3}; layer-0 block
// dst {0,1,2,3} src {0..5}.
func tinyBatch() *sample.MiniBatch {
	b0 := sample.Block{ // input-most
		SrcNodes: []int32{10, 11, 12, 13, 14, 15},
		DstCount: 4,
		Offsets:  []int32{0, 2, 3, 5, 6},
		Indices:  []int32{4, 5, 0, 1, 2, 3},
	}
	b1 := sample.Block{
		SrcNodes: []int32{10, 11, 12, 13},
		DstCount: 2,
		Offsets:  []int32{0, 2, 4},
		Indices:  []int32{2, 3, 0, 2},
	}
	return &sample.MiniBatch{
		Blocks:      []sample.Block{b0, b1},
		Targets:     []int32{10, 11},
		InputNodes:  b0.SrcNodes,
		NumVertices: 6,
		NumEdges:    b0.NumEdges() + b1.NumEdges(),
	}
}

func randFeats(rng *rand.Rand, rows, cols int) *tensor.Dense {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func buildModel(t *testing.T, kind Kind, heads int) *Model {
	t.Helper()
	m, err := New(Config{
		Kind: kind, InDim: 5, Hidden: 4, OutDim: 3, Layers: 2,
		Heads: heads, Seed: 99,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", kind, err)
	}
	return m
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Kind: GCN, InDim: 4, Hidden: 4, OutDim: 2, Layers: 0}); err == nil {
		t.Error("Layers=0 accepted")
	}
	if _, err := New(Config{Kind: "mlp", InDim: 4, Hidden: 4, OutDim: 2, Layers: 2}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := New(Config{Kind: GAT, InDim: 4, Hidden: 5, OutDim: 2, Layers: 2, Heads: 2}); err == nil {
		t.Error("GAT hidden not divisible by heads accepted")
	}
}

func TestForwardShapes(t *testing.T) {
	mb := tinyBatch()
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []Kind{GCN, SAGE, GAT} {
		m := buildModel(t, kind, 2)
		feats := randFeats(rng, 6, 5)
		logits, err := m.Forward(mb, feats, false)
		if err != nil {
			t.Fatalf("%s Forward: %v", kind, err)
		}
		if logits.Rows != 2 || logits.Cols != 3 {
			t.Errorf("%s logits shape %dx%d, want 2x3", kind, logits.Rows, logits.Cols)
		}
	}
}

func TestForwardRejectsMismatch(t *testing.T) {
	mb := tinyBatch()
	m := buildModel(t, GCN, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := m.Forward(mb, randFeats(rng, 3, 5), false); err == nil {
		t.Error("wrong feature rows accepted")
	}
	one := *mb
	one.Blocks = mb.Blocks[:1]
	if _, err := m.Forward(&one, randFeats(rng, 6, 5), false); err == nil {
		t.Error("wrong block count accepted")
	}
}

// TestGradCheckAllModels verifies analytic parameter gradients against
// central differences through the full model + softmax CE loss.
func TestGradCheckAllModels(t *testing.T) {
	mb := tinyBatch()
	labels := []int32{0, 2}
	rng := rand.New(rand.NewSource(7))
	feats := randFeats(rng, 6, 5)

	for _, kind := range []Kind{GCN, SAGE, GAT} {
		m := buildModel(t, kind, 2)
		loss := func() float64 {
			logits, err := m.Forward(mb, feats, false)
			if err != nil {
				t.Fatal(err)
			}
			l, _ := nn.SoftmaxCrossEntropy(logits, labels)
			return l
		}
		logits, err := m.Forward(mb, feats, false)
		if err != nil {
			t.Fatal(err)
		}
		_, dLogits := nn.SoftmaxCrossEntropy(logits, labels)
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
		m.Backward(dLogits)

		for _, p := range m.Params() {
			stride := len(p.Value.Data)/3 + 1
			for i := 0; i < len(p.Value.Data); i += stride {
				const h = 1e-6
				orig := p.Value.Data[i]
				p.Value.Data[i] = orig + h
				up := loss()
				p.Value.Data[i] = orig - h
				down := loss()
				p.Value.Data[i] = orig
				want := (up - down) / (2 * h)
				got := p.Grad.Data[i]
				if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
					t.Errorf("%s %s grad[%d] = %v, want %v", kind, p.Name, i, got, want)
				}
			}
		}
	}
}

// TestModelsLearn trains each architecture on a real synthetic dataset for
// a few steps and checks that training accuracy beats chance.
func TestModelsLearn(t *testing.T) {
	d := dataset.MustLoad(dataset.OgbnArxiv)
	g := d.Graph
	rng := rand.New(rand.NewSource(20))
	s := &sample.NodeWise{Fanouts: []int{8, 5}}

	for _, kind := range []Kind{GCN, SAGE, GAT} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m, err := New(Config{
				Kind: kind, InDim: g.FeatDim, Hidden: 16, OutDim: g.NumClasses,
				Layers: 2, Heads: 2, Seed: 33,
			})
			if err != nil {
				t.Fatal(err)
			}
			opt := nn.NewAdam(0.01)
			var acc float64
			for step := 0; step < 30; step++ {
				batch := d.TrainIdx[:256]
				mb := s.Sample(rng, g, batch)
				feats := cache.GatherRowsInto(nil, g, mb.InputNodes)
				logits, err := m.Forward(mb, feats, true)
				if err != nil {
					t.Fatal(err)
				}
				labels := make([]int32, len(mb.Targets))
				for i, v := range mb.Targets {
					labels[i] = g.Labels[v]
				}
				_, dLogits := nn.SoftmaxCrossEntropy(logits, labels)
				m.Backward(dLogits)
				opt.Step(m.Params())
				acc = nn.Accuracy(logits, labels)
			}
			chance := 1.0 / float64(g.NumClasses)
			if acc < 2*chance {
				t.Errorf("%s train accuracy %.3f below 2x chance %.3f", kind, acc, 2*chance)
			}
		})
	}
}

// numParams returns |Φ|, the model's scalar parameter count.
func numParams(m *Model) int { return nn.CountParams(m.Params()) }

func TestNumParamsPositiveAndOrdered(t *testing.T) {
	small := buildModel(t, SAGE, 1)
	big, err := New(Config{Kind: SAGE, InDim: 5, Hidden: 64, OutDim: 3, Layers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if numParams(small) <= 0 {
		t.Error("NumParams <= 0")
	}
	if numParams(big) <= numParams(small) {
		t.Error("wider model should have more params")
	}
}

func TestFLOPsMonotonic(t *testing.T) {
	mb := tinyBatch()
	for _, kind := range []Kind{GCN, SAGE, GAT} {
		small := buildModel(t, kind, 2)
		bigCfg := small.Cfg()
		bigCfg.Hidden = 16
		big, err := New(bigCfg)
		if err != nil {
			t.Fatal(err)
		}
		if big.FLOPs(mb) <= small.FLOPs(mb) {
			t.Errorf("%s: FLOPs not monotonic in hidden dim", kind)
		}
	}
}

// TestGatherFeatures checks the model's input matrix as the training
// paths build it: cache.GatherRowsInto over ogbn-arxiv rows, one row
// per input node in order.
func TestGatherFeatures(t *testing.T) {
	d := dataset.MustLoad(dataset.OgbnArxiv)
	g := d.Graph
	nodes := []int32{3, 0, 7}
	feats := cache.GatherRowsInto(nil, g, nodes)
	if feats.Rows != 3 || feats.Cols != g.FeatDim {
		t.Fatalf("shape %dx%d", feats.Rows, feats.Cols)
	}
	for i, v := range nodes {
		raw := g.Feature(v)
		for j := 0; j < g.FeatDim; j++ {
			if math.Abs(feats.At(i, j)-float64(raw[j])) > 1e-6 {
				t.Fatalf("row %d mismatch", i)
			}
		}
	}
}

// TestGatherFeaturesIntoReusesBuffer checks that regathering a smaller
// batch of ogbn-arxiv training inputs into the previous input matrix
// reuses its storage, as the per-step input buffers rely on.
func TestGatherFeaturesIntoReusesBuffer(t *testing.T) {
	d := dataset.MustLoad(dataset.OgbnArxiv)
	g := d.Graph
	nodes := d.TrainIdx[:64]
	a := cache.GatherRowsInto(nil, g, nodes)
	for i, v := range nodes {
		for j, w := range g.Feature(v) {
			if a.At(i, j) != float64(w) {
				t.Fatalf("input row %d col %d = %v, want %v", i, j, a.At(i, j), w)
			}
		}
	}
	// Smaller regather must reuse the same backing array.
	b := cache.GatherRowsInto(a, g, nodes[:16])
	if &b.Data[0] != &a.Data[0] {
		t.Error("GatherRowsInto did not reuse storage for a smaller batch")
	}
	if b.Rows != 16 {
		t.Fatalf("rows = %d, want 16", b.Rows)
	}
}

// TestDropoutChangesTraining ensures train-mode forward differs from eval.
func TestDropoutTrainDiffers(t *testing.T) {
	mb := tinyBatch()
	m, err := New(Config{
		Kind: SAGE, InDim: 5, Hidden: 8, OutDim: 3, Layers: 2,
		Dropout: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	feats := randFeats(rng, 6, 5)
	a, err := m.Forward(mb, feats, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Forward(mb, feats, true)
	if err != nil {
		t.Fatal(err)
	}
	var diff float64
	for i := range a.Data {
		diff += math.Abs(a.Data[i] - b.Data[i])
	}
	if diff < 1e-9 {
		t.Error("dropout train forward identical to eval forward")
	}
}

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

// TestThreeLayerModel exercises depth-3 block chains end to end.
func TestThreeLayerModel(t *testing.T) {
	d := dataset.MustLoad(dataset.OgbnArxiv)
	g := d.Graph
	s := &sample.NodeWise{Fanouts: []int{6, 4, 3}}
	rng := rand.New(rand.NewSource(4))
	mb := s.Sample(rng, g, d.TrainIdx[:64])
	if err := mb.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{GCN, SAGE, GAT} {
		m, err := New(Config{
			Kind: kind, InDim: g.FeatDim, Hidden: 8, OutDim: g.NumClasses,
			Layers: 3, Heads: 2, Seed: 2,
		})
		if err != nil {
			t.Fatalf("New 3-layer %s: %v", kind, err)
		}
		feats := cache.GatherRowsInto(nil, g, mb.InputNodes)
		logits, err := m.Forward(mb, feats, true)
		if err != nil {
			t.Fatalf("%s Forward: %v", kind, err)
		}
		if logits.Rows != len(mb.Targets) {
			t.Fatalf("%s logits rows %d != targets %d", kind, logits.Rows, len(mb.Targets))
		}
		labels := make([]int32, len(mb.Targets))
		for i, v := range mb.Targets {
			labels[i] = g.Labels[v]
		}
		loss, dl := nn.SoftmaxCrossEntropy(logits, labels)
		if loss <= 0 {
			t.Errorf("%s loss = %v", kind, loss)
		}
		m.Backward(dl)
		// Gradients must be nonzero somewhere in the FIRST layer, proving
		// the chain rule reached the input side through 3 hops.
		var nonzero bool
		for _, p := range m.Params()[:1] {
			for _, v := range p.Grad.Data {
				if v != 0 {
					nonzero = true
					break
				}
			}
		}
		if !nonzero {
			t.Errorf("%s: first-layer gradient all zero after backward", kind)
		}
	}
}

// TestSingleLayerModel: Layers=1 maps features straight to logits.
func TestSingleLayerModel(t *testing.T) {
	d := dataset.MustLoad(dataset.OgbnArxiv)
	g := d.Graph
	s := &sample.NodeWise{Fanouts: []int{5}}
	rng := rand.New(rand.NewSource(4))
	mb := s.Sample(rng, g, d.TrainIdx[:32])
	m, err := New(Config{Kind: GCN, InDim: g.FeatDim, Hidden: 1, OutDim: g.NumClasses, Layers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	feats := cache.GatherRowsInto(nil, g, mb.InputNodes)
	logits, err := m.Forward(mb, feats, false)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Rows != len(mb.Targets) || logits.Cols != g.NumClasses {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
}

// TestGATHeadsChangeParamCount: more heads means more attention params.
func TestGATHeadsChangeParamCount(t *testing.T) {
	one, err := New(Config{Kind: GAT, InDim: 8, Hidden: 8, OutDim: 3, Layers: 2, Heads: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := New(Config{Kind: GAT, InDim: 8, Hidden: 8, OutDim: 3, Layers: 2, Heads: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Same total width, but 4 heads carry 4x the attention vectors.
	if numParams(four) <= numParams(one)-1 && numParams(four) != numParams(one) {
		t.Errorf("param counts: 1 head %d vs 4 heads %d", numParams(one), numParams(four))
	}
	if len(four.Params()) <= len(one.Params()) {
		t.Errorf("4 heads should expose more parameter tensors: %d vs %d",
			len(four.Params()), len(one.Params()))
	}
}

// frobeniusNorm returns sqrt(sum of squares) of m's elements.
func frobeniusNorm(m *tensor.Dense) float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// TestDeterministicForward: same seed, same config, same output.
func TestDeterministicForward(t *testing.T) {
	d := dataset.MustLoad(dataset.OgbnArxiv)
	g := d.Graph
	s := &sample.NodeWise{Fanouts: []int{5, 5}}
	mb := s.Sample(rand.New(rand.NewSource(8)), g, d.TrainIdx[:32])
	feats := cache.GatherRowsInto(nil, g, mb.InputNodes)
	mk := func() float64 {
		m, err := New(Config{Kind: SAGE, InDim: g.FeatDim, Hidden: 8, OutDim: g.NumClasses, Layers: 2, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		logits, err := m.Forward(mb, feats, false)
		if err != nil {
			t.Fatal(err)
		}
		return frobeniusNorm(logits)
	}
	if mk() != mk() {
		t.Error("same seed produced different forward outputs")
	}
}

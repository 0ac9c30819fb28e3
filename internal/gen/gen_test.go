package gen

import (
	"math/rand"
	"testing"
)

func TestBarabasiAlbertBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := BarabasiAlbert(rng, 500, 3)
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	if g.NumVertices() != 500 {
		t.Fatalf("NumVertices = %d, want 500", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := g.Stats()
	if s.Min < 3 {
		t.Errorf("min degree = %d, want >= 3 (every vertex attaches m times)", s.Min)
	}
	// Power-law graphs should have a hub much larger than the mean.
	if float64(s.Max) < 3*s.Mean {
		t.Errorf("max degree %d not hubby enough vs mean %.1f", s.Max, s.Mean)
	}
	if s.GiniCoefficient < 0.1 {
		t.Errorf("Gini = %v, want skewed (>0.1)", s.GiniCoefficient)
	}
}

func TestBarabasiAlbertRejectsBadArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := BarabasiAlbert(rng, 3, 3); err == nil {
		t.Error("n == m accepted")
	}
	if _, err := BarabasiAlbert(rng, 10, 0); err == nil {
		t.Error("m == 0 accepted")
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	g1, err := BarabasiAlbert(rand.New(rand.NewSource(42)), 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BarabasiAlbert(rand.New(rand.NewSource(42)), 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced %d vs %d edges", g1.NumEdges(), g2.NumEdges())
	}
	for v := int32(0); v < 200; v++ {
		a, b := g1.Neighbors(v), g2.Neighbors(v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("same seed produced different adjacency at vertex %d", v)
			}
		}
	}
}

func TestPowerLawCommunity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, comm, err := PowerLawCommunity(rng, PowerLawCommunitySpec{
		NumVertices:    2000,
		NumCommunities: 8,
		AvgDegree:      16,
		IntraFraction:  0.8,
		HubBias:        0.8,
	})
	if err != nil {
		t.Fatalf("PowerLawCommunity: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Mean < 8 || s.Mean > 24 {
		t.Errorf("mean degree = %.1f, want near 16 (dedup removes some)", s.Mean)
	}
	if s.GiniCoefficient < 0.15 {
		t.Errorf("Gini = %v, want skewed (hub bias)", s.GiniCoefficient)
	}
	// Homophily check.
	var intra, total int
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(int32(v)) {
			total++
			if comm[u] == comm[v] {
				intra++
			}
		}
	}
	if frac := float64(intra) / float64(total); frac < 0.5 {
		t.Errorf("homophily = %.2f, want > 0.5", frac)
	}
}

func TestAttachFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, comm, err := PowerLawCommunity(rng, PowerLawCommunitySpec{
		NumVertices: 300, NumCommunities: 4, AvgDegree: 8, IntraFraction: 0.7, HubBias: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachFeatures(rng, g, comm, 4, FeatureSpec{Dim: 16, Noise: 0.3}); err != nil {
		t.Fatalf("AttachFeatures: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.FeatDim != 16 || len(g.Features) != 300*16 {
		t.Fatalf("feature shape wrong: dim=%d len=%d", g.FeatDim, len(g.Features))
	}
	// With low noise, same-class features should be closer than cross-class
	// ones on average.
	dist := func(a, b []float32) float64 {
		var s float64
		for i := range a {
			d := float64(a[i] - b[i])
			s += d * d
		}
		return s
	}
	var same, cross float64
	var nSame, nCross int
	for i := 0; i < 200; i++ {
		u, v := int32(rng.Intn(300)), int32(rng.Intn(300))
		if u == v {
			continue
		}
		d := dist(g.Feature(u), g.Feature(v))
		if g.Labels[u] == g.Labels[v] {
			same += d
			nSame++
		} else {
			cross += d
			nCross++
		}
	}
	if nSame == 0 || nCross == 0 {
		t.Skip("degenerate draw")
	}
	if same/float64(nSame) >= cross/float64(nCross) {
		t.Errorf("same-class mean dist %.2f >= cross-class %.2f",
			same/float64(nSame), cross/float64(nCross))
	}
}

func TestAttachFeaturesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, comm, err := PowerLawCommunity(rng, PowerLawCommunitySpec{
		NumVertices: 20, NumCommunities: 2, AvgDegree: 5, IntraFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachFeatures(rng, g, comm[:5], 2, FeatureSpec{Dim: 4}); err == nil {
		t.Error("short community slice accepted")
	}
	if err := AttachFeatures(rng, g, comm, 2, FeatureSpec{Dim: 0}); err == nil {
		t.Error("zero feature dim accepted")
	}
}

package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(10))
	g, err := gen.BarabasiAlbert(rng, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// dedup returns vs without repeats, in first-occurrence order.
func dedup(vs []int32) []int32 {
	seen := make(map[int32]bool, len(vs))
	out := make([]int32, 0, len(vs))
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func targets(n, max int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(max))
	}
	return out
}

func TestNodeWiseStructure(t *testing.T) {
	g := testGraph(t)
	s := &NodeWise{Fanouts: []int{5, 3}}
	rng := rand.New(rand.NewSource(1))
	mb := s.Sample(rng, g, targets(32, 400, 2))
	if err := mb.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(mb.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(mb.Blocks))
	}
	// Hop-0 block (last) fans out at most 3 per target... wait: Fanouts[0]
	// is hop 0 feeding the LAST layer. Check per-dst caps instead.
	last := mb.Blocks[1]
	for i := 0; i < last.DstCount; i++ {
		deg := int(last.Offsets[i+1] - last.Offsets[i])
		if deg > 5 {
			t.Errorf("last-block dst %d sampled %d > fanout 5", i, deg)
		}
	}
	first := mb.Blocks[0]
	for i := 0; i < first.DstCount; i++ {
		deg := int(first.Offsets[i+1] - first.Offsets[i])
		if deg > 3 {
			t.Errorf("first-block dst %d sampled %d > fanout 3", i, deg)
		}
	}
	if mb.NumVertices != len(mb.Blocks[0].SrcNodes) {
		t.Errorf("NumVertices = %d, want %d", mb.NumVertices, len(mb.Blocks[0].SrcNodes))
	}
}

func TestNodeWiseDedupsTargets(t *testing.T) {
	g := testGraph(t)
	s := &NodeWise{Fanouts: []int{2}}
	rng := rand.New(rand.NewSource(1))
	mb := s.Sample(rng, g, []int32{7, 7, 7, 9})
	if len(mb.Targets) != 2 {
		t.Errorf("targets = %v, want deduped to 2", mb.Targets)
	}
}

func TestNodeWiseFullNeighborhood(t *testing.T) {
	g := testGraph(t)
	// Fanout 0 (or >= degree) means take all neighbors.
	s := &NodeWise{Fanouts: []int{0}}
	rng := rand.New(rand.NewSource(1))
	tg := []int32{5}
	mb := s.Sample(rng, g, tg)
	if mb.Blocks[0].NumEdges() != g.Degree(5) {
		t.Errorf("edges = %d, want full degree %d", mb.Blocks[0].NumEdges(), g.Degree(5))
	}
}

func TestNodeWiseBiasSkewsSelection(t *testing.T) {
	g := testGraph(t)
	// Bias toward even vertex ids.
	bias := func(v int32) float64 {
		if v%2 == 0 {
			return 10
		}
		return 0
	}
	biased := &NodeWise{Fanouts: []int{4}, Bias: bias, BiasStrength: 1}
	uniform := &NodeWise{Fanouts: []int{4}}
	countEven := func(s Sampler) (even, total int) {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 50; trial++ {
			mb := s.Sample(rng, g, targets(16, 400, int64(trial)))
			blk := mb.Blocks[0]
			for _, ix := range blk.Indices {
				total++
				if blk.SrcNodes[ix]%2 == 0 {
					even++
				}
			}
		}
		return
	}
	be, bt := countEven(biased)
	ue, ut := countEven(uniform)
	bf, uf := float64(be)/float64(bt), float64(ue)/float64(ut)
	if bf <= uf+0.05 {
		t.Errorf("bias had no effect: biased even-frac %.3f vs uniform %.3f", bf, uf)
	}
}

func TestLayerWiseBudget(t *testing.T) {
	g := testGraph(t)
	s := &LayerWise{Deltas: []int{50, 30}}
	rng := rand.New(rand.NewSource(4))
	tg := targets(20, 400, 5)
	mb := s.Sample(rng, g, tg)
	if err := mb.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// New vertices per hop bounded by delta.
	nt := len(dedup(tg))
	hop0New := len(mb.Blocks[1].SrcNodes) - nt
	if hop0New > 50 {
		t.Errorf("hop 0 added %d vertices, budget 50", hop0New)
	}
	hop1New := len(mb.Blocks[0].SrcNodes) - len(mb.Blocks[1].SrcNodes)
	if hop1New > 30 {
		t.Errorf("hop 1 added %d vertices, budget 30", hop1New)
	}
}

func TestSubgraphWise(t *testing.T) {
	g := testGraph(t)
	s := &SubgraphWise{WalkLength: 4, Layers: 2}
	rng := rand.New(rand.NewSource(6))
	tg := targets(16, 400, 7)
	mb := s.Sample(rng, g, tg)
	if err := mb.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(mb.Blocks) != 2 {
		t.Fatalf("layers = %d, want 2", len(mb.Blocks))
	}
	// Subgraph-wise: every block trains on the full induced subgraph.
	if mb.Blocks[0].DstCount != mb.NumVertices {
		t.Errorf("dst %d != subgraph size %d", mb.Blocks[0].DstCount, mb.NumVertices)
	}
	// All roots must be included.
	pos := map[int32]bool{}
	for _, v := range mb.InputNodes {
		pos[v] = true
	}
	for _, r := range dedup(tg) {
		if !pos[r] {
			t.Errorf("root %d missing from subgraph", r)
		}
	}
}

func TestAnalyticBatchSize(t *testing.T) {
	// tau=1: exact product.
	got := AnalyticBatchSize(10, []int{4, 2}, 1)
	if math.Abs(got-10*5*3) > 1e-9 {
		t.Errorf("AnalyticBatchSize = %v, want 150", got)
	}
	// tau<1 shrinks the estimate.
	if AnalyticBatchSize(10, []int{4, 2}, 0.9) >= got {
		t.Error("tau < 1 did not shrink estimate")
	}
	// No fanouts: just b0.
	if AnalyticBatchSize(7, nil, 1) != 7 {
		t.Error("empty fanouts should return b0")
	}
}

func TestEpochBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	train := make([]int32, 103)
	for i := range train {
		train[i] = int32(i)
	}
	batches := EpochBatches(rng, train, 25)
	if len(batches) != 5 {
		t.Fatalf("batches = %d, want 5 (4 full + 1 short)", len(batches))
	}
	if len(batches[4]) != 3 {
		t.Errorf("last batch = %d, want 3", len(batches[4]))
	}
	// Coverage: every vertex appears exactly once.
	seen := map[int32]int{}
	for _, b := range batches {
		for _, v := range b {
			seen[v]++
		}
	}
	for _, v := range train {
		if seen[v] != 1 {
			t.Fatalf("vertex %d appears %d times", v, seen[v])
		}
	}
}

func TestEpochBatchesZeroSize(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	batches := EpochBatches(rng, []int32{1, 2, 3}, 0)
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Errorf("b0=0 should produce one full batch, got %v", batches)
	}
}

// Property: all sampler outputs validate and respect the src/dst chain on
// random graphs and random target sets.
func TestSamplersValidateProperty(t *testing.T) {
	g := testGraph(t)
	samplers := []Sampler{
		&NodeWise{Fanouts: []int{3, 3}},
		&NodeWise{Fanouts: []int{5}},
		&LayerWise{Deltas: []int{20, 10}},
		&SubgraphWise{WalkLength: 3, Layers: 2},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tg := targets(1+rng.Intn(40), 400, seed)
		for _, s := range samplers {
			mb := s.Sample(rng, g, tg)
			if mb.Validate() != nil {
				return false
			}
			if mb.NumVertices <= 0 || mb.NumVertices > 400 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: minibatch size grows with fanout and never exceeds the
// analytic tau=1 upper bound.
func TestMinibatchSizeBoundProperty(t *testing.T) {
	g := testGraph(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b0 := 4 + rng.Intn(30)
		k := 1 + rng.Intn(6)
		s := &NodeWise{Fanouts: []int{k, k}}
		tg := targets(b0, 400, seed+1)
		mb := s.Sample(rng, g, tg)
		bound := AnalyticBatchSize(len(dedup(tg)), s.Fanouts, 1)
		return float64(mb.NumVertices) <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPickNeighborsWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ns := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	var sc pickScratch
	for trial := 0; trial < 20; trial++ {
		picks := sc.pickNeighbors(rng, ns, 4, nil, 0)
		if len(picks) != 4 {
			t.Fatalf("picked %d, want 4", len(picks))
		}
		seen := map[int32]bool{}
		for _, p := range picks {
			if seen[p] {
				t.Fatalf("duplicate pick %d", p)
			}
			seen[p] = true
		}
	}
	// Biased variant also without replacement.
	bias := func(v int32) float64 { return float64(v) }
	for trial := 0; trial < 20; trial++ {
		picks := sc.pickNeighbors(rng, ns, 5, bias, 1)
		seen := map[int32]bool{}
		for _, p := range picks {
			if seen[p] {
				t.Fatalf("duplicate biased pick %d", p)
			}
			seen[p] = true
		}
	}
}

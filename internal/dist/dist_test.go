package dist

import (
	"math/rand"
	"reflect"
	"testing"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// testGraph builds a random graph with features: n vertices, ~deg
// neighbors each (both directions), FeatDim-dim rows.
func testGraph(t *testing.T, n, deg, featDim int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		for d := 0; d < deg; d++ {
			u := int32(rng.Intn(n))
			if u == int32(v) {
				continue
			}
			adj[v] = append(adj[v], u)
			adj[u] = append(adj[u], int32(v))
		}
	}
	g, err := graph.FromAdjList(adj)
	if err != nil {
		t.Fatalf("FromAdjList: %v", err)
	}
	g.FeatDim = featDim
	g.Features = make([]float32, n*featDim)
	for i := range g.Features {
		g.Features[i] = rng.Float32()*2 - 1
	}
	return g
}

// batches derives deterministic node streams from the graph.
func batches(g *graph.Graph, count, size int, seed int64) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int32, count)
	for b := range out {
		nodes := make([]int32, 0, size)
		seen := map[int32]bool{}
		for len(nodes) < size {
			v := int32(rng.Intn(g.NumVertices()))
			if !seen[v] {
				seen[v] = true
				nodes = append(nodes, v)
			}
		}
		out[b] = nodes
	}
	return out
}

// TestSourceMatchesGlobal drives the dist plane and the single-device
// plane over the same batch streams and requires bitwise-identical
// gathered matrices for every policy, and identical counters for the
// policies whose shards replicate global residency (none, static, freq).
func TestSourceMatchesGlobal(t *testing.T) {
	g := testGraph(t, 400, 4, 7, 1)
	order := g.DegreeOrder()
	for _, prec := range []cache.Precision{cache.Float32, cache.Int8} {
		for _, tc := range []struct {
			policy        cache.Policy
			capacity      int
			countersMatch bool
		}{
			{cache.None, 0, true},
			{cache.Static, 120, true},
			{cache.Freq, 150, true},
			{cache.LRU, 100, false},
			{cache.FIFO, 100, false},
		} {
			for _, k := range []int{2, 4} {
				part, err := graph.PartitionGraph(g, k, graph.PartitionGreedy)
				if err != nil {
					t.Fatalf("partition: %v", err)
				}
				ccfg := cache.Config{Policy: tc.policy, Capacity: tc.capacity, Precision: prec, Order: order}
				ds, err := NewSource(g, part, ccfg)
				if err != nil {
					t.Fatalf("%s/%s K=%d: NewSource: %v", tc.policy, prec.OrDefault(), k, err)
				}
				gs, err := cache.NewSource(ccfg, g)
				if err != nil {
					t.Fatalf("%s/%s: global cache.NewSource: %v", tc.policy, prec.OrDefault(), err)
				}
				var dsDst, gsDst *tensor.Dense
				for _, nodes := range batches(g, 6, 64, 42) {
					var dsSt, gsSt cache.BatchStats
					dsDst, dsSt = ds.GatherInto(dsDst, nodes)
					gsDst, gsSt = gs.GatherInto(gsDst, nodes)
					if !reflect.DeepEqual(dsDst.Data, gsDst.Data) {
						t.Fatalf("%s/%s K=%d: gathered rows diverge from global plane", tc.policy, prec.OrDefault(), k)
					}
					if tc.countersMatch {
						gsSt.HaloBytes = dsSt.HaloBytes // the one new field
						if dsSt != gsSt {
							t.Fatalf("%s/%s K=%d: stats %+v != global %+v", tc.policy, prec.OrDefault(), k, dsSt, gsSt)
						}
					}
				}
				if tc.countersMatch {
					if ds.TransferredBytes() != gs.TransferredBytes() {
						t.Fatalf("%s/%s K=%d: transferred %d != global %d", tc.policy, prec.OrDefault(), k, ds.TransferredBytes(), gs.TransferredBytes())
					}
					if ds.HitRate() != gs.HitRate() {
						t.Fatalf("%s/%s K=%d: hit rate %v != global %v", tc.policy, prec.OrDefault(), k, ds.HitRate(), gs.HitRate())
					}
				}
			}
		}
	}
}

// TestSourceDeterministicAcrossWorkers pins the fan-out: the gathered
// matrix and stats must be identical at every tensor parallelism level.
func TestSourceDeterministicAcrossWorkers(t *testing.T) {
	g := testGraph(t, 300, 3, 5, 2)
	part, err := graph.PartitionGraph(g, 4, graph.PartitionHash)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	run := func(workers int) (*tensor.Dense, []cache.BatchStats) {
		defer tensor.WithParallelism(workers)()
		src, err := NewSource(g, part, cache.Config{Policy: cache.Static, Capacity: 90, Order: g.DegreeOrder()})
		if err != nil {
			t.Fatalf("NewSource: %v", err)
		}
		var dst *tensor.Dense
		var stats []cache.BatchStats
		var out *tensor.Dense
		for _, nodes := range batches(g, 5, 48, 7) {
			var st cache.BatchStats
			dst, st = src.GatherInto(dst, nodes)
			stats = append(stats, st)
			if out == nil {
				out = tensor.New(0, 0)
			}
			out.Data = append(out.Data, dst.Data...)
		}
		return out, stats
	}
	ref, refStats := run(1)
	for _, w := range []int{2, 8} {
		got, gotStats := run(w)
		if !reflect.DeepEqual(got.Data, ref.Data) {
			t.Fatalf("workers=%d: gathered rows differ from serial", w)
		}
		if !reflect.DeepEqual(gotStats, refStats) {
			t.Fatalf("workers=%d: stats differ from serial", w)
		}
	}
}

// TestHaloHandComputed checks the halo classification on a hand-built
// block: two destinations owned by different parts sharing a remote
// neighbor.
func TestHaloHandComputed(t *testing.T) {
	// Path 0-1-2-3, greedy K=2 owns: part0={1,2}, part1={0,3} (see the
	// partitioner's hand-computed test).
	g := testGraph(t, 4, 0, 3, 3) // topology replaced below
	adj := [][]int32{{1}, {0, 2}, {1, 3}, {2}}
	pg, err := graph.FromAdjList(adj)
	if err != nil {
		t.Fatalf("FromAdjList: %v", err)
	}
	pg.FeatDim, pg.Features = g.FeatDim, g.Features[:4*g.FeatDim]
	part, err := graph.PartitionGraph(pg, 2, graph.PartitionGreedy)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	src, err := NewSource(pg, part, cache.Config{Policy: cache.None})
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	// Block: dst 1 (owner 0) aggregates {0, 2}; dst 3 (owner 1)
	// aggregates {2}. Remote rows: vertex 0 for part 0; vertex 2 for
	// part 1 -> 2 halo rows.
	mb := &sample.MiniBatch{
		Blocks: []sample.Block{{
			SrcNodes: []int32{1, 3, 0, 2},
			DstCount: 2,
			Offsets:  []int32{0, 2, 3},
			Indices:  []int32{2, 3, 3},
		}},
	}
	src.BeginBatch(mb)
	st := src.Access(mb.Blocks[0].SrcNodes)
	wantRows := int64(2)
	if want := wantRows * int64(cache.Float32.RowBytes(pg.FeatDim)); st.HaloBytes != want {
		t.Fatalf("HaloBytes = %d, want %d", st.HaloBytes, want)
	}
	// Second batch with the same topology: dedup stamps must reset.
	src.BeginBatch(mb)
	st = src.Access(mb.Blocks[0].SrcNodes)
	if want := wantRows * int64(cache.Float32.RowBytes(pg.FeatDim)); st.HaloBytes != want {
		t.Fatalf("second batch HaloBytes = %d, want %d", st.HaloBytes, want)
	}
	if src.HaloBytes() != 2*st.HaloBytes {
		t.Fatalf("cumulative HaloBytes = %d, want %d", src.HaloBytes(), 2*st.HaloBytes)
	}
}

// TestHaloZeroWithoutBatch pins the no-topology fallback: a source used
// without BeginBatch (outside the pipeline) meters no halo traffic.
func TestHaloZeroWithoutBatch(t *testing.T) {
	g := testGraph(t, 100, 3, 4, 4)
	part, err := graph.PartitionGraph(g, 2, graph.PartitionHash)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	src, err := NewSource(g, part, cache.Config{Policy: cache.None})
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	if st := src.Access([]int32{0, 1, 2}); st.HaloBytes != 0 {
		t.Fatalf("HaloBytes = %d without a batch topology", st.HaloBytes)
	}
}

// TestReducerRejectsNonPowerOfTwo: the priced all-reduce stands in for a
// tree reduction only at power-of-two K >= 2.
func TestReducerRejectsNonPowerOfTwo(t *testing.T) {
	for _, k := range []int{-2, 0, 1, 3, 6} {
		if err := CheckReduction(k); err == nil {
			t.Errorf("K=%d accepted", k)
		}
	}
	for _, k := range []int{2, 4, 8} {
		if err := CheckReduction(k); err != nil {
			t.Errorf("K=%d rejected: %v", k, err)
		}
	}
}

func TestSplitCapacity(t *testing.T) {
	cases := []struct {
		total  int
		counts []int
		want   []int
	}{
		{10, []int{50, 50}, []int{5, 5}},
		{10, []int{75, 25}, []int{8, 2}}, // 7.5/2.5: tied remainders go to the lower index
		{7, []int{1, 1, 1}, []int{3, 2, 2}},
		{0, []int{10, 10}, []int{0, 0}},
		{5, []int{0, 10}, []int{0, 5}},
	}
	for _, tc := range cases {
		got := splitCapacity(tc.total, tc.counts)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitCapacity(%d, %v) = %v, want %v", tc.total, tc.counts, got, tc.want)
		}
		sum := 0
		for _, c := range got {
			sum += c
		}
		if sum != tc.total {
			t.Errorf("splitCapacity(%d, %v) sums to %d", tc.total, tc.counts, sum)
		}
	}
}

func TestSourceRejectsOpt(t *testing.T) {
	g := testGraph(t, 50, 2, 3, 5)
	part, err := graph.PartitionGraph(g, 2, graph.PartitionHash)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if _, err := NewSource(g, part, cache.Config{Policy: cache.Opt, Capacity: 10}); err == nil {
		t.Fatal("opt policy accepted")
	}
}

package plan

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/sample"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(rand.New(rand.NewSource(3)), 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testTargets(n int) []int32 {
	targets := make([]int32, n)
	for i := range targets {
		targets[i] = int32(i * 3)
	}
	return targets
}

// samplersUnderTest returns one fresh instance of each sampler family
// (fresh per call: compiling mutates sampler scratch).
func samplersUnderTest() map[string]func() sample.Sampler {
	return map[string]func() sample.Sampler{
		"node-wise":     func() sample.Sampler { return &sample.NodeWise{Fanouts: []int{6, 4}} },
		"layer-wise":    func() sample.Sampler { return &sample.LayerWise{Deltas: []int{200, 400}} },
		"subgraph-wise": func() sample.Sampler { return &sample.SubgraphWise{WalkLength: 5, Layers: 2} },
	}
}

// mbEqual compares two mini-batches field by field, value-deep.
func mbEqual(t *testing.T, got, want *sample.MiniBatch, ctx string) {
	t.Helper()
	if got.NumVertices != want.NumVertices || got.NumEdges != want.NumEdges {
		t.Fatalf("%s: sizes (%d,%d) vs (%d,%d)", ctx, got.NumVertices, got.NumEdges, want.NumVertices, want.NumEdges)
	}
	if !slices.Equal(got.InputNodes, want.InputNodes) {
		t.Fatalf("%s: InputNodes differ", ctx)
	}
	if !slices.Equal(got.Targets, want.Targets) {
		t.Fatalf("%s: Targets differ", ctx)
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: %d blocks vs %d", ctx, len(got.Blocks), len(want.Blocks))
	}
	for l := range got.Blocks {
		gb, wb := got.Blocks[l], want.Blocks[l]
		if gb.DstCount != wb.DstCount || !slices.Equal(gb.SrcNodes, wb.SrcNodes) ||
			!slices.Equal(gb.Offsets, wb.Offsets) || !slices.Equal(gb.Indices, wb.Indices) {
			t.Fatalf("%s: block %d differs", ctx, l)
		}
	}
}

// TestCompileReplayBitwise pins Replay to live sampling for every
// sampler family: the compiled plan must reproduce each (epoch, batch)
// mini-batch value-identically to driving the sampler the way the live
// pipeline does.
func TestCompileReplayBitwise(t *testing.T) {
	g := testGraph(t)
	targets := testTargets(700)
	const seed, epochs, batchSize = 11, 2, 128
	for name, mk := range samplersUnderTest() {
		t.Run(name, func(t *testing.T) {
			key := KeyFor("test-ds", false, mk(), batchSize, seed, epochs, true, targets)
			pl, err := Compile(g, mk(), key, targets)
			if err != nil {
				t.Fatal(err)
			}
			live := mk()
			for e := 0; e < epochs; e++ {
				chunks := sample.EpochPlan(seed, e, targets, batchSize, true)
				if len(chunks) != pl.BatchesPerEpoch() {
					t.Fatalf("epoch %d: %d batches, plan has %d", e, len(chunks), pl.BatchesPerEpoch())
				}
				for i, tg := range chunks {
					want := live.Sample(sample.BatchRNG(seed, e, i), g, tg)
					got := pl.Replay(e, i)
					mbEqual(t, got, want, name)
					if !slices.Equal(pl.InputNodes(e, i), want.InputNodes) {
						t.Fatalf("InputNodes(%d,%d) differs from live", e, i)
					}
				}
			}
		})
	}
}

// sampleOnly hides a sampler's in-place SampleInto: embedding the
// interface promotes only Name, Sample and NumLayers.
type sampleOnly struct{ sample.Sampler }

// TestCompileRefusesSampleOnlySampler: a sampler without the in-place
// SampleInto is an error, not a slower compile.
func TestCompileRefusesSampleOnlySampler(t *testing.T) {
	g := testGraph(t)
	targets := testTargets(500)
	smp := sampleOnly{&sample.NodeWise{Fanouts: []int{5, 3}}}
	key := KeyFor("test-ds", false, smp, 100, 7, 1, true, targets)
	_, err := Compile(g, smp, key, targets)
	if err == nil || !strings.Contains(err.Error(), "cannot refill a batch in place") {
		t.Fatalf("Compile(Sample-only sampler) = %v, want a refill error", err)
	}
}

// TestSaveLoadRoundtrip: a plan survives the disk format bit-exactly,
// and corrupt files are rejected, not mis-replayed.
func TestSaveLoadRoundtrip(t *testing.T) {
	g := testGraph(t)
	targets := testTargets(500)
	smp := &sample.NodeWise{Fanouts: []int{5, 3}}
	key := KeyFor("test-ds", true, smp, 100, 7, 2, true, targets)
	pl, err := Compile(g, smp, key, targets)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "epoch.plan")
	if err := SaveFile(path, pl); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != pl.Key() {
		t.Fatalf("key changed: %+v vs %+v", got.Key(), pl.Key())
	}
	if got.Bytes() != pl.Bytes() || got.NumBatches() != pl.NumBatches() || got.NumLayers() != pl.NumLayers() {
		t.Fatal("shape changed across the roundtrip")
	}
	for e := 0; e < pl.Epochs(); e++ {
		for i := 0; i < pl.BatchesPerEpoch(); i++ {
			mbEqual(t, got.Replay(e, i), pl.Replay(e, i), "roundtrip")
		}
	}
	// Truncation must fail loudly.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.plan")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(trunc); err == nil {
		t.Error("truncated plan loaded without error")
	}
	garbled := filepath.Join(t.TempDir(), "garbled.plan")
	data[0] ^= 0xff
	if err := os.WriteFile(garbled, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(garbled); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestCompatibleWith: every key dimension mismatch is rejected; the one
// sanctioned relaxation is replaying an epoch prefix.
func TestCompatibleWith(t *testing.T) {
	g := testGraph(t)
	targets := testTargets(400)
	smp := func() *sample.NodeWise { return &sample.NodeWise{Fanouts: []int{6, 4}} }
	key := KeyFor("test-ds", false, smp(), 128, 11, 3, true, targets)
	pl, err := Compile(g, smp(), key, targets)
	if err != nil {
		t.Fatal(err)
	}
	ok := func(err error) {
		t.Helper()
		if err != nil {
			t.Errorf("unexpected rejection: %v", err)
		}
	}
	bad := func(err error, what string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	ok(pl.CompatibleWith(smp(), 11, 3, 128, true, targets))
	ok(pl.CompatibleWith(smp(), 11, 2, 128, true, targets)) // epoch prefix
	ok(pl.CompatibleWith(nil, 11, 3, 128, true, targets))   // sampler identity optional
	bad(pl.CompatibleWith(smp(), 12, 3, 128, true, targets), "wrong seed")
	bad(pl.CompatibleWith(smp(), 11, 4, 128, true, targets), "more epochs than compiled")
	bad(pl.CompatibleWith(smp(), 11, 3, 256, true, targets), "wrong batch size")
	bad(pl.CompatibleWith(smp(), 11, 3, 128, false, targets), "wrong shuffle")
	bad(pl.CompatibleWith(&sample.NodeWise{Fanouts: []int{9}}, 11, 3, 128, true, targets), "wrong sampler")
	other := testTargets(400)
	other[0]++
	bad(pl.CompatibleWith(smp(), 11, 3, 128, true, other), "wrong targets")
	bad(pl.CompatibleWith(smp(), 11, 3, 128, true, other[:399]), "wrong target count")
}

// TestVertexCountsAndOrder: VertexCounts must agree with a manual tally
// of every replayed batch, and CountOrder must follow the exact legacy
// freq rule — count descending, ties ascending id, never-touched tail in
// degree order.
func TestVertexCountsAndOrder(t *testing.T) {
	g := testGraph(t)
	targets := testTargets(300)
	smp := func() *sample.NodeWise { return &sample.NodeWise{Fanouts: []int{4, 3}} }
	key := KeyFor("test-ds", false, smp(), 64, 5, 2, true, targets)
	pl, err := Compile(g, smp(), key, targets)
	if err != nil {
		t.Fatal(err)
	}
	manual := make([]int64, g.NumVertices())
	for e := 0; e < pl.Epochs(); e++ {
		for i := 0; i < pl.BatchesPerEpoch(); i++ {
			for _, v := range pl.InputNodes(e, i) {
				manual[v]++
			}
		}
	}
	counts := pl.VertexCounts(g.NumVertices())
	if !slices.Equal(counts, manual) {
		t.Fatal("VertexCounts disagrees with a manual tally")
	}
	order := pl.CountOrder(g)
	if len(order) != g.NumVertices() {
		t.Fatalf("order covers %d of %d vertices", len(order), g.NumVertices())
	}
	seen := make([]bool, g.NumVertices())
	touched := 0
	for _, v := range order {
		if seen[v] {
			t.Fatalf("vertex %d appears twice", v)
		}
		seen[v] = true
		if counts[v] > 0 {
			touched++
		}
	}
	for i := 1; i < touched; i++ {
		a, b := order[i-1], order[i]
		if counts[a] < counts[b] || (counts[a] == counts[b] && a > b) {
			t.Fatalf("order[%d..%d] = %d,%d violates (count desc, id asc): counts %d,%d",
				i-1, i, a, b, counts[a], counts[b])
		}
	}
	// The untouched tail is the degree order filtered to untouched ids.
	var wantTail []int32
	for _, v := range g.DegreeOrder() {
		if counts[v] == 0 {
			wantTail = append(wantTail, v)
		}
	}
	if !slices.Equal(order[touched:], wantTail) {
		t.Fatal("untouched tail is not in degree order")
	}
}

// TestBatchInputsPrefix: BatchInputs(epochs) yields exactly the first
// epochs × BatchesPerEpoch input lists — the access stream a prefix
// replay's cache sees.
func TestBatchInputsPrefix(t *testing.T) {
	g := testGraph(t)
	targets := testTargets(300)
	smp := func() *sample.NodeWise { return &sample.NodeWise{Fanouts: []int{4}} }
	key := KeyFor("test-ds", false, smp(), 64, 5, 3, true, targets)
	pl, err := Compile(g, smp(), key, targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, epochs := range []int{1, 2, 3, 0, 9} {
		want := pl.NumBatches()
		if epochs > 0 && epochs < pl.Epochs() {
			want = epochs * pl.BatchesPerEpoch()
		}
		n := 0
		for nodes := range pl.BatchInputs(epochs) {
			e, i := n/pl.BatchesPerEpoch(), n%pl.BatchesPerEpoch()
			if !slices.Equal(nodes, pl.InputNodes(e, i)) {
				t.Fatalf("epochs=%d batch %d: stream diverges from InputNodes", epochs, n)
			}
			n++
		}
		if n != want {
			t.Fatalf("epochs=%d yielded %d batches, want %d", epochs, n, want)
		}
	}
}

// TestSharedSingleFlight: plans are shared per key — one Cache compiles
// each unique key once and serves every repeat as a hit, and a failed
// compile (mismatched fingerprint or sampler) is not kept, so the next
// Get for that key compiles cleanly. The name is kept from the former
// process-wide plan.Shared, whose guarantees Cache.Get now carries.
func TestSharedSingleFlight(t *testing.T) {
	g := testGraph(t)
	targets := testTargets(200)
	smp := func() *sample.NodeWise { return &sample.NodeWise{Fanouts: []int{3}} }
	keyA := KeyFor("test-shared-a", false, smp(), 64, 21, 1, true, targets)
	keyB := KeyFor("test-shared-b", false, smp(), 64, 21, 1, true, targets)
	keyC := KeyFor("test-shared-c", false, smp(), 64, 21, 1, true, targets)
	c := Cache{}
	get := func(key Key) *Plan {
		t.Helper()
		p, err := c.Get(g, smp(), key, targets)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ResetCounters()
	if get(keyA) != get(keyA) {
		t.Error("same key returned distinct plans")
	}
	if get(keyB) == get(keyA) {
		t.Error("distinct keys returned one plan")
	}
	if n, h := Compiles(), CacheHits(); n != 2 || h != 2 {
		t.Errorf("counters (compiles=%d, hits=%d), want (2, 2)", n, h)
	}
	if len(c) != 2 {
		t.Errorf("Cache kept %d plans, want 2", len(c))
	}

	ResetCounters()
	badKey := keyC
	badKey.TargetsFP++
	if _, err := c.Get(g, smp(), badKey, targets); err == nil {
		t.Fatal("mismatched fingerprint compiled")
	}
	if _, err := c.Get(g, &sample.NodeWise{Fanouts: []int{4}}, keyC, targets); err == nil {
		t.Fatal("mismatched sampler compiled")
	}
	if n, h := Compiles(), CacheHits(); n != 0 || h != 0 {
		t.Errorf("failed compiles: (compiles=%d, hits=%d), want (0, 0)", n, h)
	}
	if len(c) != 2 {
		t.Errorf("failed compiles left %d plans kept, want 2", len(c))
	}
	first := get(keyC)
	if get(keyC) != first {
		t.Error("retried key returned distinct plans")
	}
	if n, h := Compiles(), CacheHits(); n != 1 || h != 1 {
		t.Errorf("retry after failed compiles: (compiles=%d, hits=%d), want (1, 1)", n, h)
	}
}

// TestHoldRelease: a plan is retained exactly as long as its owner's
// Cache — a nil Cache compiles on every Get and keeps nothing, a Cache
// compiles a key once and serves the same plan after, and a fresh Cache
// (the previous owner's plans released with it) compiles the key again.
// The name is kept from the former plan.Hold, whose retention scope a
// Cache's lifetime now sets.
func TestHoldRelease(t *testing.T) {
	g := testGraph(t)
	targets := testTargets(200)
	smp := func() *sample.NodeWise { return &sample.NodeWise{Fanouts: []int{3}} }
	key := KeyFor("test-hold", false, smp(), 64, 22, 1, true, targets)
	get := func(c Cache) *Plan {
		t.Helper()
		p, err := c.Get(g, smp(), key, targets)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	counters := func(what string, compiles, hits int64) {
		t.Helper()
		if n, h := Compiles(), CacheHits(); n != compiles || h != hits {
			t.Errorf("%s: (compiles=%d, hits=%d), want (%d, %d)", what, n, h, compiles, hits)
		}
	}

	ResetCounters()
	var none Cache
	if a, b := get(none), get(none); a == b {
		t.Error("nil Cache returned one plan twice")
	}
	counters("nil Cache", 2, 0)
	if len(none) != 0 {
		t.Errorf("nil Cache kept %d plans", len(none))
	}

	ResetCounters()
	c := Cache{}
	first := get(c)
	if get(c) != first || get(c) != first {
		t.Error("Cache returned distinct plans for one key")
	}
	counters("Cache", 1, 2)
	if len(c) != 1 {
		t.Errorf("Cache kept %d plans, want 1", len(c))
	}

	ResetCounters()
	if get(Cache{}) == first {
		t.Error("a fresh Cache served a plan kept by another")
	}
	counters("fresh Cache", 1, 0)
}

// TestTargetsFingerprintMatchesFNV pins TargetsFingerprint to FNV-64a
// from hash/fnv over the little-endian bytes of each id, on an empty
// list, one id and 10,000 ids, negative ones among them: every stored
// and cached plan key holds this value.
func TestTargetsFingerprintMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	many := make([]int32, 10_000)
	for i := range many {
		many[i] = int32(rng.Uint32())
	}
	for _, ids := range [][]int32{nil, {-7}, many} {
		h := fnv.New64a()
		var b [4]byte
		for _, v := range ids {
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			h.Write(b[:])
		}
		if got, want := TargetsFingerprint(ids), h.Sum64(); got != want {
			t.Errorf("%d ids: fingerprint %#x, want %#x", len(ids), got, want)
		}
	}
}

package pipeline

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/plan"
	"gnnavigator/internal/sample"
)

// digest is an order-sensitive fingerprint of everything a batch hands
// the consumer, so inline and async runs can be compared exactly.
type digest struct {
	epoch, index  int
	targets       int
	vertices      int
	edges         int
	miss, ops     int
	transfer      int64
	featsChecksum float64
	labelSum      int64
}

func runDigests(t *testing.T, cfg Config) ([]digest, []int) {
	t.Helper()
	var ds []digest
	var epochEnds []int
	err := Run(cfg, func(b *Batch) error {
		d := digest{
			epoch: b.Epoch, index: b.Index,
			targets:  len(b.Targets),
			vertices: b.MB.NumVertices,
			edges:    b.MB.NumEdges,
			miss:     b.Miss, ops: b.CacheOps,
			transfer: b.TransferBytes,
		}
		if b.Feats != nil {
			for _, v := range b.Feats.Data {
				d.featsChecksum += v
			}
		}
		for _, l := range b.Labels {
			d.labelSum += int64(l)
		}
		ds = append(ds, d)
		return nil
	}, func(epoch int) error {
		epochEnds = append(epochEnds, epoch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, epochEnds
}

// requireGolden fails unless the FNV-64a digest of the lines fmt prints
// for items equals want. Dataset features are generated with multiply-adds
// another architecture may fuse, so the digests hold on amd64 only.
func requireGolden[T any](t *testing.T, items []T, want string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	if got := streamDigest(items); got != want {
		t.Fatalf("stream digest %s, want %s", got, want)
	}
}

// streamDigest is the FNV-64a digest of the lines fmt prints for items.
func streamDigest[T any](items []T) string {
	h := fnv.New64a()
	for _, it := range items {
		fmt.Fprintf(h, "%+v\n", it)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func testConfig(t *testing.T) Config {
	t.Helper()
	d, err := dataset.Load(dataset.OgbnArxiv)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:     d.Graph,
		Sampler:   &sample.NodeWise{Fanouts: []int{6, 4}},
		Seed:      11,
		Epochs:    3,
		BatchSize: 300,
		Targets:   d.TrainIdx,
		Shuffle:   true,
		Gather:    true,
	}
}

// mustCache builds an array-backed cache over g.
func mustCache(t *testing.T, policy cache.Policy, capacity int, g *graph.Graph) *cache.Cache {
	t.Helper()
	c, err := cache.New(policy, capacity, g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// coupleSampler makes cfg gather through an LRU cache its sampler reads
// (a cache-aware bias against a dynamic cache): the one workload whose
// draws depend on what the previous batch admitted, so the producer
// must sample and update in batch order for it to match inline.
func coupleSampler(t *testing.T, cfg *Config) {
	t.Helper()
	src := cache.NewCachedSource(mustCache(t, cache.LRU, 1500, cfg.Graph), cfg.Graph)
	cfg.Source = src
	cfg.Sampler = &sample.NodeWise{
		Fanouts:      []int{6, 4},
		Bias:         sample.ResidencyBias(src),
		BiasStrength: 0.9,
	}
}

// TestAsyncBitwiseEqualInline: the engine's core promise — any prefetch
// depth reproduces the inline path exactly, per batch, including cache
// evolution and gathered features.
func TestAsyncBitwiseEqualInline(t *testing.T) {
	for _, withCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", withCache), func(t *testing.T) {
			mk := func(prefetch int) ([]digest, []int) {
				cfg := testConfig(t)
				cfg.Prefetch = prefetch
				if withCache {
					cfg.Source = cache.NewCachedSource(
						mustCache(t, cache.FIFO, 2000, cfg.Graph), cfg.Graph)
				}
				return runDigests(t, cfg)
			}
			ref, refEnds := mk(0)
			if len(ref) == 0 {
				t.Fatal("no batches consumed")
			}
			for _, depth := range []int{1, 2, 7} {
				got, gotEnds := mk(depth)
				if len(got) != len(ref) {
					t.Fatalf("prefetch %d consumed %d batches, inline %d", depth, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("prefetch %d batch %d differs: %+v vs %+v", depth, i, got[i], ref[i])
					}
				}
				if len(gotEnds) != len(refEnds) {
					t.Fatalf("epoch-end calls: %v vs %v", gotEnds, refEnds)
				}
			}
		})
	}
}

// TestBiasedLRUSamplerEqualInline: a bias reading dynamic cache
// residency must see the inline residency sequence at any depth, since
// the producer samples each batch only after updating the cache for the
// one before.
func TestBiasedLRUSamplerEqualInline(t *testing.T) {
	mk := func(prefetch int) ([]digest, []int) {
		cfg := testConfig(t)
		cfg.Prefetch = prefetch
		coupleSampler(t, &cfg)
		return runDigests(t, cfg)
	}
	ref, _ := mk(0)
	for _, depth := range []int{1, 4} {
		got, _ := mk(depth)
		requireSameDigests(t, depth, got, ref)
	}
}

// goldenPolicyStreams and goldenPrecisionStreams are the digests of the
// batch streams TestKernelEquivalenceThroughPipeline and
// TestPrecisionEquivalenceThroughPipeline hand the consumer at prefetch
// depth 0, per policy and per precision. They were recorded while a
// frozen map+list cache still existed and gathering through it produced
// these same streams.
var (
	goldenPolicyStreams = map[cache.Policy]string{
		cache.None:   "32486f8760f5c8c0",
		cache.Static: "9043a2c290b58f55",
		cache.Freq:   "8296e4f4ff96bc9f",
		cache.FIFO:   "0b3b1f33a4034682",
		cache.LRU:    "e07d50fab7d9a71b",
	}
	goldenPrecisionStreams = map[cache.Precision]string{
		cache.Float16: "e575e4a77158a455",
		cache.Int8:    "3a8bce9bc76f9920",
	}
)

// TestKernelEquivalenceThroughPipeline pins the cache through the full
// engine: for every online policy, a run gathering through the cache at
// prefetch depth 0 hands the consumer the recorded stream, and depths 1
// and 4 hand it bit-identical batches — same misses, same
// eviction-driven update ops, same transfer bytes, same feature
// matrices.
//
// The capacity (4,500 of the graph's 6,000 vertices) sits above one
// batch's input set, so eviction order decides which rows stay resident
// and FIFO and LRU diverge; Freq admits in reverse degree order, so it
// diverges from Static's degree order. Policies that differ must hand
// the consumer streams that differ: the five depth-0 digests are
// pairwise distinct.
func TestKernelEquivalenceThroughPipeline(t *testing.T) {
	d, err := dataset.Load(dataset.OgbnArxiv)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	const capacity = 4500
	freqOrder := slices.Clone(g.DegreeOrder())
	slices.Reverse(freqOrder)
	streams := map[string]cache.Policy{}
	for _, policy := range cache.Policies() {
		if policy == cache.Opt {
			// Script-driven: Opt's pipeline behaviour is covered by the
			// backend ablation and cache/opt_test.go.
			continue
		}
		t.Run(string(policy), func(t *testing.T) {
			mk := func(prefetch int) []digest {
				cc := cache.Config{Policy: policy, Capacity: capacity}
				if policy == cache.Freq {
					cc.Order = freqOrder
				}
				c, err := cache.Build(cc, g)
				if err != nil {
					t.Fatal(err)
				}
				cfg := testConfig(t)
				cfg.Epochs = 2
				cfg.Prefetch = prefetch
				cfg.Source = cache.NewCachedSource(c, g)
				ds, _ := runDigests(t, cfg)
				return ds
			}
			want := mk(0)
			if other, dup := streams[streamDigest(want)]; dup {
				t.Errorf("%s hands the consumer the same stream as %s", policy, other)
			}
			streams[streamDigest(want)] = policy
			requireGolden(t, want, goldenPolicyStreams[policy])
			for _, depth := range []int{1, 4} {
				requireSameDigests(t, depth, mk(depth), want)
			}
		})
	}
}

// TestPrecisionEquivalenceThroughPipeline extends the kernel pin to the
// compact feature plane: at float16 and int8, a pipeline run gathering
// through a quantized LRU cache at prefetch depth 0 hands the consumer
// the recorded stream — feature matrices through the fused
// quantize→dequantize round trip, misses, precision-scaled transfer
// bytes — and depths 1 and 4 hand it bit-identical batches. The float32
// leg of this contract is TestKernelEquivalenceThroughPipeline.
func TestPrecisionEquivalenceThroughPipeline(t *testing.T) {
	d, err := dataset.Load(dataset.OgbnArxiv)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	const capacity = 1200
	for _, prec := range []cache.Precision{cache.Float16, cache.Int8} {
		t.Run(string(prec), func(t *testing.T) {
			mk := func(prefetch int) []digest {
				c, err := cache.NewAtPrecision(cache.LRU, capacity, g, prec)
				if err != nil {
					t.Fatal(err)
				}
				cfg := testConfig(t)
				cfg.Epochs = 2
				cfg.Prefetch = prefetch
				cfg.Source = cache.NewCachedSource(c, g)
				ds, _ := runDigests(t, cfg)
				return ds
			}
			want := mk(0)
			requireGolden(t, want, goldenPrecisionStreams[prec])
			for _, depth := range []int{1, 4} {
				requireSameDigests(t, depth, mk(depth), want)
			}
		})
	}
}

// requireSameDigests fails unless the stream a run at the given
// prefetch depth consumed equals the depth-0 stream want.
func requireSameDigests(t *testing.T, depth int, got, want []digest) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("prefetch %d consumed %d batches, depth 0 %d", depth, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefetch %d batch %d differs:\ngot:     %+v\ndepth 0: %+v", depth, i, got[i], want[i])
		}
	}
}

// TestPlanReplayBitwiseEqualLive pins the epoch-plan replay producer to
// live sampling: a compiled plan driven through the pipeline must hand
// the consumer bit-identical batches — same minibatch structure, same
// gathered features, same epoch boundaries — at prefetch depths 0, 1
// and 4. Run under -race (CI does) this also exercises the producer's
// replay and gather against the consumer.
func TestPlanReplayBitwiseEqualLive(t *testing.T) {
	base := testConfig(t)
	key := plan.KeyFor(dataset.OgbnArxiv, false, base.Sampler,
		base.BatchSize, base.Seed, base.Epochs, base.Shuffle, base.Targets)
	pl, err := plan.Compile(base.Graph, base.Sampler, key, base.Targets)
	if err != nil {
		t.Fatal(err)
	}
	ref, refEnds := runDigests(t, base)
	if len(ref) == 0 {
		t.Fatal("no batches consumed")
	}
	for _, depth := range []int{0, 1, 4} {
		cfg := testConfig(t)
		cfg.Plan = pl
		cfg.Prefetch = depth
		got, gotEnds := runDigests(t, cfg)
		if len(got) != len(ref) {
			t.Fatalf("replay prefetch %d consumed %d batches, live %d", depth, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("replay prefetch %d batch %d differs:\nreplay: %+v\nlive:   %+v",
					depth, i, got[i], ref[i])
			}
		}
		if len(gotEnds) != len(refEnds) {
			t.Fatalf("replay epoch-end calls: %v vs %v", gotEnds, refEnds)
		}
	}
}

// TestPlanValidation: incompatible plans are rejected up front, not
// silently mis-replayed.
func TestPlanValidation(t *testing.T) {
	base := testConfig(t)
	key := plan.KeyFor(dataset.OgbnArxiv, false, base.Sampler,
		base.BatchSize, base.Seed, base.Epochs, base.Shuffle, base.Targets)
	pl, err := plan.Compile(base.Graph, base.Sampler, key, base.Targets)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.Plan = pl
	cfg.Seed = base.Seed + 1
	if err := Run(cfg, func(*Batch) error { return nil }, nil); err == nil {
		t.Error("plan with mismatched seed accepted")
	}
	// A longer plan may replay a shorter run (epoch-prefix rule)...
	cfg = testConfig(t)
	cfg.Plan = pl
	cfg.Epochs = base.Epochs - 1
	if err := Run(cfg, func(*Batch) error { return nil }, nil); err != nil {
		t.Errorf("epoch-prefix replay rejected: %v", err)
	}
	// ...but never the reverse.
	cfg = testConfig(t)
	cfg.Plan = pl
	cfg.Epochs = base.Epochs + 1
	if err := Run(cfg, func(*Batch) error { return nil }, nil); err == nil {
		t.Error("plan shorter than the run accepted")
	}
}

// TestOrderingAndEpochEnds: batches arrive in strict (epoch, index)
// order with epochEnd interleaved exactly once per epoch, at every depth,
// with a plain sampler and with one coupled to the cache it gathers
// through — the delivery step all of them share.
func TestOrderingAndEpochEnds(t *testing.T) {
	for _, prefetch := range []int{0, 1, 4} {
		for _, coupled := range []bool{false, true} {
			t.Run(fmt.Sprintf("prefetch=%d/coupled=%v", prefetch, coupled), func(t *testing.T) {
				cfg := testConfig(t)
				cfg.Prefetch = prefetch
				if coupled {
					coupleSampler(t, &cfg)
				}
				var ds []digest
				var ends []int
				err := Run(cfg, func(b *Batch) error {
					ds = append(ds, digest{epoch: b.Epoch, index: b.Index})
					return nil
				}, func(epoch int) error {
					// Every batch of the epoch precedes its end, and
					// none of the next.
					if n := len(ds); n == 0 || ds[n-1].epoch != epoch {
						t.Errorf("epochEnd(%d) after %d batches, the last not of epoch %d", epoch, n, epoch)
					}
					ends = append(ends, epoch)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				wantEpoch, wantIndex := 0, 0
				for _, d := range ds {
					if d.index == 0 && d.epoch == wantEpoch+1 {
						wantEpoch, wantIndex = d.epoch, 0
					}
					if d.epoch != wantEpoch || d.index != wantIndex {
						t.Fatalf("out of order: got (%d,%d), want (%d,%d)", d.epoch, d.index, wantEpoch, wantIndex)
					}
					wantIndex++
				}
				if len(ends) != cfg.Epochs {
					t.Fatalf("epochEnd called %d times, want %d", len(ends), cfg.Epochs)
				}
				for i, e := range ends {
					if e != i {
						t.Fatalf("epochEnd order %v", ends)
					}
				}
			})
		}
	}
}

// TestConsumeErrorStopsPipeline: a consumer error propagates out of Run
// and shuts the producer down without deadlocking (the test would hang
// otherwise, and -race would flag a leaked producer touching the cache).
func TestConsumeErrorStopsPipeline(t *testing.T) {
	cfg := testConfig(t)
	cfg.Prefetch = 3
	boom := fmt.Errorf("boom")
	n := 0
	err := Run(cfg, func(b *Batch) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	}, nil)
	if err != boom {
		t.Fatalf("Run returned %v, want consumer error", err)
	}
	if n != 3 {
		t.Fatalf("consumed %d batches after error, want 3", n)
	}
}

// TestBufferRingBounded: the gather ring must recycle — an async run may
// touch at most prefetch+2 distinct feature buffers.
func TestBufferRingBounded(t *testing.T) {
	cfg := testConfig(t)
	cfg.Prefetch = 2
	seen := map[*float64]bool{}
	err := Run(cfg, func(b *Batch) error {
		if b.Feats != nil && len(b.Feats.Data) > 0 {
			seen[&b.Feats.Data[0]] = true
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// GatherRowsInto may reallocate while batch sizes still grow, so
	// allow a small settling allowance beyond the steady-state ring.
	if len(seen) > (cfg.Prefetch+2)*3 {
		t.Errorf("saw %d distinct feature buffers, ring should bound reuse near %d", len(seen), cfg.Prefetch+2)
	}
}

// TestValidation rejects unusable configs.
func TestValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Targets = nil
	if err := Run(cfg, func(*Batch) error { return nil }, nil); err == nil {
		t.Error("empty targets accepted")
	}
	cfg = testConfig(t)
	cfg.Epochs = 0
	if err := Run(cfg, func(*Batch) error { return nil }, nil); err == nil {
		t.Error("zero epochs accepted")
	}
	cfg = testConfig(t)
	cfg.Sampler = nil
	if err := Run(cfg, func(*Batch) error { return nil }, nil); err == nil {
		t.Error("nil sampler accepted")
	}
}

// TestDefaultPrefetchClamps pins the per-run depth at both ends: a
// negative Prefetch runs inline (every batch gathers into the caller's
// Scratch), and a huge one is capped at maxPrefetch, so the gather ring
// never holds more than maxPrefetch+2 buffer sets. It counts buffer sets,
// not goroutines: the tensor pool and the dataset loader start their own.
func TestDefaultPrefetchClamps(t *testing.T) {
	cfg := testConfig(t)
	cfg.Prefetch = -5
	cfg.Scratch = &Scratch{}
	err := Run(cfg, func(b *Batch) error {
		if b.buf != &cfg.Scratch.buf {
			t.Fatalf("batch (%d,%d) gathered outside Scratch at prefetch -5", b.Epoch, b.Index)
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg = testConfig(t)
	cfg.Epochs = 40
	cfg.Prefetch = 1 << 20
	sets := map[*bufferSet]bool{}
	n := 0
	err = Run(cfg, func(b *Batch) error {
		sets[b.buf] = true
		n++
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n <= maxPrefetch+2 {
		t.Fatalf("only %d batches: too few to tell a capped ring from an uncapped one", n)
	}
	if len(sets) > maxPrefetch+2 {
		t.Errorf("prefetch 1<<20 drew %d distinct buffer sets over %d batches, want at most %d",
			len(sets), n, maxPrefetch+2)
	}
}

// TestBatchSeedDecorrelated: neighboring coordinates must not produce
// neighboring streams (a weak mix here would correlate batch draws).
func TestBatchSeedDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for epoch := 0; epoch < 8; epoch++ {
		for b := -1; b < 32; b++ {
			s := sample.BatchSeed(42, epoch, b)
			if seen[s] {
				t.Fatalf("seed collision at (42,%d,%d)", epoch, b)
			}
			seen[s] = true
		}
	}
	// First draws across batch indices should look uniform, not striped.
	var mean float64
	const n = 1000
	for i := 0; i < n; i++ {
		mean += sample.BatchRNG(1, 0, i).Float64()
	}
	mean /= n
	if math.Abs(mean-0.5) > 0.05 {
		t.Errorf("first-draw mean %v, want ~0.5", mean)
	}
}

package backend

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/graph"
)

// goldenSageDigest is the FNV-64a digest of the final parameters and the
// accuracy history of TestGoldenSageRun's run, recorded from the naive
// i-k-j matmul loops this repo trained on up to commit 4a9b5a4. A kernel
// or backward-pass edit that keeps the arithmetic (one accumulator per
// output element, k ascending, no fused multiply-add) keeps it; anything
// else moves it, and then every pinned bench digest moves too.
const goldenSageDigest = "db47c076516f0579"

// TestGoldenSageRun trains a small two-layer GraphSAGE at seed 1 with
// dropout on, so exact zeros reach the matmuls and the masks ride the
// serial rng.
func TestGoldenSageRun(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cfg := fastCfg()
	cfg.Seed, cfg.Dropout = 1, 0.2
	ckpt := filepath.Join(t.TempDir(), "final.ckpt")
	perf, err := RunWith(cfg, Options{EvalBatch: 256, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range ck.Params {
		for _, v := range p {
			put(v)
		}
	}
	for _, a := range perf.AccuracyHistory {
		put(a)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenSageDigest {
		t.Fatalf("digest %s, want %s (accuracy history %v)", got, goldenSageDigest, perf.AccuracyHistory)
	}
}

// goldenTimingDigest is the FNV-64a digest of TestGoldenTimingOnlyPerf's
// twelve Perf values (WallSec zeroed), recorded while every cached
// timing-only run still copied and quantised each admitted row into
// slot storage. Residency, hit/miss/evict counts and transferred bytes
// do not depend on the rows, so a cache that keeps none must keep it.
const goldenTimingDigest = "5bd88abd90b2df0d"

// goldenTimingDigestK2 is the same digest over multiCfg at two devices
// (policies none through freq), re-recorded when K > 1 runs stopped
// splitting the cache into per-device shards: only the fifo and lru rows
// moved, to the single-device hit rate and transfer bytes, while every
// other row, and the halo and all-reduce bytes of all rows, held.
const goldenTimingDigestK2 = "c59be79b0003c7a4"

// TestGoldenTimingOnlyPerf runs every cache policy at float32 and int8
// timing-only (SkipTraining, no gather) and pins the whole Perf, on one
// device and on two.
func TestGoldenTimingOnlyPerf(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if got := timingOnlyDigest(t, fastCfg(), []cache.Policy{cache.None, cache.Static, cache.FIFO, cache.LRU, cache.Freq, cache.Opt}); got != goldenTimingDigest {
		t.Errorf("K=1 digest %s, want %s", got, goldenTimingDigest)
	}
	k2 := multiCfg()
	k2.Devices = 2
	if got := timingOnlyDigest(t, k2, []cache.Policy{cache.None, cache.Static, cache.FIFO, cache.LRU, cache.Freq}); got != goldenTimingDigestK2 {
		t.Errorf("K=2 digest %s, want %s", got, goldenTimingDigestK2)
	}
}

// timingOnlyDigest hashes the Perf (WallSec zeroed) of one timing-only
// run per precision {float32, int8} × policy, at cache ratio 0.2 (0 for
// none).
func timingOnlyDigest(t *testing.T, base Config, policies []cache.Policy) string {
	t.Helper()
	h := fnv.New64a()
	for _, prec := range []cache.Precision{cache.Float32, cache.Int8} {
		for _, policy := range policies {
			cfg := base
			cfg.Precision, cfg.CachePolicy, cfg.CacheRatio = prec, policy, 0
			if policy != cache.None {
				cfg.CacheRatio = 0.2
			}
			perf, err := RunWith(cfg, Options{SkipTraining: true})
			if err != nil {
				t.Fatalf("%s: %v", cfg.Label(), err)
			}
			perf.WallSec = 0
			fmt.Fprintf(h, "%#v\n", *perf)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenCachedDigest is the FNV-64a digest of TestGoldenCachedRun's 12
// single-device trained runs (Perf with WallSec zeroed, then the final
// parameters), recorded at commit 481e388.
const goldenCachedDigest = "1485f4b142d7e3f1"

// goldenCachedDigestK2 is the same digest over the 12 runs at two
// hash-partitioned devices. Recorded as 8ea4ab95c2dc87e9 at commit
// 481e388, while each device kept a cache shard of its own; re-recorded
// when K > 1 runs went to the one single-device cache: only the fifo
// and lru rows moved, to the single-device hit rate and transfer bytes,
// while the static and freq rows, and the halo and all-reduce bytes and
// parameters of all rows, held.
const goldenCachedDigestK2 = "71c04a73e4ea1e90"

// TestGoldenCachedRun trains every non-trivial online and prefilled
// cache policy at every precision, on one device and on two
// (hash-partitioned), and pins the whole outcome, one digest per device
// count. TestGoldenSageRun runs uncached; this is the pin on trained
// runs that route rows through a cache.
func TestGoldenCachedRun(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range []struct {
		k    int
		want string
	}{{1, goldenCachedDigest}, {2, goldenCachedDigestK2}} {
		h := fnv.New64a()
		for _, prec := range cache.Precisions() {
			for _, policy := range []cache.Policy{cache.Static, cache.LRU, cache.FIFO, cache.Freq} {
				cfg := fastCfg()
				cfg.Platform, cfg.Dropout, cfg.CacheRatio = "a100x4", 0.2, 0.2
				cfg.CachePolicy, cfg.Precision = policy, prec
				if tc.k > 1 {
					cfg.Devices, cfg.Partition = tc.k, graph.PartitionHash
				}
				ckpt := filepath.Join(t.TempDir(), "final.ckpt")
				perf, err := RunWith(cfg, Options{EvalBatch: 256, CheckpointPath: ckpt})
				if err != nil {
					t.Fatalf("%s: %v", cfg.Label(), err)
				}
				ck, err := LoadCheckpoint(ckpt)
				if err != nil {
					t.Fatal(err)
				}
				perf.WallSec = 0
				fmt.Fprintf(h, "%#v\n%v\n", *perf, ck.Params)
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
			t.Errorf("K=%d digest %s, want %s", tc.k, got, tc.want)
		}
	}
}

package backend

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/model"
	"gnnavigator/internal/sample"
)

// multiCfg is fastCfg on a 4-device platform with a prefilled cache and
// dropout on — the state a sloppy scale-out would get wrong: residency
// (must be the single-device cache's) and the RNG chains (must stay on
// the single logical training stream).
func multiCfg() Config {
	cfg := fastCfg()
	cfg.Platform = "a100x4"
	cfg.BatchSize = 256
	cfg.CacheRatio = 0.1
	cfg.CachePolicy = cache.Static
	cfg.Dropout = 0.2
	return cfg
}

// multiPerfEqual compares the K-device Perf against the single-device
// reference on every field the determinism contract pins across device
// counts: training outcomes, feature-plane counters and batch shapes.
// Simulated time/memory legitimately differ (the simulator divides
// per-device terms by K), as do the new comm-byte fields (zero at K=1).
func multiPerfEqual(t *testing.T, label string, got, want *Perf) {
	t.Helper()
	if got.Accuracy != want.Accuracy {
		t.Errorf("%s: accuracy %v != %v", label, got.Accuracy, want.Accuracy)
	}
	if !reflect.DeepEqual(got.AccuracyHistory, want.AccuracyHistory) {
		t.Errorf("%s: accuracy history %v != %v", label, got.AccuracyHistory, want.AccuracyHistory)
	}
	if got.HitRate != want.HitRate {
		t.Errorf("%s: hit rate %v != %v", label, got.HitRate, want.HitRate)
	}
	if got.TransferredBytes != want.TransferredBytes {
		t.Errorf("%s: transferred bytes %d != %d", label, got.TransferredBytes, want.TransferredBytes)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations %d != %d", label, got.Iterations, want.Iterations)
	}
	if got.MeanBatchSize != want.MeanBatchSize || got.PeakBatchSize != want.PeakBatchSize ||
		got.MeanBatchEdges != want.MeanBatchEdges || got.PeakBatchEdges != want.PeakBatchEdges {
		t.Errorf("%s: batch shape stats diverge: %v/%d/%v/%d vs %v/%d/%v/%d", label,
			got.MeanBatchSize, got.PeakBatchSize, got.MeanBatchEdges, got.PeakBatchEdges,
			want.MeanBatchSize, want.PeakBatchSize, want.MeanBatchEdges, want.PeakBatchEdges)
	}
}

// TestMultiDeviceBitwiseIdentical is the scale-out acceptance contract:
// K-device runs produce final weights, accuracy history and
// feature-plane counters bitwise-identical to the single-device run, at
// K ∈ {2, 4} crossed with prefetch depths {-1, 1, 4}, and crossed with
// every cache policy and both partitioners. Run under -race this also
// shakes out data races between the stages and the halo count.
func TestMultiDeviceBitwiseIdentical(t *testing.T) {
	base := multiCfg()
	ref, err := RunWith(base, Options{EvalBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	if ref.HaloBytes != 0 || ref.AllReduceBytes != 0 {
		t.Fatalf("single-device run metered comm traffic: halo=%d allreduce=%d",
			ref.HaloBytes, ref.AllReduceBytes)
	}
	refParams := paramSnapshot(t, base, 0, "")

	for _, k := range []int{2, 4} {
		cfg := base
		cfg.Devices = k
		for _, prefetch := range []int{-1, 1, 4} {
			t.Run(fmt.Sprintf("k=%d/prefetch=%d", k, prefetch), func(t *testing.T) {
				p, err := RunWith(cfg, Options{EvalBatch: 256, Prefetch: prefetch})
				if err != nil {
					t.Fatal(err)
				}
				multiPerfEqual(t, fmt.Sprintf("k=%d", k), p, ref)
				if p.HaloBytes <= 0 {
					t.Errorf("k=%d metered no halo traffic", k)
				}
				if p.AllReduceBytes <= 0 {
					t.Errorf("k=%d metered no all-reduce traffic", k)
				}
			})
		}
		t.Run(fmt.Sprintf("k=%d/params", k), func(t *testing.T) {
			if got := paramSnapshot(t, cfg, 4, ""); !reflect.DeepEqual(got, refParams) {
				t.Fatalf("k=%d final weights differ from single-device run", k)
			}
		})
	}

	for _, policy := range []cache.Policy{cache.None, cache.Static, cache.Freq, cache.FIFO, cache.LRU, cache.Opt} {
		one := base
		one.CachePolicy, one.Epochs = policy, 1
		if policy == cache.None {
			one.CacheRatio = 0
		}
		ref, err := RunWith(one, Options{EvalBatch: 256})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 4} {
			for _, part := range graph.PartitionStrategies() {
				t.Run(fmt.Sprintf("k=%d/%s/%s", k, policy, part), func(t *testing.T) {
					cfg := one
					cfg.Devices, cfg.Partition = k, part
					p, err := RunWith(cfg, Options{EvalBatch: 256})
					if err != nil {
						t.Fatal(err)
					}
					multiPerfEqual(t, cfg.Label(), p, ref)
				})
			}
		}
	}
}

// TestMultiDeviceValidate covers the scale-out config rules.
func TestMultiDeviceValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative devices", func(c *Config) { c.Devices = -1 }},
		{"non-power-of-two devices", func(c *Config) { c.Devices = 3 }},
		{"more devices than platform", func(c *Config) { c.Devices = 8 }},
		{"devices on single-device platform", func(c *Config) { c.Platform = "rtx4090"; c.Devices = 2 }},
		{"bad partition strategy", func(c *Config) { c.Devices = 2; c.Partition = "metis" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := multiCfg()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
	good := multiCfg()
	good.Devices = 4
	good.Partition = graph.PartitionHash
	good.CachePolicy = cache.Opt
	if err := good.Validate(); err != nil {
		t.Fatalf("valid multi-device config rejected: %v", err)
	}
	if l := good.Label(); l == multiCfg().Label() {
		t.Fatal("multi-device label does not mention the device count")
	}
}

// TestChaosDistHalo: an error armed at the halo-exchange point must
// surface as a clean, recognizable run error — never a hang, a crash or
// a detour through a panic. (The point fires in the consumer, whose
// panic containment the chaos matrix exercises for the Panic kind.)
func TestChaosDistHalo(t *testing.T) {
	defer faultinject.Reset()
	cfg := multiCfg()
	cfg.Devices = 2
	cfg.Epochs = 1
	faultinject.Arm(faultinject.DistHalo, faultinject.Spec{Kind: faultinject.Error, Count: 1})
	_, err := RunWith(cfg, Options{EvalBatch: 128})
	if faultinject.Hits(faultinject.DistHalo) == 0 {
		t.Fatal("run never passed through dist/halo")
	}
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected halo fault surfaced as %v, want ErrInjected", err)
	}
	if strings.Contains(err.Error(), "panic") {
		t.Fatalf("injected halo error went through a panic: %v", err)
	}
}

// TestHaloHandComputed checks the halo count on a hand-built block:
// destinations of both parts with remote neighbors, two of them in one
// part sharing the same remote neighbor.
func TestHaloHandComputed(t *testing.T) {
	g, err := graph.FromAdjList([][]int32{{1}, {0, 2}, {1, 3}, {2}}) // path 0-1-2-3
	if err != nil {
		t.Fatal(err)
	}
	part, err := graph.PartitionGraph(g, 2, graph.PartitionGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{1, 0, 0, 1}; !reflect.DeepEqual(part.Owner, want) {
		t.Fatalf("greedy owners %v, want %v", part.Owner, want)
	}
	// Block: dsts 1 and 2 (owner 0) aggregate {0, 3} and {3}; dst 3
	// (owner 1) aggregates {2}. Remote rows: vertices 0 and 3 for part 0
	// (3 fetched once), vertex 2 for part 1 -> 3 halo rows.
	mb := &sample.MiniBatch{Blocks: []sample.Block{{
		SrcNodes: []int32{1, 2, 3, 0},
		DstCount: 3,
		Offsets:  []int32{0, 2, 3, 4},
		Indices:  []int32{3, 2, 2, 1},
	}}}
	h := newHaloMeter(part, 1)
	if got := h.rows(mb); got != 3 {
		t.Fatalf("halo rows %d, want 3", got)
	}
	// Second batch with the same topology: the dedup stamps must reset.
	if got := h.rows(mb); got != 3 {
		t.Fatalf("second batch halo rows %d, want 3", got)
	}
}

// TestReducerRejectsNonPowerOfTwo: the priced all-reduce stands in for a
// tree reduction only at power-of-two K >= 2.
func TestReducerRejectsNonPowerOfTwo(t *testing.T) {
	for _, k := range []int{-2, 0, 1, 3, 6} {
		if err := checkReduction(k); err == nil {
			t.Errorf("K=%d accepted", k)
		}
	}
	for _, k := range []int{2, 4, 8} {
		if err := checkReduction(k); err != nil {
			t.Errorf("K=%d rejected: %v", k, err)
		}
	}
}

// TestAllReduceBytesMatchesBuiltModel: a timing-only K-device run builds
// no model, yet meters per step the ring all-reduce wire bytes of the
// model a trained run builds, 2(K-1)/K of its parameter scalars at 4
// bytes each.
func TestAllReduceBytesMatchesBuiltModel(t *testing.T) {
	for _, k := range []int{2, 4} {
		cfg := multiCfg()
		cfg.Devices, cfg.Epochs = k, 1
		perf, err := RunWith(cfg, Options{SkipTraining: true})
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.New(NewPricing(cfg, dataset.MustLoad(cfg.Dataset)).Model)
		if err != nil {
			t.Fatal(err)
		}
		scalars := 0
		for _, p := range m.Params() {
			scalars += len(p.Grad.Data)
		}
		step := int64(math.Ceil(2 * float64(k-1) / float64(k) * float64(scalars) * 4))
		if want := int64(perf.Iterations) * step; perf.AllReduceBytes != want || want == 0 {
			t.Errorf("K=%d: AllReduceBytes %d, want %d iterations × %d", k, perf.AllReduceBytes, perf.Iterations, step)
		}
	}
}

package backend

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/model"
)

// multiCfg is fastCfg on a 4-device platform with a prefilled cache and
// dropout on — the state a sloppy scale-out would get wrong: sharded
// residency (must union to the global cache) and the RNG chains (must
// stay on the single logical training stream).
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
// K ∈ {2, 4} crossed with prefetch depths {-1, 1, 4}. Run under -race
// this also shakes out data races in the per-partition fan-out.
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
}

// TestMultiDeviceDynamicPolicy covers the dynamic-policy split: LRU
// shards divide the capacity proportionally, so per-shard miss counters
// may lawfully diverge from the global cache's — but the gathered
// features, and therefore weights and accuracy, must not.
func TestMultiDeviceDynamicPolicy(t *testing.T) {
	base := multiCfg()
	base.CachePolicy = cache.LRU
	base.CacheRatio = 0.05
	ref, err := RunWith(base, Options{EvalBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Devices = 2
	cfg.Partition = graph.PartitionHash
	p, err := RunWith(cfg, Options{EvalBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	if p.Accuracy != ref.Accuracy || !reflect.DeepEqual(p.AccuracyHistory, ref.AccuracyHistory) {
		t.Fatalf("k=2 LRU accuracy diverged: %v/%v vs %v/%v",
			p.Accuracy, p.AccuracyHistory, ref.Accuracy, ref.AccuracyHistory)
	}
	if !reflect.DeepEqual(paramSnapshot(t, cfg, 0, ""), paramSnapshot(t, base, 0, "")) {
		t.Fatal("k=2 LRU final weights differ from single-device run")
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
		{"opt policy multi-device", func(c *Config) {
			c.Devices = 2
			c.CacheRatio = 0.1
			c.CachePolicy = cache.Opt
		}},
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
	if err := good.Validate(); err != nil {
		t.Fatalf("valid multi-device config rejected: %v", err)
	}
	if l := good.Label(); l == multiCfg().Label() {
		t.Fatal("multi-device label does not mention the device count")
	}
}

// TestChaosDistHalo: an error armed at the halo-exchange point must
// surface as a clean, recognizable run error — never a hang or a crash.
// (The point fires inside the gather stage, whose panic containment the
// chaos matrix exercises for the Panic kind.)
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

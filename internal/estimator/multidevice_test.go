package estimator

import (
	"testing"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/model"
)

// TestProbeConfigsDrawDevices: on a multi-device platform the probe pool
// must include scaled-out configurations (the volume models take K and
// the partitioner as features, so the probes must vary them); on a
// single-device platform it must draw none.
func TestProbeConfigsDrawDevices(t *testing.T) {
	multi := 0
	for _, c := range ProbeConfigs(dataset.OgbnArxiv, model.SAGE, "a100x4", 40, 5) {
		if err := c.Validate(); err != nil {
			t.Fatalf("invalid probe %s: %v", c.Label(), err)
		}
		if c.DeviceCount() > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-device probes drawn on a 4-device platform")
	}
	for _, c := range ProbeConfigs(dataset.OgbnArxiv, model.SAGE, "rtx4090", 40, 5) {
		if c.DeviceCount() > 1 {
			t.Fatalf("multi-device probe %s drawn on a single-device platform", c.Label())
		}
	}
}

// TestPredictionRespondsToDevices: scaling the same config from one to
// four devices must change the predicted time through the white-box half
// (K-divided compute/transfer vs added halo + all-reduce terms) without
// retraining — and keep the comm overhead visible: K=4 must not predict
// a full 4x speedup.
func TestPredictionRespondsToDevices(t *testing.T) {
	recs, err := CollectCached(dataset.OgbnArxiv, model.SAGE, "rtx4090", 24, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Train(recs)
	if err != nil {
		t.Fatal(err)
	}
	// A transfer/compute-bound point (no cache, big fanouts): scale-out
	// has to help here. Host-sampling-bound points (e.g. SAINT with a
	// huge cache) legitimately see ~no speedup — sampling is not divided.
	cfg := backend.Config{
		Dataset: dataset.OgbnArxiv, Platform: "a100x4",
		Sampler: backend.SamplerSAGE, BatchSize: 1024, Fanouts: []int{25, 10},
		CachePolicy: cache.None, Model: model.SAGE, Hidden: 64, Layers: 2,
		Epochs: 2, LR: 0.01, Seed: 3,
	}
	one, err := e.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Devices = 4
	four, err := e.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if four.TimeSec >= one.TimeSec {
		t.Errorf("K=4 predicted %.4fs, not faster than K=1 %.4fs", four.TimeSec, one.TimeSec)
	}
	if four.TimeSec <= one.TimeSec/4 {
		t.Errorf("K=4 predicted %.4fs <= ideal %.4fs: comm overhead missing", four.TimeSec, one.TimeSec/4)
	}
}

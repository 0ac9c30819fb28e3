package estimator

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/model"
)

// probeCfgs draws a pair of cheap probe configs for the retry tests.
func probeCfgs() []backend.Config {
	return ProbeConfigs(dataset.OgbnArxiv, model.SAGE, "rtx4090", 2, 99)
}

// TestChaosProbeRetryRecovers: transient injected failures at the
// estimator/probe point are absorbed by the backoff loop, and the
// recovered sweep's records are identical to an unfaulted run.
func TestChaosProbeRetryRecovers(t *testing.T) {
	defer faultinject.Reset()
	cfgs := probeCfgs()
	ref, err := CollectWith(cfgs, false, 1)
	if err != nil {
		t.Fatalf("reference collect: %v", err)
	}
	// The first probe fails its first two attempts and succeeds on the
	// third; Count 2 then leaves the schedule exhausted for the second
	// probe — two consecutive failures is exactly what 3 attempts absorb.
	faultinject.Arm(faultinject.EstimatorProbe, faultinject.Spec{Kind: faultinject.Error, Count: 2})
	got, err := CollectWith(cfgs, false, 1)
	faultinject.Reset()
	if err != nil {
		t.Fatalf("collect with transient probe faults: %v", err)
	}
	for i := range ref {
		a, b := *ref[i].Perf, *got[i].Perf
		a.WallSec, b.WallSec = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("record %d differs after retry-recovered collection", i)
		}
	}
}

// TestChaosProbeRetryExhausted: a persistent fault (fires on every hit)
// defeats the bounded retry and surfaces as a clean ErrInjected — the
// sweep fails, it does not hang or loop forever.
func TestChaosProbeRetryExhausted(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.EstimatorProbe, faultinject.Spec{Kind: faultinject.Error})
	before := faultinject.Hits(faultinject.EstimatorProbe)
	_, err := CollectWith(probeCfgs(), false, 1)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("exhausted retries returned %v, want ErrInjected", err)
	}
	// The failing probe was tried exactly probeAttempts times, then gave up
	// (the fan-out short-circuits, so only one probe's attempts count).
	if n := faultinject.Hits(faultinject.EstimatorProbe) - before; n != 3 {
		t.Errorf("probe site hit %d times, want exactly 3 attempts", n)
	}
}

// TestChaosProbeNoRetryOnCancel: context errors are terminal — a
// cancelled calibration sweep stops immediately instead of retrying
// toward an already-dead deadline.
func TestChaosProbeNoRetryOnCancel(t *testing.T) {
	defer faultinject.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := faultinject.Hits(faultinject.EstimatorProbe)
	_, err := CollectWith(probeCfgs(), false, 1, backend.Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled collect returned %v, want context.Canceled", err)
	}
	if n := faultinject.Hits(faultinject.EstimatorProbe) - before; n != 0 {
		t.Errorf("cancelled sweep still ran %d probe attempts", n)
	}
}

// TestChaosProbeFailureFailsSweep: a probe that fails mid-sweep fails
// the sweep with its error, at every worker count.
func TestChaosProbeFailureFailsSweep(t *testing.T) {
	defer faultinject.Reset()
	cfgs := sharedProbeSet(t)
	for _, workers := range []int{1, 2, 4} {
		faultinject.Arm(faultinject.EstimatorProbe, faultinject.Spec{Kind: faultinject.Error, After: 2})
		_, err := CollectWith(cfgs, false, workers)
		faultinject.Reset()
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("workers=%d: collect returned %v, want ErrInjected", workers, err)
		}
	}
}

package core

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gnnavigator/internal/dataset"
	"gnnavigator/internal/dse"
	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/model"
	"gnnavigator/internal/tensor"
)

var (
	navOnce sync.Once
	navErr  error
	nav     *Navigator
)

// sharedNavigator builds one calibrated Navigator for the whole test
// binary (calibration is the expensive step).
func sharedNavigator(t *testing.T) *Navigator {
	t.Helper()
	navOnce.Do(func() {
		nav, navErr = New(Input{
			Dataset:       dataset.Reddit2,
			Model:         model.SAGE,
			Platform:      "rtx4090",
			CalibDatasets: []string{dataset.OgbnArxiv},
			CalibSamples:  16,
			Epochs:        2,
			Space: dse.Space{
				BatchSizes:  []int{512, 1024},
				FanoutSets:  [][]int{{5, 5}, {10, 5}, {15, 8}},
				CacheRatios: []float64{0, 0.15, 0.45},
				BiasRates:   []float64{0, 0.9},
				Hiddens:     []int{32},
			},
			Seed: 21,
		})
	})
	if navErr != nil {
		t.Fatalf("New: %v", navErr)
	}
	return nav
}

func TestNewValidatesInput(t *testing.T) {
	if _, err := New(Input{Dataset: "bogus", Model: model.SAGE, Platform: "rtx4090"}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := New(Input{
		Dataset: dataset.Reddit2, Model: model.SAGE, Platform: "rtx4090",
		CalibDatasets: []string{dataset.Reddit2},
	}); err == nil {
		t.Error("leave-one-out violation accepted")
	}
}

// TestNewRefusesBeforeProbing: a platform or calibration dataset that
// does not resolve, and a base config the backend would refuse (three
// devices is not a power of two), fail New before its first calibration
// probe. The probe point is armed, so a probe that ran would surface as
// ErrInjected; the watchdog turns a calibration that never returns into
// a failure.
func TestNewRefusesBeforeProbing(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.EstimatorProbe, faultinject.Spec{Kind: faultinject.Error})
	for _, tc := range []struct {
		name string
		in   Input
		want string
	}{
		{"platform", Input{Platform: "bogus"}, `"bogus"`},
		{"calibration dataset", Input{Platform: "rtx4090", CalibDatasets: []string{dataset.OgbnArxiv, "no-such-dataset"}}, `"no-such-dataset"`},
		{"base config", Input{Platform: "a100x4", Devices: 3}, "base config"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in
			in.Dataset, in.Model, in.CalibSamples, in.Seed = dataset.Reddit2, model.SAGE, 4, 977
			if in.CalibDatasets == nil {
				in.CalibDatasets = []string{dataset.OgbnArxiv}
			}
			before := faultinject.Hits(faultinject.EstimatorProbe)
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				_, err = New(in)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("New did not return within 5s")
			}
			if err == nil || errors.Is(err, faultinject.ErrInjected) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New returned %v, want an error naming %s", err, tc.want)
			}
			if n := faultinject.Hits(faultinject.EstimatorProbe) - before; n != 0 {
				t.Errorf("%d calibration probes ran before the refusal", n)
			}
		})
	}
}

func TestExploreProducesGuidelines(t *testing.T) {
	n := sharedNavigator(t)
	g, err := n.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if g.Explored == 0 {
		t.Error("nothing explored")
	}
	if len(g.Pareto) == 0 {
		t.Error("empty Pareto front")
	}
	if len(g.PerPriority) != 4 {
		t.Errorf("PerPriority has %d entries, want 4", len(g.PerPriority))
	}
	if err := g.Chosen.Cfg.Validate(); err != nil {
		t.Errorf("chosen guideline invalid: %v", err)
	}
	// Emphasis sanity: Ex-TM's prediction can't be slower AND hungrier
	// than Ex-MA's.
	tm := g.PerPriority[dse.TimeMemory].Pred
	ma := g.PerPriority[dse.MemoryAccuracy].Pred
	if tm.TimeSec > ma.TimeSec && tm.MemoryGB > ma.MemoryGB {
		t.Errorf("Ex-TM (T=%.2f Γ=%.2f) dominated by Ex-MA (T=%.2f Γ=%.2f) on its own objectives",
			tm.TimeSec, tm.MemoryGB, ma.TimeSec, ma.MemoryGB)
	}
}

func TestTrainChosenGuideline(t *testing.T) {
	n := sharedNavigator(t)
	g, err := n.Explore()
	if err != nil {
		t.Fatal(err)
	}
	perf, err := n.Train(g.Chosen.Cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if perf.Accuracy < 0.3 {
		t.Errorf("guideline accuracy %.3f below sanity floor", perf.Accuracy)
	}
	if !perf.Feasible {
		t.Error("chosen guideline infeasible when actually run")
	}
}

func TestBaseConfigShape(t *testing.T) {
	n := sharedNavigator(t)
	base := n.BaseConfig()
	if base.Dataset != dataset.Reddit2 || base.Model != model.SAGE {
		t.Errorf("base config wrong: %+v", base)
	}
	if len(base.Fanouts) != base.Layers {
		t.Errorf("base fanouts %v vs layers %d", base.Fanouts, base.Layers)
	}
}

func TestConstraintsRespectedInGuidelines(t *testing.T) {
	n := sharedNavigator(t)
	// Re-explore with a memory budget; all guidelines must respect it.
	nav2 := &Navigator{in: n.in, est: n.est, base: n.base}
	nav2.in.Constraints = dse.Constraints{MaxMemoryGB: 1.0}
	g, err := nav2.Explore()
	if err != nil {
		t.Fatalf("constrained Explore: %v", err)
	}
	for p, pt := range g.PerPriority {
		if pt.Pred.MemoryGB > 1.0 {
			t.Errorf("%s guideline predicts %.2f GB over the 1 GB budget", p, pt.Pred.MemoryGB)
		}
	}
}

// TestParallelismInvariantGuidelines: the worker count (tensor
// parallelism, which -procs sets) is a wall-clock knob only — Guidelines
// are identical at any fan-out width.
func TestParallelismInvariantGuidelines(t *testing.T) {
	n := sharedNavigator(t)
	explore := func(workers int) (*Guidelines, error) {
		defer tensor.WithParallelism(workers)()
		return n.Explore()
	}
	serial, err := explore(1)
	if err != nil {
		t.Fatalf("serial Explore: %v", err)
	}
	for _, workers := range []int{3, 8} {
		g, err := explore(workers)
		if err != nil {
			t.Fatalf("workers=%d Explore: %v", workers, err)
		}
		if !reflect.DeepEqual(g, serial) {
			t.Fatalf("workers=%d: Guidelines differ from serial", workers)
		}
	}
}

// TestUserSpaceHonored: a legitimate single-point Space (only CacheRatios
// set) must survive New — the old Size()<=1 heuristic silently replaced
// it with DefaultSpace and explored hundreds of unwanted configs.
func TestUserSpaceHonored(t *testing.T) {
	sharedNavigator(t) // warm the calibration record cache
	n, err := New(Input{
		Dataset:       dataset.Reddit2,
		Model:         model.SAGE,
		Platform:      "rtx4090",
		CalibDatasets: []string{dataset.OgbnArxiv},
		CalibSamples:  16,
		Epochs:        2,
		Space:         dse.Space{CacheRatios: []float64{0.15}},
		Seed:          21,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g, err := n.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if g.Explored != 1 {
		t.Fatalf("single-point Space explored %d configs, want exactly 1 (DefaultSpace substituted?)", g.Explored)
	}
	if got := g.Chosen.Cfg.CacheRatio; got != 0.15 {
		t.Errorf("chosen guideline cache ratio %v, want the pinned 0.15", got)
	}
}

// TestZeroSpaceDefaults: the genuine zero value still falls back to the
// full default grid.
func TestZeroSpaceDefaults(t *testing.T) {
	sharedNavigator(t) // warm the calibration record cache
	n, err := New(Input{
		Dataset:       dataset.Reddit2,
		Model:         model.SAGE,
		Platform:      "rtx4090",
		CalibDatasets: []string{dataset.OgbnArxiv},
		CalibSamples:  16,
		Epochs:        2,
		Seed:          21,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !reflect.DeepEqual(n.in.Space, dse.DefaultSpace()) {
		t.Errorf("zero Space not replaced by DefaultSpace: %+v", n.in.Space)
	}
}

package estimator

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/model"
	"gnnavigator/internal/tensor"
)

// TestCollectWithEquivalence: fanning profiling runs across workers must
// not change the records — each backend run is deterministic in
// isolation and results are index-stamped. WallSec (host wall clock) is
// the documented informational exception.
func TestCollectWithEquivalence(t *testing.T) {
	cfgs := ProbeConfigs(dataset.OgbnArxiv, model.SAGE, "rtx4090", 4, 55)
	strip := func(recs []Record) []Record {
		out := make([]Record, len(recs))
		for i, r := range recs {
			p := *r.Perf
			p.WallSec = 0
			out[i] = Record{Cfg: r.Cfg, Stats: r.Stats, Perf: &p}
		}
		return out
	}
	serial, err := CollectWith(cfgs, false, 1)
	if err != nil {
		t.Fatalf("serial CollectWith: %v", err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		par, err := CollectWith(cfgs, false, workers)
		if err != nil {
			t.Fatalf("workers=%d CollectWith: %v", workers, err)
		}
		if !reflect.DeepEqual(strip(par), strip(serial)) {
			t.Fatalf("workers=%d: records differ from serial", workers)
		}
	}
}

// TestCollectWithParallelismHoist: the worker count is set once, around
// the whole fan-out, by its caller; a parallel CollectWith inside that
// scope leaves the count as it found it.
func TestCollectWithParallelismHoist(t *testing.T) {
	defer tensor.WithParallelism(2)()
	cfgs := ProbeConfigs(dataset.OgbnArxiv, model.SAGE, "rtx4090", 3, 56)
	if _, err := CollectWith(cfgs, false, 2); err != nil {
		t.Fatalf("CollectWith: %v", err)
	}
	if got := tensor.Parallelism(); got != 2 {
		t.Fatalf("tensor parallelism changed: %d, want 2", got)
	}
}

// TestPredictConcurrent soaks Estimator.Predict from many goroutines
// (under -race in CI) and checks every result matches the serial
// prediction bit for bit.
func TestPredictConcurrent(t *testing.T) {
	e, recs := trainedEstimator(t)
	cfgs := make([]backend.Config, 0, 8)
	for _, r := range recs[:min(8, len(recs))] {
		cfgs = append(cfgs, r.Cfg)
	}
	want := make([]Prediction, len(cfgs))
	for i, cfg := range cfgs {
		p, err := e.Predict(cfg)
		if err != nil {
			t.Fatalf("serial Predict %s: %v", cfg.Label(), err)
		}
		want[i] = p
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for i, cfg := range cfgs {
					p, err := e.Predict(cfg)
					if err != nil {
						errs[g] = err
						return
					}
					if p != want[i] {
						t.Errorf("goroutine %d: Predict(%s) diverged from serial", g, cfg.Label())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Predict: %v", err)
		}
	}
}

// TestProfileDatasetConcurrent: concurrent profiling of the same dataset
// single-flights the computation and agrees on the result.
func TestProfileDatasetConcurrent(t *testing.T) {
	d := dataset.MustLoad(dataset.OgbnProducts)
	want := ProfileDataset(d)
	var wg sync.WaitGroup
	got := make([]GraphStats, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = ProfileDataset(d)
		}(i)
	}
	wg.Wait()
	for i, st := range got {
		if st != want {
			t.Fatalf("goroutine %d: stats diverged", i)
		}
	}
}

// TestBaselineAccuracyConcurrent: racing callers share one baseline run
// and one result.
func TestBaselineAccuracyConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	accs := make([]float64, 6)
	errs := make([]error, 6)
	for i := range accs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			accs[i], errs[i] = BaselineAccuracy(dataset.OgbnProducts, 1)
		}(i)
	}
	wg.Wait()
	for i := range accs {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if accs[i] != accs[0] {
			t.Fatalf("goroutine %d: accuracy %v != %v", i, accs[i], accs[0])
		}
	}
}

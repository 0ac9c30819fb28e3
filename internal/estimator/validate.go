package estimator

import (
	"fmt"
	"math"
	"sync"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/model"
	"gnnavigator/internal/regress"
)

// Validation reports Table 2's metrics on a held-out record set: R² for
// the theory-grounded T and Γ predictions, MSE for the black-box Acc.
type Validation struct {
	R2Time    float64
	R2Memory  float64
	MSEAcc    float64
	R2Batch   float64 // extra: Eq. 12 mini-batch size prediction quality
	NumTested int
}

// Validate scores e against ground-truth records.
func Validate(e *Estimator, records []Record) (Validation, error) {
	var predT, trueT, predG, trueG, predA, trueA, predB, trueB []float64
	for _, r := range records {
		p, err := e.Predict(r.Cfg)
		if err != nil {
			return Validation{}, err
		}
		predT = append(predT, p.TimeSec)
		trueT = append(trueT, r.Perf.TimeSec)
		predG = append(predG, p.MemoryGB)
		trueG = append(trueG, r.Perf.MemoryGB)
		predB = append(predB, p.BatchSize)
		trueB = append(trueB, r.Perf.MeanBatchSize)
		if len(r.Perf.AccuracyHistory) > 0 {
			predA = append(predA, p.Accuracy)
			trueA = append(trueA, r.Perf.Accuracy)
		}
	}
	v := Validation{
		R2Time:    regress.R2(predT, trueT),
		R2Memory:  regress.R2(predG, trueG),
		R2Batch:   regress.R2(predB, trueB),
		NumTested: len(records),
	}
	if len(predA) > 0 {
		v.MSEAcc = regress.MSE(predA, trueA)
	} else {
		v.MSEAcc = math.NaN()
	}
	return v, nil
}

// BlackBoxBatchSize is the pure black-box baseline of Fig. 5: a decision
// tree regressor mapping raw configuration knobs directly to |V_i|, with
// no analytic structure at all.
type BlackBoxBatchSize struct {
	tree *regress.Tree
}

// rawFeatures deliberately exposes only the raw knobs (no analytic bound,
// no graph statistics beyond size) — matching how a naive tuner would
// model the problem.
func rawFeatures(cfg backend.Config) []float64 {
	f := []float64{float64(cfg.BatchSize), float64(cfg.WalkLength), float64(len(cfg.Fanouts))}
	for i := 0; i < 3; i++ {
		k := 0
		if i < len(cfg.Fanouts) {
			k = cfg.Fanouts[i]
		}
		f = append(f, float64(k))
	}
	code := 0.0
	switch cfg.Sampler {
	case backend.SamplerFastGCN:
		code = 1
	case backend.SamplerSAINT:
		code = 2
	}
	return append(f, code)
}

// TrainBlackBoxBatchSize fits the baseline on records.
func TrainBlackBoxBatchSize(records []Record) (*BlackBoxBatchSize, error) {
	if len(records) < 4 {
		return nil, fmt.Errorf("estimator: need >= 4 records for black-box baseline")
	}
	var X [][]float64
	var y []float64
	for _, r := range records {
		X = append(X, rawFeatures(r.Cfg))
		y = append(y, r.Perf.MeanBatchSize)
	}
	t := &regress.Tree{MaxDepth: 6, MinLeaf: 2}
	if err := t.Fit(X, y); err != nil {
		return nil, err
	}
	return &BlackBoxBatchSize{tree: t}, nil
}

// Predict returns the baseline's |V_i| estimate.
func (b *BlackBoxBatchSize) Predict(cfg backend.Config) float64 {
	return b.tree.Predict(rawFeatures(cfg))
}

// --- cached calibration --------------------------------------------------

var (
	calibMu    sync.Mutex
	calibCache = map[string]*flightCell[[]Record]{}
)

// CollectCached memoizes Collect for a standard probe grid, keyed by
// (dataset, model, platform, n, seed, accuracy). Experiment harnesses and
// tests share calibration data through this, since ground-truth collection
// is the expensive step. Run-fidelity options (prefetch/parallelism) are
// deliberately absent from the key: backend outputs are bitwise-identical
// across them, so records collected at any depth are interchangeable.
// Concurrent callers on a cold key single-flight the probe sweep. A
// dataset or platform name that does not resolve is an error naming it.
func CollectCached(dsName string, kind model.Kind, platform string, n int, seed int64, withAccuracy bool, opts ...backend.Options) ([]Record, error) {
	if err := resolveNames(dsName, platform); err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s/%s/%s/%d/%d/%v", dsName, kind, platform, n, seed, withAccuracy)
	return cellFor(&calibMu, calibCache, key).get(func() ([]Record, error) {
		return Collect(ProbeConfigs(dsName, kind, platform, n, seed), withAccuracy, opts...)
	})
}

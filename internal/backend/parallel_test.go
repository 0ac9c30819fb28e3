package backend

import (
	"testing"

	"gnnavigator/internal/dataset"
	"gnnavigator/internal/model"
	"gnnavigator/internal/tensor"
)

// runAtWorkers runs cfg with the process-wide tensor worker count set
// to workers for the run's duration.
func runAtWorkers(t *testing.T, cfg Config, opts Options, workers int) *Perf {
	t.Helper()
	defer tensor.WithParallelism(workers)()
	perf, err := RunWith(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return perf
}

// TestRunParallelBitwiseEqualSerial runs full training (sampling, cache,
// gather, forward, backward, Adam) at parallelism 1 and 4 with the same
// seed and demands identical results: every sharded kernel preserves the
// serial per-element accumulation order, and all rng draws stay on the
// serial path. Run under -race this also shakes out data races in the
// sharded kernels.
func TestRunParallelBitwiseEqualSerial(t *testing.T) {
	cfg, err := FromTemplate(Template2PGraph, dataset.OgbnArxiv, model.SAGE, "rtx4090")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Epochs = 2
	cfg.BatchSize = 256

	serial := runAtWorkers(t, cfg, Options{EvalBatch: 256}, 1)
	par := runAtWorkers(t, cfg, Options{EvalBatch: 256}, 4)

	if serial.Accuracy != par.Accuracy {
		t.Errorf("accuracy %v (serial) != %v (parallel)", serial.Accuracy, par.Accuracy)
	}
	if len(serial.AccuracyHistory) != len(par.AccuracyHistory) {
		t.Fatalf("history lengths differ: %d vs %d", len(serial.AccuracyHistory), len(par.AccuracyHistory))
	}
	for i := range serial.AccuracyHistory {
		if serial.AccuracyHistory[i] != par.AccuracyHistory[i] {
			t.Errorf("epoch %d accuracy %v != %v", i, serial.AccuracyHistory[i], par.AccuracyHistory[i])
		}
	}
	for i := range serial.EpochTimes {
		if serial.EpochTimes[i] != par.EpochTimes[i] {
			t.Errorf("epoch %d simulated time %v != %v", i, serial.EpochTimes[i], par.EpochTimes[i])
		}
	}
	if serial.MeanBatchSize != par.MeanBatchSize || serial.PeakBatchSize != par.PeakBatchSize {
		t.Errorf("batch stats diverge: %v/%d vs %v/%d",
			serial.MeanBatchSize, serial.PeakBatchSize, par.MeanBatchSize, par.PeakBatchSize)
	}
}

// TestRunGATParallel covers the attention layer's sharded forward on a
// real run at parallel settings (GCN/SAGE are covered above).
func TestRunGATParallel(t *testing.T) {
	cfg, err := FromTemplate(TemplatePyG, dataset.OgbnArxiv, model.GAT, "rtx4090")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Epochs = 1
	cfg.BatchSize = 128
	cfg.Fanouts = []int{5, 5}

	serial := runAtWorkers(t, cfg, Options{EvalBatch: 128}, 1)
	par := runAtWorkers(t, cfg, Options{EvalBatch: 128}, 4)
	if serial.Accuracy != par.Accuracy {
		t.Errorf("GAT accuracy %v (serial) != %v (parallel)", serial.Accuracy, par.Accuracy)
	}
}

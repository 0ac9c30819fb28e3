package backend

import (
	"math"
	"path/filepath"
	"testing"

	"gnnavigator/internal/dataset"
	"gnnavigator/internal/model"
)

// TestSaveModel pins the train→save→load→serve contract: a model saved
// by RunWith and loaded back must reproduce the run's final validation
// accuracy exactly (same eval seed, same limit), because the parameters
// round-trip bitwise and evaluation is deterministic.
func TestSaveModel(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 1
	path := filepath.Join(t.TempDir(), "model.gnav")
	perf, err := RunWith(cfg, Options{EvalBatch: 512, SaveModelPath: path})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := model.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.MustLoad(cfg.Dataset)
	acc, err := evaluate(loaded, d.Graph, d.ValIdx, 512, cfg.Seed+29)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(acc) != math.Float64bits(perf.Accuracy) {
		t.Errorf("loaded model evaluates to %v, run reported %v (not bitwise)", acc, perf.Accuracy)
	}

	if _, err := RunWith(cfg, Options{SkipTraining: true, SaveModelPath: path}); err == nil {
		t.Error("SkipTraining+SaveModelPath accepted")
	}
}

package backend

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/model"
	"gnnavigator/internal/plan"
	"gnnavigator/internal/tensor"
)

// chaosTrial runs the full persistence + train + resume workflow,
// passing through every injection point reachable from this package:
// plan save/load, the pipeline's sample and gather stages, the tensor
// worker pool, the cache shard update, checkpoint save/load and model
// save/load. It returns the training run's Perf and the resumed run's
// Perf.
func chaosTrial(dir string, cfg Config) (*Perf, *Perf, error) {
	p, err := CompilePlan(cfg)
	if err != nil {
		return nil, nil, err
	}
	planPath := filepath.Join(dir, "epoch.plan")
	if err := plan.SaveFile(planPath, p); err != nil {
		return nil, nil, err
	}
	loaded, err := plan.LoadFile(planPath)
	if err != nil {
		return nil, nil, err
	}
	ckpt := filepath.Join(dir, "run.ckpt")
	mdlPath := filepath.Join(dir, "run.gnav")
	p1, err := RunWith(cfg, Options{Plan: loaded, CheckpointPath: ckpt, SaveModelPath: mdlPath})
	if err != nil {
		return nil, nil, err
	}
	if _, err := model.Load(mdlPath); err != nil {
		return nil, nil, err
	}
	// Resume from the final snapshot: a pure fast-forward that must
	// reproduce the run it replays.
	p2, err := RunWith(cfg, Options{ResumeFrom: ckpt})
	if err != nil {
		return nil, nil, err
	}
	return p1, p2, nil
}

// TestChaosMatrixEveryPoint is the armed-fault matrix of the chaos
// suite: each injection point in the catalog is armed in turn (error,
// delay, and — where a containment layer exists by design — panic), and
// the workflow must either return a clean, recognizable error or finish
// with results identical to the unfaulted reference. Never a crash, a
// hang (the CI job adds a wall-clock timeout), or silent corruption.
func TestChaosMatrixEveryPoint(t *testing.T) {
	defer faultinject.Reset()
	// The tensor/worker point fires per dispatched shard job, and a
	// single-CPU host dispatches none — force two workers so the pool
	// path actually runs (outputs are pinned identical at any count).
	defer tensor.WithParallelism(2)()
	cfg := ckptCfg()
	cfg.Epochs = 2
	ref1, ref2, err := chaosTrial(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The halo point only fires on multi-device runs, so it gets its own
	// trial config (and reference) on a two-device platform.
	multi := cfg
	multi.Platform = "rtx4090x2"
	multi.Devices = 2
	refM1, refM2, err := chaosTrial(t.TempDir(), multi)
	if err != nil {
		t.Fatal(err)
	}

	// The stage/worker sites run under the pipeline's (or the tensor
	// pool's) panic containment (dist/halo fires in the consumer, which
	// pipeline.Run contains too); the IO points are plain error-return
	// sites, so Panic is out of contract there.
	contained := map[faultinject.Point]bool{
		faultinject.PipelineSample: true,
		faultinject.PipelineGather: true,
		faultinject.TensorWorker:   true,
		faultinject.CacheShard:     true,
		faultinject.DistHalo:       true,
	}
	for _, pt := range faultinject.Points() {
		if pt == faultinject.EstimatorProbe {
			// estimator/probe sits above this package (the estimator
			// imports backend); its chaos coverage lives in package
			// estimator.
			continue
		}
		if pt == faultinject.ServeDecode || pt == faultinject.ServeFlush {
			// The serving points sit outside the training workflow; their
			// chaos coverage lives in packages serve (TestChaosServeDecode)
			// and infer (TestChaosServeFlush).
			continue
		}
		kinds := []faultinject.Kind{faultinject.Error, faultinject.Delay}
		if contained[pt] {
			kinds = append(kinds, faultinject.Panic)
		}
		trialCfg, trialRef1, trialRef2 := cfg, ref1, ref2
		if pt == faultinject.DistHalo {
			trialCfg, trialRef1, trialRef2 = multi, refM1, refM2
		}
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", pt, kind), func(t *testing.T) {
				defer faultinject.Reset()
				faultinject.Arm(pt, faultinject.Spec{Kind: kind, Count: 1})
				before := faultinject.Hits(pt)
				p1, p2, err := chaosTrial(t.TempDir(), trialCfg)
				faultinject.Reset()
				if faultinject.Hits(pt) == before {
					t.Fatalf("trial never passed through %s", pt)
				}
				if kind == faultinject.Delay {
					if err != nil {
						t.Fatalf("delay fault failed the trial: %v", err)
					}
					perfEqual(t, "delayed trial run", p1, trialRef1)
					perfEqual(t, "delayed trial resume", p2, trialRef2)
					return
				}
				if err == nil {
					t.Fatalf("armed %s fault at %s was hit but produced no error", kind, pt)
				}
				if !errors.Is(err, faultinject.ErrInjected) && !strings.Contains(err.Error(), "injected") {
					t.Fatalf("fault surfaced as an unrecognizable error: %v", err)
				}
			})
		}
	}

	// After the whole matrix, a clean trial still reproduces the
	// reference bit-for-bit: no armed fault left residue behind.
	p1, p2, err := chaosTrial(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	perfEqual(t, "post-matrix run", p1, ref1)
	perfEqual(t, "post-matrix resume", p2, ref2)
}

// Command gnnavigator runs the full adaptive-training workflow from the
// command line: calibrate the estimator, explore the design space under
// the given requirements, print the guideline, and (optionally) train
// with it.
//
// Example:
//
//	gnnavigator -dataset reddit2 -model sage -platform rtx4090 \
//	    -priority ex-tm -max-mem 1.5 -train
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/core"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/dse"
	"gnnavigator/internal/hw"
	"gnnavigator/internal/model"
	"gnnavigator/internal/tensor"
)

func main() {
	log.SetFlags(0)
	var (
		dsName    = flag.String("dataset", dataset.Reddit2, "dataset name: "+strings.Join(dataset.Names(), ", "))
		modelName = flag.String("model", "sage", "GNN architecture: gcn, sage, gat")
		platform  = flag.String("platform", "rtx4090", "hardware platform profile")
		priority  = flag.String("priority", "balance", "guideline priority: balance, ex-tm, ex-ma, ex-ta")
		maxMem    = flag.Float64("max-mem", 0, "memory budget in GB (0 = unconstrained)")
		maxTime   = flag.Float64("max-time", 0, "epoch time budget in seconds (0 = unconstrained)")
		minAcc    = flag.Float64("min-acc", 0, "minimum accuracy in [0,1] (0 = unconstrained)")
		samples   = flag.Int("calib-samples", 14, "estimator calibration probes per dataset")
		policies  = flag.String("policies", "", "comma-separated cache policies to explore (none,static,freq,fifo,lru,opt); empty = default space")
		precision = flag.String("precision", "", "pin the feature storage precision (float32, float16, int8); empty = explore all")
		devices   = flag.Int("devices", 0, "pin the data-parallel device count (power of two the platform hosts); 0 = explore the default 1/2/4 sweep")
		epochs    = flag.Int("epochs", 3, "training epochs")
		doTrain   = flag.Bool("train", false, "execute the chosen guideline after exploring")
		seed      = flag.Int64("seed", 1, "random seed")
		procs     = flag.Int("procs", 0, "tensor kernel workers (0 = GOMAXPROCS, 1 = serial; negative is an error)")
		prefetch  = flag.Int("prefetch", 0, "minibatch pipeline depth for calibration and training (<= 0 = inline; results identical at any depth)")
		savePlan  = flag.String("save-plan", "", "compile the training run's epoch plan and write it to this file (with -train)")
		loadPlan  = flag.String("load-plan", "", "replay a compiled epoch plan from this file instead of sampling live (with -train)")
		ckptPath  = flag.String("checkpoint", "", "snapshot the training state to this file every -checkpoint-every epochs (with -train; atomic, checksummed)")
		ckptEvery = flag.Int("checkpoint-every", 1, "epochs between checkpoint snapshots (with -checkpoint)")
		resume    = flag.String("resume", "", "resume training from this checkpoint file (with -train); the resumed run is bitwise-identical to an uninterrupted one")
		saveModel = flag.String("save-model", "", "write the trained model to this file after -train (atomic, checksummed; serve it with gnnserve)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the whole workflow (0 = none); calibration, exploration and training abort cleanly when it expires")
	)
	flag.Parse()

	prec, space, err := checkFlags(cliFlags{
		platform: *platform, model: *modelName, priority: *priority,
		precision: *precision, policies: *policies,
		procs: *procs, devices: *devices,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *procs > 0 {
		tensor.SetParallelism(*procs)
	}

	// nil when unbounded: backend runs skip the per-batch cancellation
	// check entirely instead of polling a context that can never expire.
	var ctx context.Context
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), *timeout)
		defer cancel()
	}

	fmt.Fprintf(os.Stderr, "calibrating estimator (leave-one-out over %v)...\n", otherDatasets(*dsName))
	nav, err := core.New(core.Input{
		Dataset:  *dsName,
		Model:    model.Kind(*modelName),
		Platform: *platform,
		Priority: dse.Priority(*priority),
		Constraints: dse.Constraints{
			MaxTimeSec:  *maxTime,
			MaxMemoryGB: *maxMem,
			MinAccuracy: *minAcc,
		},
		Space:           space,
		Precision:       prec,
		Devices:         *devices,
		CalibSamples:    *samples,
		Epochs:          *epochs,
		Prefetch:        *prefetch,
		SavePlan:        *savePlan,
		LoadPlan:        *loadPlan,
		Ctx:             ctx,
		Checkpoint:      *ckptPath,
		CheckpointEvery: *ckptEvery,
		Resume:          *resume,
		SaveModel:       *saveModel,
		Seed:            *seed,
	})
	if err != nil {
		log.Fatalf("calibration failed: %v", err)
	}

	g, err := nav.Explore()
	if err != nil {
		log.Fatalf("exploration failed: %v", err)
	}
	fmt.Printf("explored %d candidates (%d pruned); Pareto front: %d points\n",
		g.Explored, g.Pruned, len(g.Pareto))
	fmt.Printf("\nguidelines per priority:\n")
	for _, p := range dse.Priorities() {
		pt := g.PerPriority[p]
		marker := " "
		if p == dse.Priority(*priority) {
			marker = ">"
		}
		fmt.Printf("%s %-8s %-46s pred T=%.2fs Γ=%.2fGB Acc=%.1f%%\n",
			marker, p, pt.Cfg.Label(), pt.Pred.TimeSec, pt.Pred.MemoryGB, 100*pt.Pred.Accuracy)
	}

	if *doTrain {
		fmt.Println("\ntraining with the chosen guideline...")
		perf, err := nav.Train(g.Chosen.Cfg)
		if err != nil {
			log.Fatalf("training failed: %v", err)
		}
		fmt.Printf("measured: T=%.2fs Γ=%.2fGB Acc=%.1f%% (hit rate %.0f%%, %d iterations)\n",
			perf.TimeSec, perf.MemoryGB, 100*perf.Accuracy, 100*perf.HitRate, perf.Iterations)
	}
}

// cliFlags are the flag values checkFlags vets.
type cliFlags struct {
	platform, model, priority, precision, policies string
	procs, devices                                 int
}

// checkFlags refuses flag values the workflow cannot run with, naming the
// flag or value, and returns the pinned precision and the space to
// explore. A -policies list narrows the cache-policy dimension (the rest
// of the space stays at the default grid); a pinned precision or device
// count collapses its dimension to that value, and device counts the
// platform cannot host are left to validation to prune.
func checkFlags(f cliFlags) (cache.Precision, dse.Space, error) {
	prec := cache.Precision(strings.TrimSpace(f.precision))
	if !prec.Valid() {
		return "", dse.Space{}, fmt.Errorf("unknown precision %q; have %v", f.precision, cache.Precisions())
	}
	if f.procs < 0 {
		return "", dse.Space{}, fmt.Errorf("-procs %d: a worker count cannot be negative (0 = GOMAXPROCS, 1 = serial)", f.procs)
	}
	plat, ok := hw.Profile(f.platform)
	if !ok {
		return "", dse.Space{}, fmt.Errorf("unknown platform %q; have: %s", f.platform, strings.Join(hw.ProfileNames(), ", "))
	}
	if f.devices < 0 || f.devices > plat.DeviceCount() {
		return "", dse.Space{}, fmt.Errorf("-devices %d out of range for platform %q (%d devices)", f.devices, f.platform, plat.DeviceCount())
	}
	switch model.Kind(f.model) {
	case model.GCN, model.SAGE, model.GAT:
	default:
		return "", dse.Space{}, fmt.Errorf("unknown model %q", f.model)
	}
	if !slices.Contains(dse.Priorities(), dse.Priority(f.priority)) {
		return "", dse.Space{}, fmt.Errorf("unknown priority %q", f.priority)
	}
	space := dse.DefaultSpace()
	if f.policies != "" {
		space.Policies = space.Policies[:0]
		for _, s := range strings.Split(f.policies, ",") {
			pol := cache.Policy(strings.TrimSpace(s))
			if !pol.Valid() {
				return "", dse.Space{}, fmt.Errorf("unknown cache policy %q; have none, static, freq, fifo, lru, opt", s)
			}
			space.Policies = append(space.Policies, pol)
		}
	}
	if prec != "" {
		space.Precisions = []cache.Precision{prec}
	}
	if f.devices > 0 {
		space.DeviceCounts = []int{f.devices}
	}
	return prec, space, nil
}

func otherDatasets(target string) []string {
	var out []string
	for _, n := range dataset.Names() {
		if n != target {
			out = append(out, n)
		}
	}
	return out
}

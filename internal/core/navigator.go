// Package core exposes GNNavigator's top-level API — the three-step
// workflow of Fig. 2. Users declare their application (dataset, model,
// hardware platform, requirements and priorities); the Navigator analyzes
// the inputs and calibrates its gray-box estimator (Step 1), automatically
// explores the design space for training guidelines (Step 2), and executes
// the chosen guideline on the reconfigurable runtime backend (Step 3).
package core

import (
	"context"
	"fmt"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/dse"
	"gnnavigator/internal/estimator"
	"gnnavigator/internal/model"
	"gnnavigator/internal/plan"
)

// Input is everything the user supplies (Fig. 2 "User Input").
type Input struct {
	// Dataset names the graph to train on (a registered dataset).
	Dataset string
	// Model selects the GNN architecture.
	Model model.Kind
	// Platform selects the heterogeneous hardware (hw.Profiles key).
	Platform string

	// Constraints are hard runtime constraints; Priority picks the
	// emphasis used to choose among satisfying candidates.
	Constraints dse.Constraints
	Priority    dse.Priority

	// Space overrides the explored design space (zero value = DefaultSpace).
	Space dse.Space

	// Precision pins the feature-plane storage width of the base config
	// (and, unless Space.Precisions overrides it, of every explored
	// candidate). Empty = the float32 baseline. The gnnavigator
	// -precision flag maps onto this.
	Precision cache.Precision

	// Devices pins the data-parallel device count of the base config
	// (and, unless Space.DeviceCounts overrides it, of every explored
	// candidate). 0 or 1 = single device; K > 1 must be a power of two
	// the platform hosts. The gnnavigator -devices flag maps onto this.
	Devices int

	// CalibDatasets are profiled to train the estimator. Default: every
	// built-in dataset except the target (the paper's leave-one-out rule,
	// §4.1: "established upon the performance across all the datasets
	// available, except the one waiting for estimation").
	CalibDatasets []string
	// CalibSamples is the number of probe configs per calibration dataset
	// (default 16).
	CalibSamples int

	// Final-training hyperparameters.
	Layers int     // default 2
	Heads  int     // default 2 (GAT)
	Epochs int     // default 3
	LR     float64 // default 0.01

	// Prefetch is the minibatch pipeline depth for every backend run the
	// Navigator issues — calibration profiling (the DSE measurement path)
	// and final training alike. <= 0 runs inline; see
	// backend.Options.Prefetch. Any value yields bitwise-identical
	// results, so this is purely a wall-clock knob.
	Prefetch int

	// SavePlan, when non-empty, compiles the final training run's epoch
	// plan (backend.CompilePlan) and writes it to this path before
	// training. LoadPlan, when non-empty, replays a previously saved plan
	// instead of sampling live — the plan must be compatible with the
	// chosen configuration (sampler, seed, epochs, batch size, dataset).
	// Replay is bitwise-identical to live sampling; both require unbiased
	// sampling (BiasRate 0). The gnnavigator -save-plan/-load-plan flags
	// map onto these.
	SavePlan string
	LoadPlan string

	// Ctx, when non-nil, cancels every backend run and estimator query
	// the Navigator issues — calibration profiling, exploration, and
	// final training alike. The gnnavigator -timeout flag maps onto this
	// (context.WithTimeout). nil means no cancellation.
	Ctx context.Context

	// Checkpoint, when non-empty, makes Train snapshot its state to this
	// path every CheckpointEvery epochs (default 1) plus once at the end;
	// Resume, when non-empty, restores such a snapshot before training
	// and fast-forwards to it — the resumed run is bitwise-identical to
	// an uninterrupted one. See backend.Options. The gnnavigator
	// -checkpoint/-checkpoint-every/-resume flags map onto these.
	Checkpoint      string
	CheckpointEvery int
	Resume          string

	// SaveModel, when non-empty, writes the trained model (config +
	// parameters, GNAVMDL1) to this path after Train completes — the
	// artifact cmd/gnnserve loads. The gnnavigator -save-model flag maps
	// onto this.
	SaveModel string

	Seed int64
}

// Guidelines is the Navigator's output for Step 2: the chosen training
// configuration, the per-priority alternatives, and the predicted Pareto
// front behind them.
type Guidelines struct {
	// Chosen is the guideline for the requested priority.
	Chosen dse.Point
	// PerPriority maps each emphasis (Bal, Ex-TM, Ex-MA, Ex-TA) to its
	// decision.
	PerPriority map[dse.Priority]dse.Point
	// Pareto is the predicted non-dominated front.
	Pareto []dse.Point
	// Explored and Pruned count estimator evaluations and constraint-cut
	// leaves.
	Explored, Pruned int
}

// Navigator is a calibrated exploration session for one application.
type Navigator struct {
	in   Input
	est  *estimator.Estimator
	base backend.Config
}

// New performs Step 1 (input analysis and estimator calibration) and
// returns a ready-to-explore Navigator. Calibration cost is dominated by
// ground-truth profiling runs: CalibSamples × len(CalibDatasets) backend
// executions (memoized per process).
func New(in Input) (*Navigator, error) {
	if _, err := dataset.Load(in.Dataset); err != nil {
		return nil, err
	}
	if in.Priority == "" {
		in.Priority = dse.Balance
	}
	if in.CalibSamples == 0 {
		in.CalibSamples = 16
	}
	if in.Layers == 0 {
		in.Layers = 2
	}
	if in.Heads == 0 {
		in.Heads = 2
	}
	if in.Epochs == 0 {
		in.Epochs = 3
	}
	if in.LR == 0 {
		in.LR = 0.01
	}
	// Only a genuinely absent Space falls back to the default grid. The
	// old heuristic (Size() <= 1 && no BatchSizes) also matched legitimate
	// single-point spaces — e.g. a user pinning everything but CacheRatios
	// — and silently explored the full DefaultSpace instead.
	if in.Space.IsZero() {
		in.Space = dse.DefaultSpace()
	}
	if len(in.CalibDatasets) == 0 {
		for _, name := range dataset.Names() {
			if name != in.Dataset {
				in.CalibDatasets = append(in.CalibDatasets, name)
			}
		}
	}
	for _, name := range in.CalibDatasets {
		if name == in.Dataset {
			return nil, fmt.Errorf("core: calibration dataset %q equals the target (leave-one-out violated)", name)
		}
		if _, err := dataset.Load(name); err != nil {
			return nil, fmt.Errorf("core: calibration %w", err)
		}
	}
	// The base config is checked before the first probe, so a platform,
	// precision or device count it cannot run with fails at once instead
	// of after the whole calibration.
	base := backend.Config{
		Dataset:     in.Dataset,
		Platform:    in.Platform,
		Model:       in.Model,
		Hidden:      64,
		Layers:      in.Layers,
		Heads:       in.Heads,
		Epochs:      in.Epochs,
		LR:          in.LR,
		Seed:        in.Seed,
		Sampler:     backend.SamplerSAGE,
		BatchSize:   1024,
		Fanouts:     defaultFanouts(in.Layers),
		CachePolicy: cache.None,
		Precision:   in.Precision,
		Devices:     in.Devices,
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("core: base config: %w", err)
	}

	var records []estimator.Record
	for i, name := range in.CalibDatasets {
		recs, err := estimator.CollectCached(name, in.Model, in.Platform,
			in.CalibSamples, in.Seed+int64(i)*101, true,
			backend.Options{Prefetch: in.Prefetch, Ctx: in.Ctx})
		if err != nil {
			return nil, fmt.Errorf("core: calibration on %s: %w", name, err)
		}
		records = append(records, recs...)
	}
	est, err := estimator.Train(records)
	if err != nil {
		return nil, fmt.Errorf("core: estimator training: %w", err)
	}
	return &Navigator{in: in, est: est, base: base}, nil
}

func defaultFanouts(layers int) []int {
	f := make([]int, layers)
	for i := range f {
		if i == 0 {
			f[i] = 25
		} else {
			f[i] = 10
		}
	}
	return f
}

// Estimator exposes the calibrated estimator (for validation tooling).
func (n *Navigator) Estimator() *estimator.Estimator { return n.est }

// BaseConfig returns the exploration base (dataset/platform/model fixed;
// the Space varies the rest).
func (n *Navigator) BaseConfig() backend.Config { return n.base }

// Explore performs Step 2: automatic guideline generation. The
// underlying estimator queries fan out across tensor.Parallelism()
// workers; the Guidelines are identical at any width.
func (n *Navigator) Explore() (*Guidelines, error) {
	ex := &dse.Explorer{
		Est:         n.est,
		Space:       n.in.Space,
		Constraints: n.in.Constraints,
		Ctx:         n.in.Ctx,
	}
	res, err := ex.Explore(n.base)
	if err != nil {
		return nil, err
	}
	g := &Guidelines{
		PerPriority: make(map[dse.Priority]dse.Point, 4),
		Pareto:      res.Pareto,
		Explored:    res.Evaluated,
		Pruned:      res.Pruned,
	}
	// Decide over the Pareto front (Fig. 4's decision maker): dominated
	// candidates can never be the right guideline.
	for _, p := range dse.Priorities() {
		pt, err := dse.Decide(res.Pareto, p)
		if err != nil {
			return nil, fmt.Errorf("core: no guideline satisfies the constraints: %w", err)
		}
		g.PerPriority[p] = pt
	}
	g.Chosen = g.PerPriority[n.in.Priority]
	return g, nil
}

// Train performs Step 3: execute a guideline configuration for real and
// return the measured performance. The run uses the Navigator's pipeline
// prefetch depth; results are bitwise-identical at any depth. When
// Input.SavePlan/LoadPlan are set, the run's epoch plan is persisted /
// replayed from disk; Input.Checkpoint/Resume snapshot and restore the
// training state (see Input).
func (n *Navigator) Train(cfg backend.Config) (*backend.Perf, error) {
	opts := backend.Options{
		Prefetch:        n.in.Prefetch,
		Ctx:             n.in.Ctx,
		CheckpointPath:  n.in.Checkpoint,
		CheckpointEvery: n.in.CheckpointEvery,
		ResumeFrom:      n.in.Resume,
		SaveModelPath:   n.in.SaveModel,
	}
	if n.in.LoadPlan != "" {
		p, err := plan.LoadFile(n.in.LoadPlan)
		if err != nil {
			return nil, fmt.Errorf("core: load plan: %w", err)
		}
		opts.Plan = p
	}
	if n.in.SavePlan != "" {
		p, err := backend.CompilePlan(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: compile plan: %w", err)
		}
		if err := plan.SaveFile(n.in.SavePlan, p); err != nil {
			return nil, fmt.Errorf("core: save plan: %w", err)
		}
		if opts.Plan == nil {
			// Replay the plan just compiled: the run never calls its
			// sampler and is guaranteed consistent with the saved artifact.
			opts.Plan = p
		}
	}
	return backend.RunWith(cfg, opts)
}

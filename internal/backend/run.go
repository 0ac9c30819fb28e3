package backend

import (
	"context"
	"fmt"
	"time"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/infer"
	"gnnavigator/internal/model"
	"gnnavigator/internal/nn"
	"gnnavigator/internal/pipeline"
	"gnnavigator/internal/plan"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/sim"
	"gnnavigator/internal/tensor"
)

// Perf is the measured performance triple Perf⟨T, Γ, Acc⟩ of §3.1, plus
// the diagnostics the estimator trains on.
type Perf struct {
	// TimeSec is the simulated epoch time T at paper scale (mean over
	// measured epochs), per Eq. 4.
	TimeSec float64
	// MemoryGB is the simulated peak device memory Γ in gigabytes (1e9).
	MemoryGB float64
	// Accuracy is the validation accuracy from real training on the
	// scaled graph.
	Accuracy float64

	// Feasible is false when Γ exceeds the device's capacity: the config
	// would OOM and its other numbers are hypothetical.
	Feasible bool

	// Diagnostics.
	HitRate float64
	// TransferredBytes is the cumulative host→device feature traffic the
	// feature plane measured on the scaled run (scaled feature width);
	// the simulator rescales it per batch into Eq. 6's t_transfer.
	TransferredBytes int64
	// HaloBytes is the cumulative device-to-device halo-exchange traffic
	// (scaled feature width): per batch, the input rows a partition's
	// destinations aggregate from another partition's vertices, once per
	// (consumer, vertex). 0 for single-device runs.
	HaloBytes int64
	// AllReduceBytes is the cumulative modeled interconnect traffic of
	// the per-step gradient all-reduce: Iterations × ⌈2(K-1)/K · |Φ| · 4⌉
	// bytes (ring schedule, |Φ| of the scaled model at 4 bytes a
	// scalar). 0 for single-device runs.
	AllReduceBytes  int64
	MeanBatchSize   float64 // mean measured |V_i| (scaled graph)
	PeakBatchSize   int
	PeakBatchEdges  int
	MeanBatchEdges  float64
	Breakdown       sim.MemoryBreakdown
	EpochTimes      []float64
	AccuracyHistory []float64 // validation accuracy after each epoch
	TimeBreakdown   sim.BatchTiming
	WallSec         float64 // actual Go wall-clock spent (informational)
	Iterations      int
}

// Options tunes how much real work Run performs; the zero value means
// "full fidelity".
type Options struct {
	// SkipTraining replaces the NN train step with sampling+cache
	// simulation only. Accuracy is reported as 0 and AccuracyHistory is
	// empty. Used by timing-only sweeps.
	SkipTraining bool
	// EvalBatch limits validation to this many vertices (0 = all).
	EvalBatch int
	// Prefetch is the minibatch pipeline depth: sampling, cache lookup
	// and feature gather for batch i+k overlap training compute for
	// batch i (internal/pipeline). <= 0 runs the inline serial loop.
	// Outputs are bitwise-identical at every depth.
	Prefetch int
	// SharePlan fetches the run's epoch plan through the single-flight
	// plan.Shared and replays it instead of sampling live — the
	// calibration fan-out's "compile once, replay everywhere" path: probes
	// differing only in cache/model knobs share one compiled plan while
	// the fan-out holds its key (plan.Hold; see PlanKeys). The
	// determinism contract makes replay bitwise-identical to live
	// sampling, so results are unchanged. Runs with cache-aware bias
	// (BiasRate > 0) silently fall back to live sampling; their access
	// stream depends on residency and cannot be replayed.
	SharePlan bool
	// Plan supplies an explicit pre-compiled epoch plan to replay
	// (gnnavigator -load-plan). It must be compatible with the run's
	// (sampler, seed, epochs, batch size, targets); incompatibility — or
	// combining it with BiasRate > 0 — is an error, not a fallback.
	Plan *plan.Plan

	// Ctx, when non-nil, cancels the run cooperatively at batch
	// granularity (including per-epoch validation): RunWith returns
	// ctx.Err() after the pipeline tears down. Deadlines time-box long
	// runs the same way.
	Ctx context.Context
	// CheckpointPath, when set, snapshots the training state (model
	// parameters, Adam moments, accuracy history, completed-epoch count)
	// to this file after every CheckpointEvery-th completed epoch,
	// atomically (tmp+rename, CRC-64 footer). Incompatible with
	// SkipTraining — a timing-only sweep has no state worth resuming.
	CheckpointPath string
	// CheckpointEvery is the snapshot cadence in epochs (<= 0 means 1,
	// i.e. after every epoch).
	CheckpointEvery int
	// ResumeFrom, when set, loads a checkpoint written by a previous run
	// of the *same* Config (fingerprint-checked) and continues from its
	// completed-epoch count. The completed epochs are fast-forwarded
	// through the full pipeline with the NN work skipped — sampling and
	// cache evolution are pure functions of the config, so residency,
	// plan position and every Perf volume counter reconstruct exactly —
	// and the restored parameters/optimizer state make the remaining
	// epochs bitwise-identical to a never-interrupted run (all Perf
	// fields except wall-clock WallSec). Incompatible with SkipTraining.
	ResumeFrom string
	// SaveModelPath, when set, writes the trained model (config +
	// parameters, GNAVMDL1 format) to this file after the run completes
	// — the artifact cmd/gnnserve loads. Atomic (tmp+rename, CRC-64
	// footer), like checkpoints. Incompatible with SkipTraining, which
	// trains nothing worth serving.
	SaveModelPath string
}

// RunWith executes cfg on the backend with explicit fidelity options
// and returns its performance.
//
// Concurrent RunWith calls are safe and deterministic — each run owns
// its sampler, cache, model, workspace and RNG chain, and the shared
// dataset/profile/baseline memoizations are locked. The Step-1
// calibration fan-out relies on this.
func RunWith(cfg Config, opts Options) (*Perf, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.SkipTraining && (opts.ResumeFrom != "" || opts.CheckpointPath != "") {
		return nil, fmt.Errorf("backend: checkpoint/resume requires training (SkipTraining is set)")
	}
	if opts.SkipTraining && opts.SaveModelPath != "" {
		return nil, fmt.Errorf("backend: saving a model requires training (SkipTraining is set)")
	}
	// Resume: the checkpoint pins the run identity and the training state;
	// everything else below reconstructs by replay.
	var ck *Checkpoint
	if opts.ResumeFrom != "" {
		var err error
		if ck, err = LoadCheckpoint(opts.ResumeFrom); err != nil {
			return nil, err
		}
		if ck.Fingerprint != cfg.Fingerprint() {
			return nil, fmt.Errorf("backend: checkpoint %s was taken under a different config", opts.ResumeFrom)
		}
		if ck.Epochs > cfg.Epochs {
			return nil, fmt.Errorf("backend: checkpoint %s holds %d completed epochs, run wants %d", opts.ResumeFrom, ck.Epochs, cfg.Epochs)
		}
		if len(ck.AccHistory) != ck.Epochs {
			return nil, fmt.Errorf("backend: checkpoint %s: %d accuracy entries for %d epochs", opts.ResumeFrom, len(ck.AccHistory), ck.Epochs)
		}
	}
	start := time.Now()
	ds, g, err := loadGraph(cfg)
	if err != nil {
		return nil, err
	}
	pr := NewPricing(cfg, ds)

	// Every run gathers through one feature plane, at every device count:
	// the direct graph source when nothing is cached, the cached source
	// otherwise.
	prec := cfg.FeaturePrecision()
	policy, capVertices := effectivePolicy(cfg, g)

	// Epoch-plan resolution: an explicit opts.Plan is replayed as given;
	// SharePlan (the calibration fan-out) and the Opt policy (which needs
	// the exact future access order) fetch the run's plan through the
	// single-flight plan.Shared. Cache-aware bias makes sampling
	// depend on residency, so biased runs always sample live: SharePlan
	// silently falls back, an explicit Plan is an error, and Opt+bias is
	// already rejected by Validate.
	var pl *plan.Plan
	if opts.Plan != nil || sharesRunPlan(cfg, opts, policy) {
		if cfg.BiasRate > 0 {
			return nil, fmt.Errorf("backend: plan replay is incompatible with cache-aware biased sampling (BiasRate %v)", cfg.BiasRate)
		}
		preSmp, _, err := buildSampler(cfg, nil)
		if err != nil {
			return nil, err
		}
		if opts.Plan != nil {
			if err := opts.Plan.CompatibleWith(preSmp, cfg.Seed, cfg.Epochs, cfg.BatchSize, true, ds.TrainIdx); err != nil {
				return nil, fmt.Errorf("backend: %w", err)
			}
			pl = opts.Plan
		} else if pl, err = plan.Shared(g, preSmp, runPlanKey(cfg, preSmp, ds.TrainIdx), ds.TrainIdx); err != nil {
			return nil, err
		}
	}

	// Admission order of the prefilled policies: Static takes g's degree
	// order; Freq pre-samples, mining the order from a compiled plan: an
	// unbiased instance of the run's own sampler compiles a salted
	// one-epoch plan (fetched through plan.Shared, so every probe of a
	// calibration fan-out that holds it reuses the same pre-sampling
	// pass), and the most frequently touched input vertices fill the
	// cache before training. The mining plan is always unbiased —
	// matching the legacy pre-sample pass, which drew without residency
	// bias even for biased runs — so it is shared across bias rates too.
	// Opt (the Belady upper bound) mines the run's own plan for the exact
	// future access order the device cache will see.
	ccfg := cache.Config{Policy: policy, Capacity: capVertices, Precision: prec}
	switch policy {
	case cache.Static:
		ccfg.Order = g.DegreeOrder()
	case cache.Freq:
		preSmp, _, err := buildSampler(cfg, nil)
		if err != nil {
			return nil, err
		}
		minePl, err := plan.Shared(g, preSmp, miningPlanKey(cfg, preSmp, ds.TrainIdx), ds.TrainIdx)
		if err != nil {
			return nil, err
		}
		ccfg.Order = minePl.CountOrder(g)
	case cache.Opt:
		if ccfg.Script, err = cache.BuildOptScript(g.NumVertices(), pl.BatchInputs(cfg.Epochs)); err != nil {
			return nil, err
		}
	}

	src, err := cache.NewSource(ccfg, g)
	if err != nil {
		return nil, err
	}

	smp, walkSteps, err := buildSampler(cfg, src)
	if err != nil {
		return nil, err
	}

	// Every batch is priced with the closed-form FLOPs count and every
	// all-reduce from the closed-form |Φ|, so a timing-only run builds no
	// model.
	var mdl *model.Model
	var opt *nn.Adam
	if !opts.SkipTraining {
		if mdl, err = model.New(pr.Model); err != nil {
			return nil, err
		}
		opt = nn.NewAdam(cfg.LR)
		if ck != nil {
			if err := restoreCheckpoint(mdl, opt, ck); err != nil {
				return nil, fmt.Errorf("backend: resume from %s: %w", opts.ResumeFrom, err)
			}
		}
	}
	shapes := make([]model.Shape, cfg.Layers)
	batchFLOPs := func(mb *sample.MiniBatch) (float64, error) {
		for l := range shapes {
			blk := &mb.Blocks[l]
			shapes[l] = model.Shape{Src: len(blk.SrcNodes), Dst: blk.DstCount, Edges: blk.NumEdges()}
		}
		return pr.FLOPs(shapes)
	}
	// A K-device run partitions the (possibly reordered) vertex set only
	// to count each batch's halo rows, at the feature plane's row width.
	var halo *haloMeter
	if k := cfg.DeviceCount(); k > 1 {
		part, err := graph.PartitionGraph(g, k, cfg.PartitionStrategy())
		if err != nil {
			return nil, fmt.Errorf("backend: %w", err)
		}
		halo = newHaloMeter(part)
	}
	haloRowBytes := prec.RowBytes(g.FeatDim)
	batchHalo := func(mb *sample.MiniBatch) (int64, error) {
		if halo == nil {
			return 0, nil
		}
		if err := faultinject.Fire(faultinject.DistHalo); err != nil {
			return 0, fmt.Errorf("backend: halo exchange: %w", err)
		}
		return halo.rows(mb) * haloRowBytes, nil
	}

	perf := &Perf{Feasible: true}
	var sumBatch, sumEdges float64
	var sumTiming sim.BatchTiming

	// The run owns one workspace arena: every forward/backward
	// intermediate is recycled after the optimizer step. The gathered
	// feature matrix lives in the pipeline's buffer ring, so the gather
	// for batch i+1 can fill one buffer while batch i trains from
	// another without the steady-state loop allocating.
	ws := tensor.NewWorkspace()
	if mdl != nil {
		mdl.SetWorkspace(ws)
	}

	// resumeEpochs is how many leading epochs are fast-forwarded: the
	// pipeline runs them in full (sampling, cache evolution, volume
	// accounting — all pure functions of cfg, so they reconstruct the
	// interrupted run's state exactly), but the NN train step and the
	// per-epoch validation are skipped; the checkpoint supplies their
	// results.
	resumeEpochs := 0
	if ck != nil {
		resumeEpochs = ck.Epochs
	}

	// The epoch loop runs on the staged pipeline engine: a sampler stage
	// and a cache-lookup+gather stage run up to opts.Prefetch batches
	// ahead of this consumer, which keeps all model state single-threaded.
	// Cache-aware biased sampling against a dynamic cache reads residency
	// that the lookup stage mutates, so those runs fuse the two producer
	// stages to preserve the serial residency sequence.
	var timings []sim.BatchTiming
	consume := func(b *pipeline.Batch) error {
		mb := b.MB
		flops, err := batchFLOPs(mb)
		if err != nil {
			return err
		}
		haloBytes, err := batchHalo(mb)
		if err != nil {
			return err
		}
		bt := pr.Batch(sim.BatchVolumes{
			SampledVertices: mb.NumVertices,
			TargetVertices:  len(b.Targets),
			InputVertices:   len(mb.InputNodes),
			MissVertices:    b.Miss,
			TransferBytes:   float64(b.TransferBytes),
			CacheUpdateOps:  b.CacheOps,
			SampledEdges:    mb.NumEdges,
			FLOPs:           flops,
			WalkSteps:       walkSteps * len(b.Targets),
			HaloBytes:       float64(haloBytes),
		}, pr.Workload(float64(mb.NumVertices)))
		timings = append(timings, bt)
		sumTiming.TSample += bt.TSample
		sumTiming.TTransfer += bt.TTransfer
		sumTiming.TReplace += bt.TReplace
		sumTiming.TCompute += bt.TCompute
		sumTiming.THalo += bt.THalo
		sumTiming.TAllReduce += bt.TAllReduce

		perf.HaloBytes += haloBytes

		sumBatch += float64(mb.NumVertices)
		sumEdges += float64(mb.NumEdges)
		perf.PeakBatchSize = max(perf.PeakBatchSize, mb.NumVertices)
		perf.PeakBatchEdges = max(perf.PeakBatchEdges, mb.NumEdges)
		perf.Iterations++

		if !opts.SkipTraining && b.Epoch >= resumeEpochs {
			if cfg.Dropout > 0 {
				// Per-batch mask stream: a pure function of (seed, epoch,
				// index), like every other random draw in the run — so a
				// resumed run's masks match the uninterrupted run's exactly.
				// The salt decorrelates the dropout chain from the sampler's.
				mdl.SeedDropout(sample.BatchSeed(cfg.Seed^dropoutSeedSalt, b.Epoch, b.Index))
			}
			logits, err := mdl.Forward(mb, b.Feats, true)
			if err != nil {
				return err
			}
			_, dLogits := nn.SoftmaxCrossEntropyWS(ws, logits, b.Labels)
			// K data-parallel replicas compute this same gradient, and
			// their average is it: the all-reduce is priced
			// (AllReduceBytes), not performed.
			mdl.Backward(dLogits)
			opt.Step(mdl.Params())
			ws.ReleaseAll()
		}
		return nil
	}
	// One inference engine for the whole run: per-epoch validation reuses
	// its sampler's frontier tables and pick scratch instead of regrowing
	// them every epoch, and shares the run's workspace arena (the engine
	// only attaches its own when the model has none). Each Accuracy call
	// is a fresh pipeline run, so the single-producer contract holds.
	var evalEng *infer.Engine
	if !opts.SkipTraining {
		if evalEng, err = infer.New(infer.Config{
			Graph: g, Model: mdl, Seed: cfg.Seed + 29, Prefetch: opts.Prefetch,
		}); err != nil {
			return nil, err
		}
	}
	ckptEvery := opts.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = 1
	}
	epochEnd := func(epoch int) error {
		perf.EpochTimes = append(perf.EpochTimes, sim.EpochTime(timings))
		timings = timings[:0]
		if opts.SkipTraining {
			return nil
		}
		if epoch < resumeEpochs {
			// Fast-forwarded epoch: the checkpoint recorded its validation
			// accuracy; re-evaluating would waste work (the restored
			// parameters are post-resume, not this epoch's).
			acc := ck.AccHistory[epoch]
			perf.AccuracyHistory = append(perf.AccuracyHistory, acc)
			perf.Accuracy = acc
			return nil
		}
		acc, err := evalEng.Accuracy(opts.Ctx, ds.ValIdx, opts.EvalBatch)
		if err != nil {
			return err
		}
		perf.AccuracyHistory = append(perf.AccuracyHistory, acc)
		perf.Accuracy = acc
		if opts.CheckpointPath != "" && ((epoch+1)%ckptEvery == 0 || epoch == cfg.Epochs-1) {
			snap := snapshotCheckpoint(cfg, mdl, opt, epoch+1, perf.AccuracyHistory)
			if err := SaveCheckpoint(opts.CheckpointPath, snap); err != nil {
				return err
			}
		}
		return nil
	}
	err = pipeline.Run(pipeline.Config{
		Graph:     g,
		Sampler:   smp,
		Source:    src,
		Seed:      cfg.Seed,
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Targets:   ds.TrainIdx,
		Shuffle:   true,
		Gather:    !opts.SkipTraining,
		Prefetch:  opts.Prefetch,
		Plan:      pl,
		Ctx:       opts.Ctx,
		// Keyed on the effective policy, not cfg.CachePolicy: a
		// zero-capacity cache is downgraded to None above, and a
		// prefilled (None/Static/Freq) residency never needs stage
		// fusion.
		CoupledSampler: cfg.BiasRate > 0 && policy.Dynamic(),
	}, consume, epochEnd)
	if err != nil {
		return nil, err
	}

	if opts.SaveModelPath != "" {
		if err := model.Save(opts.SaveModelPath, mdl); err != nil {
			return nil, err
		}
	}

	// Aggregate timing/volumes. The all-reduce is metered once per step,
	// timing-only and fast-forwarded steps included: it is a pure
	// function of the config.
	perf.AllReduceBytes = int64(perf.Iterations) * pr.stepWire
	n := float64(perf.Iterations)
	perf.MeanBatchSize = sumBatch / n
	perf.MeanBatchEdges = sumEdges / n
	perf.TimeBreakdown = sim.BatchTiming{
		TSample: sumTiming.TSample / n, TTransfer: sumTiming.TTransfer / n,
		TReplace: sumTiming.TReplace / n, TCompute: sumTiming.TCompute / n,
		THalo: sumTiming.THalo / n, TAllReduce: sumTiming.TAllReduce / n,
	}
	var sumEpoch float64
	for _, t := range perf.EpochTimes {
		sumEpoch += t
	}
	perf.TimeSec = sumEpoch / float64(len(perf.EpochTimes))
	perf.HitRate = src.HitRate()
	perf.TransferredBytes = src.TransferredBytes()

	// Eq. 9-10 memory at paper scale, under the peak batch's workload.
	perf.Breakdown, perf.Feasible = pr.Memory(perf.PeakBatchSize, perf.PeakBatchEdges,
		pr.Workload(float64(perf.PeakBatchSize)))
	perf.MemoryGB = perf.Breakdown.Total() / 1e9
	perf.WallSec = time.Since(start).Seconds()
	return perf, nil
}

// loadGraph loads cfg's dataset and the graph its run trains on: the
// dataset's graph, degree-relabelled when cfg.Reorder is set.
func loadGraph(cfg Config) (*dataset.Dataset, *graph.Graph, error) {
	ds, err := dataset.Load(cfg.Dataset)
	if err != nil {
		return nil, nil, err
	}
	g := ds.Graph
	if cfg.Reorder {
		if g, err = g.Relabel(g.DegreeReorderPerm()); err != nil {
			return nil, nil, fmt.Errorf("backend: reorder: %w", err)
		}
	}
	return ds, g, nil
}

// buildSampler wires the configured sampling strategy, including the
// cache-aware bias (2PGraph) when BiasRate > 0 and a residency view is
// supplied — the feature plane implements sample.Residency, so p(η)
// reads device residency through the same abstraction the gather stage
// transfers through. It returns the per-target random-walk step count
// for host-cost accounting (SAINT only).
func buildSampler(cfg Config, res sample.Residency) (sample.Sampler, int, error) {
	var bias sample.BiasFunc
	if cfg.BiasRate > 0 && res != nil {
		bias = sample.ResidencyBias(res)
	}
	switch cfg.Sampler {
	case SamplerSAGE:
		return &sample.NodeWise{
			Fanouts:      cfg.Fanouts,
			Bias:         bias,
			BiasStrength: cfg.BiasRate * 8, // weight scale for weighted draws
		}, 0, nil
	case SamplerFastGCN:
		// Per-hop budgets: fanout * batch size bounds the layer width.
		deltas := make([]int, len(cfg.Fanouts))
		for i, k := range cfg.Fanouts {
			deltas[i] = k * cfg.BatchSize / 2
		}
		return &sample.LayerWise{Deltas: deltas}, 0, nil
	case SamplerSAINT:
		return &sample.SubgraphWise{WalkLength: cfg.WalkLength, Layers: cfg.Layers},
			cfg.WalkLength, nil
	}
	return nil, 0, fmt.Errorf("backend: unknown sampler %q", cfg.Sampler)
}

// haloMeter counts a K-device batch's halo rows: for each destination
// vertex of the input-layer block, every sampled neighbor owned by a
// different partition than the destination's owner is one row that
// partition must fetch over the interconnect. Rows are deduplicated per
// (consumer, vertex) within the batch — a device fetches each remote row
// once per batch, however many of its destinations touch it.
type haloMeter struct {
	owner  []int32
	stamps [][]int32 // stamps[c][u]: the last batch in which part c fetched u
	batch  int32
}

func newHaloMeter(part *graph.Partition) *haloMeter {
	h := &haloMeter{owner: part.Owner, stamps: make([][]int32, part.K)}
	for c := range h.stamps {
		h.stamps[c] = make([]int32, len(part.Owner))
	}
	return h
}

// rows returns mb's halo row count.
func (h *haloMeter) rows(mb *sample.MiniBatch) int64 {
	h.batch++
	blk := &mb.Blocks[0]
	var rows int64
	for j := 0; j < blk.DstCount; j++ {
		c := h.owner[blk.SrcNodes[j]]
		st := h.stamps[c]
		for _, idx := range blk.Indices[blk.Offsets[j]:blk.Offsets[j+1]] {
			if u := blk.SrcNodes[idx]; h.owner[u] != c && st[u] != h.batch {
				st[u] = h.batch
				rows++
			}
		}
	}
	return rows
}

// freqSeedSalt decorrelates the Freq pre-sampling (mining) plan's RNG
// chain from the training epochs' (sample.BatchRNG over (Seed, epoch,
// batch)): the admission counts come from a statistically identical but
// independent one-epoch plan, compiled through plan.Shared and mined
// with plan.CountOrder.
const freqSeedSalt = 0x5eed

// dropoutSeedSalt decorrelates the per-batch dropout mask streams from
// the sampling chain rooted at the same (Seed, epoch, batch) triple.
const dropoutSeedSalt = 0x1d40

// effectivePolicy sizes the device cache from the float32-denominated
// byte budget (CacheRatio of the scaled graph's feature array): at the
// float32 baseline this is exactly ratio·|V| rows, at compact precisions
// the same Γ budget holds 2–4× the vertices (the ratio is
// scale-invariant; memory accounting uses the full-scale ratio). A
// budget too small for one row downgrades the policy to None.
func effectivePolicy(cfg Config, g *graph.Graph) (cache.Policy, int) {
	capVertices := int(cfg.FeaturePrecision().EffectiveCacheRows(cfg.CacheRatio, float64(g.NumVertices()), g.FeatDim))
	if capVertices == 0 {
		return cache.None, 0
	}
	return cfg.CachePolicy, capVertices
}

// sharesRunPlan reports whether RunWith fetches the run's own epoch plan
// through plan.Shared rather than sampling live or replaying opts.Plan.
func sharesRunPlan(cfg Config, opts Options, policy cache.Policy) bool {
	return opts.Plan == nil && (opts.SharePlan || policy == cache.Opt) && cfg.BiasRate == 0
}

// runPlanKey is the plan key of cfg's training stream under the
// unbiased sampler smp.
func runPlanKey(cfg Config, smp sample.Sampler, targets []int32) plan.Key {
	return plan.KeyFor(cfg.Dataset, cfg.Reorder, smp, cfg.BatchSize, cfg.Seed, cfg.Epochs, true, targets)
}

// miningPlanKey is the salted one-epoch plan key the Freq policy mines
// its admission order from.
func miningPlanKey(cfg Config, smp sample.Sampler, targets []int32) plan.Key {
	return plan.KeyFor(cfg.Dataset, cfg.Reorder, smp, cfg.BatchSize, cfg.Seed+freqSeedSalt, 1, true, targets)
}

// PlanKeys resolves, without running anything, what RunWith(cfg, opts)
// will fetch through plan.Shared: the run's own plan key when it
// replays a shared plan, and the mining key when its effective policy is
// Freq. core is the run's plan key with Epochs zeroed — its sampling
// core, shared by every probe that samples the same stream whatever its
// epoch count, cache or bias. A sweep holds the keys (plan.Hold) for
// exactly the runs that need them.
func PlanKeys(cfg Config, opts Options) (core plan.Key, shared []plan.Key, err error) {
	if err := cfg.Validate(); err != nil {
		return plan.Key{}, nil, err
	}
	ds, err := dataset.Load(cfg.Dataset)
	if err != nil {
		return plan.Key{}, nil, err
	}
	smp, _, err := buildSampler(cfg, nil)
	if err != nil {
		return plan.Key{}, nil, err
	}
	policy, _ := effectivePolicy(cfg, ds.Graph)
	core = runPlanKey(cfg, smp, ds.TrainIdx)
	if sharesRunPlan(cfg, opts, policy) {
		shared = append(shared, core)
	}
	if policy == cache.Freq {
		shared = append(shared, miningPlanKey(cfg, smp, ds.TrainIdx))
	}
	core.Epochs = 0
	return core, shared, nil
}

// CompilePlan compiles (through plan.Shared, so a held key is reused) the
// epoch plan cfg's training run follows — the artifact `gnnavigator
// -save-plan` persists and `-load-plan` feeds back through Options.Plan.
// Requires unbiased sampling: a cache-aware bias makes the sampling
// depend on residency, which a pre-compiled plan cannot reflect.
func CompilePlan(cfg Config) (*plan.Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BiasRate > 0 {
		return nil, fmt.Errorf("backend: cannot compile a plan for cache-aware biased sampling (BiasRate %v)", cfg.BiasRate)
	}
	ds, g, err := loadGraph(cfg)
	if err != nil {
		return nil, err
	}
	preSmp, _, err := buildSampler(cfg, nil)
	if err != nil {
		return nil, err
	}
	return plan.Shared(g, preSmp, runPlanKey(cfg, preSmp, ds.TrainIdx), ds.TrainIdx)
}

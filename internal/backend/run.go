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
	// Outputs are bitwise-identical at every depth. Per-epoch validation
	// always runs inline.
	Prefetch int
	// Plans, when non-nil, is the plan cache the run fetches its epoch
	// plan through and keeps what it compiles in: the calibration
	// fan-out's "compile once, replay everywhere" path, where probes
	// differing only in cache/model knobs replay the plan the first one
	// compiled. The determinism contract makes replay bitwise-identical
	// to live sampling, so results are unchanged. Runs with cache-aware
	// bias (BiasRate > 0) silently fall back to live sampling; their
	// access stream depends on residency and cannot be replayed. The Freq
	// and Opt policies fetch their plans through Plans too, which
	// compiles them afresh when it is nil.
	Plans plan.Cache
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
	// completed-epoch count, bitwise-identical to a never-interrupted run
	// in every Perf field but WallSec (see trainer). Incompatible with
	// SkipTraining.
	ResumeFrom string
	// SaveModelPath, when set, writes the trained model (config +
	// parameters, GNAVMDL1 format) to this file after the run completes
	// — the artifact cmd/gnnserve loads. Atomic (tmp+rename, CRC-64
	// footer), like checkpoints. Incompatible with SkipTraining, which
	// trains nothing worth serving.
	SaveModelPath string
}

// RunWith executes cfg on the backend with explicit fidelity options
// and returns its performance: it builds the run (newRun), drives it
// through its epochs and assembles the Perf from what it metered.
//
// Concurrent RunWith calls are safe and deterministic — each run owns
// its sampler, cache, model, workspace and RNG chain, and the shared
// dataset/profile/baseline memoizations are locked. The Step-1
// calibration fan-out relies on this.
func RunWith(cfg Config, opts Options) (*Perf, error) {
	start := time.Now()
	r, err := newRun(cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := r.epochs(); err != nil {
		return nil, err
	}
	perf := r.meter.perf(r.src)
	if r.tr != nil {
		perf.AccuracyHistory = r.tr.history
		perf.Accuracy = r.tr.history[len(r.tr.history)-1]
	}
	perf.WallSec = time.Since(start).Seconds()
	return perf, nil
}

// run is one execution of a config. resolve decides it: validated
// config and options, graph, the unbiased sampler its plans compile
// with, the effective cache policy and the plan keys it fetches. newRun
// builds the rest: the plan it replays (nil when it samples live), the
// feature plane, the sampler the pipeline draws from, the meter and the
// trainer, which is nil for a timing-only run.
type run struct {
	cfg  Config
	opts Options
	ds   *dataset.Dataset
	g    *graph.Graph
	// trainIdx and valIdx are the dataset's splits in g's vertex ids:
	// the dataset's own slices, or their images under a reorder.
	trainIdx, valIdx []int32
	smp              sample.Sampler
	walkSteps        int
	// plane is the feature plane's cache config before newRun adds the
	// admission order or eviction script. runKey keys the run's own
	// training stream; the run fetches it through opts.Plans when
	// sharesRun is set. mineKey keys the salted one-epoch plan the Freq
	// policy mines its admission order from.
	plane           cache.Config
	runKey, mineKey plan.Key
	sharesRun       bool

	pl    *plan.Plan
	src   cache.FeatureSource
	live  sample.Sampler
	meter meter
	tr    *trainer
}

// resolve decides cfg's run. RunWith, SamplingCore and CompilePlan all
// start here.
//
// Epoch-plan resolution: an explicit opts.Plan is replayed as given; a
// non-nil opts.Plans (the calibration fan-out) and the Opt policy (which
// needs the exact future access order) fetch the run's plan through
// opts.Plans. Cache-aware bias makes sampling depend on residency, so
// biased runs always sample live: a Plans cache is silently not used
// for the run's plan, an explicit Plan is an error, and Opt+bias is
// already rejected by Validate. The Freq mining plan is always
// unbiased, so it is shared across bias rates too.
func resolve(cfg Config, opts Options) (*run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.SkipTraining && (opts.ResumeFrom != "" || opts.CheckpointPath != "" || opts.SaveModelPath != "") {
		return nil, fmt.Errorf("backend: checkpoint, resume and model saving require training (SkipTraining is set)")
	}
	ds, err := dataset.Load(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, opts: opts, ds: ds, g: ds.Graph, trainIdx: ds.TrainIdx, valIdx: ds.ValIdx}
	if cfg.Reorder {
		perm := r.g.DegreeReorderPerm()
		if r.g, err = r.g.Relabel(perm); err != nil {
			return nil, fmt.Errorf("backend: reorder: %w", err)
		}
		r.trainIdx, r.valIdx = relabelIDs(perm, ds.TrainIdx), relabelIDs(perm, ds.ValIdx)
	}
	if r.smp, r.walkSteps, err = buildSampler(cfg, nil); err != nil {
		return nil, err
	}
	if opts.Plan != nil {
		if cfg.BiasRate > 0 {
			return nil, fmt.Errorf("backend: plan replay is incompatible with cache-aware biased sampling (BiasRate %v)", cfg.BiasRate)
		}
		if err := opts.Plan.CompatibleWith(r.smp, cfg.Seed, cfg.Epochs, cfg.BatchSize, true, r.trainIdx); err != nil {
			return nil, fmt.Errorf("backend: %w", err)
		}
	}
	// The device cache is sized from the float32-denominated byte budget
	// (CacheRatio of the scaled graph's feature array): ratio·|V| rows at
	// float32, 2–4× as many at compact precisions. A budget too small for
	// one row downgrades the policy to None.
	prec := cfg.FeaturePrecision()
	r.plane = cache.Config{Policy: cfg.CachePolicy, Precision: prec,
		Capacity: int(prec.EffectiveCacheRows(cfg.CacheRatio, float64(r.g.NumVertices()), r.g.FeatDim))}
	if r.plane.Capacity == 0 {
		r.plane.Policy = cache.None
	}
	r.runKey = plan.KeyFor(cfg.Dataset, cfg.Reorder, r.smp, cfg.BatchSize, cfg.Seed, cfg.Epochs, true, r.trainIdx)
	r.sharesRun = opts.Plan == nil && (opts.Plans != nil || r.plane.Policy == cache.Opt) && cfg.BiasRate == 0
	if r.plane.Policy == cache.Freq {
		r.mineKey = r.runKey
		r.mineKey.Seed, r.mineKey.Epochs = cfg.Seed+freqSeedSalt, 1
	}
	return r, nil
}

// SamplingCore resolves, without running anything, cfg's sampling
// core: the run's plan key with Epochs zeroed, shared by every probe
// that samples the same stream whatever its epoch count, cache or bias.
func SamplingCore(cfg Config, opts Options) (plan.Key, error) {
	r, err := resolve(cfg, opts)
	if err != nil {
		return plan.Key{}, err
	}
	core := r.runKey
	core.Epochs = 0
	return core, nil
}

// CompilePlan compiles the epoch plan cfg's training run follows — the
// artifact `gnnavigator -save-plan` persists and `-load-plan` feeds back
// through Options.Plan. Requires unbiased sampling: a cache-aware bias
// makes the sampling depend on residency, which a pre-compiled plan
// cannot reflect.
func CompilePlan(cfg Config) (*plan.Plan, error) {
	r, err := resolve(cfg, Options{})
	if err != nil {
		return nil, err
	}
	if cfg.BiasRate > 0 {
		return nil, fmt.Errorf("backend: cannot compile a plan for cache-aware biased sampling (BiasRate %v)", cfg.BiasRate)
	}
	return plan.Compile(r.g, r.smp, r.runKey, r.trainIdx)
}

// newRun resolves cfg and builds its run. Every run gathers through one
// feature plane, at every device count: the direct graph source when
// nothing is cached, the cached source otherwise.
func newRun(cfg Config, opts Options) (*run, error) {
	r, err := resolve(cfg, opts)
	if err != nil {
		return nil, err
	}
	r.pl, r.live = opts.Plan, r.smp
	if r.sharesRun {
		if r.pl, err = opts.Plans.Get(r.g, r.smp, r.runKey, r.trainIdx); err != nil {
			return nil, err
		}
	}

	// Admission order of the prefilled policies: Static takes g's degree
	// order; Freq pre-samples, mining the order from the salted one-epoch
	// plan (fetched through opts.Plans, so every probe of a calibration
	// core reuses the same pre-sampling pass): the most frequently
	// touched input vertices fill the cache before training.
	// Opt (the Belady upper bound) mines the run's own plan for the exact
	// future access order the device cache will see.
	ccfg := r.plane
	switch ccfg.Policy {
	case cache.Static:
		ccfg.Order = r.g.DegreeOrder()
	case cache.Freq:
		minePl, err := opts.Plans.Get(r.g, r.smp, r.mineKey, r.trainIdx)
		if err != nil {
			return nil, err
		}
		ccfg.Order = minePl.CountOrder(r.g)
	case cache.Opt:
		if ccfg.Script, err = cache.BuildOptScript(r.g.NumVertices(), r.pl.BatchInputs(cfg.Epochs)); err != nil {
			return nil, err
		}
	}
	if r.src, err = cache.NewSource(ccfg, r.g); err != nil {
		return nil, err
	}
	// Cache-aware bias reads the feature plane's residency, so only a
	// biased run needs a sampler of its own.
	if cfg.BiasRate > 0 {
		if r.live, _, err = buildSampler(cfg, r.src); err != nil {
			return nil, err
		}
	}

	pr := NewPricing(cfg, r.ds)
	r.meter = meter{pr: pr, walkSteps: r.walkSteps, shapes: make([]model.Shape, cfg.Layers)}
	// A K-device run partitions the (possibly reordered) vertex set only
	// to count each batch's halo rows, at the feature plane's row width.
	if k := cfg.DeviceCount(); k > 1 {
		part, err := graph.PartitionGraph(r.g, k, cfg.PartitionStrategy())
		if err != nil {
			return nil, fmt.Errorf("backend: %w", err)
		}
		r.meter.halo = newHaloMeter(part, r.plane.Precision.RowBytes(r.g.FeatDim))
	}
	if !opts.SkipTraining {
		if r.tr, err = newTrainer(cfg, opts, pr.Model, r.g, r.valIdx); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// epochs runs the epoch loop through pipeline.Run: at opts.Prefetch > 0
// one producer goroutine samples, updates the cache and gathers up to
// opts.Prefetch+1 batches ahead of the consumer, which meters each batch
// and then trains on it, so all model state stays single-threaded.
func (r *run) epochs() error {
	return pipeline.Run(pipeline.Config{
		Graph:     r.g,
		Sampler:   r.live,
		Source:    r.src,
		Seed:      r.cfg.Seed,
		Epochs:    r.cfg.Epochs,
		BatchSize: r.cfg.BatchSize,
		Targets:   r.trainIdx,
		Shuffle:   true,
		Gather:    r.tr != nil,
		Prefetch:  r.opts.Prefetch,
		Plan:      r.pl,
		Ctx:       r.opts.Ctx,
	}, func(b *pipeline.Batch) error {
		if err := r.meter.batch(b); err != nil || r.tr == nil {
			return err
		}
		return r.tr.step(b)
	}, func(epoch int) error {
		if r.meter.epochEnd(); r.tr == nil {
			return nil
		}
		return r.tr.epochEnd(epoch)
	})
}

// meter prices a run batch by batch and accumulates the volumes its Perf
// reports. It reads only the batch and Pricing (closed-form FLOPs and
// |Φ|), so a timing-only run meters exactly what the trained run does.
type meter struct {
	pr        Pricing
	walkSteps int
	shapes    []model.Shape
	halo      *haloMeter // nil on one device
	// vols holds the volume fields of the Perf, with MeanBatchSize,
	// MeanBatchEdges and TimeBreakdown summed until perf averages them.
	vols  Perf
	epoch []sim.BatchTiming // the current epoch's batches
}

// batch prices one batch and adds its volumes.
func (m *meter) batch(b *pipeline.Batch) error {
	mb := b.MB
	for l := range m.shapes {
		blk := &mb.Blocks[l]
		m.shapes[l] = model.Shape{Src: len(blk.SrcNodes), Dst: blk.DstCount, Edges: blk.NumEdges()}
	}
	flops, err := m.pr.FLOPs(m.shapes)
	if err != nil {
		return err
	}
	var haloBytes int64
	if m.halo != nil {
		if err := faultinject.Fire(faultinject.DistHalo); err != nil {
			return fmt.Errorf("backend: halo exchange: %w", err)
		}
		haloBytes = m.halo.rows(mb) * m.halo.rowBytes
	}
	bt := m.pr.Batch(sim.BatchVolumes{
		SampledVertices: mb.NumVertices,
		TargetVertices:  len(b.Targets),
		InputVertices:   len(mb.InputNodes),
		MissVertices:    b.Miss,
		TransferBytes:   float64(b.TransferBytes),
		CacheUpdateOps:  b.CacheOps,
		SampledEdges:    mb.NumEdges,
		FLOPs:           flops,
		WalkSteps:       m.walkSteps * len(b.Targets),
		HaloBytes:       float64(haloBytes),
	}, m.pr.Workload(float64(mb.NumVertices)))
	m.epoch = append(m.epoch, bt)
	p := &m.vols
	sum := &p.TimeBreakdown
	sum.TSample += bt.TSample
	sum.TTransfer += bt.TTransfer
	sum.TReplace += bt.TReplace
	sum.TCompute += bt.TCompute
	sum.THalo += bt.THalo
	sum.TAllReduce += bt.TAllReduce
	p.HaloBytes += haloBytes
	p.MeanBatchSize += float64(mb.NumVertices)
	p.MeanBatchEdges += float64(mb.NumEdges)
	p.PeakBatchSize = max(p.PeakBatchSize, mb.NumVertices)
	p.PeakBatchEdges = max(p.PeakBatchEdges, mb.NumEdges)
	p.Iterations++
	return nil
}

// epochEnd closes an epoch: Eq. 4's epoch time over its batches.
func (m *meter) epochEnd() {
	m.vols.EpochTimes = append(m.vols.EpochTimes, sim.EpochTime(m.epoch))
	m.epoch = m.epoch[:0]
}

// perf assembles the run's Perf from the meter, the feature plane's
// counters and Pricing. The all-reduce is metered once per step,
// timing-only and fast-forwarded steps included: it is a pure function
// of the config.
func (m *meter) perf(src cache.FeatureSource) *Perf {
	p := m.vols
	n := float64(p.Iterations)
	tb := &p.TimeBreakdown
	tb.TSample, tb.TTransfer, tb.TReplace = tb.TSample/n, tb.TTransfer/n, tb.TReplace/n
	tb.TCompute, tb.THalo, tb.TAllReduce = tb.TCompute/n, tb.THalo/n, tb.TAllReduce/n
	p.MeanBatchSize /= n
	p.MeanBatchEdges /= n
	p.AllReduceBytes = int64(p.Iterations) * m.pr.stepWire
	var sumEpoch float64
	for _, t := range p.EpochTimes {
		sumEpoch += t
	}
	p.TimeSec = sumEpoch / float64(len(p.EpochTimes))
	p.HitRate = src.HitRate()
	p.TransferredBytes = src.TransferredBytes()

	// Eq. 9-10 memory at paper scale, under the peak batch's workload.
	p.Breakdown, p.Feasible = m.pr.Memory(p.PeakBatchSize, p.PeakBatchEdges,
		m.pr.Workload(float64(p.PeakBatchSize)))
	p.MemoryGB = p.Breakdown.Total() / 1e9
	return &p
}

// trainer is a run's NN half: model, Adam, workspace arena, evaluation
// engine, checkpoint cadence and save path. A resumed trainer sits out
// the epochs its checkpoint holds: the pipeline still runs them, so
// residency and every volume (pure functions of the config) reconstruct
// exactly, while step and validation skip them.
type trainer struct {
	cfg     Config
	opts    Options
	valIdx  []int32
	mdl     *model.Model
	opt     *nn.Adam
	ws      *tensor.Workspace
	eval    *infer.Engine
	resumed int       // leading epochs the checkpoint holds
	history []float64 // validation accuracy per completed epoch
}

func newTrainer(cfg Config, opts Options, mc model.Config, g *graph.Graph, valIdx []int32) (*trainer, error) {
	mdl, err := model.New(mc)
	if err != nil {
		return nil, err
	}
	t := &trainer{cfg: cfg, opts: opts, valIdx: valIdx, mdl: mdl, opt: nn.NewAdam(cfg.LR), ws: tensor.NewWorkspace()}
	if opts.ResumeFrom != "" {
		if err := t.resume(opts.ResumeFrom); err != nil {
			return nil, err
		}
	}
	// The run owns one workspace arena: every forward/backward
	// intermediate is recycled after the optimizer step. The gathered
	// feature matrix lives in the pipeline's buffer ring, so the gather
	// for batch i+1 can fill one buffer while batch i trains from
	// another without the steady-state loop allocating.
	mdl.SetWorkspace(t.ws)
	// One inference engine for the whole run: per-epoch validation reuses
	// its sampler's frontier tables and pick scratch instead of regrowing
	// them every epoch, and shares the run's workspace arena (the engine
	// only attaches its own when the model has none). Each Accuracy call
	// is a fresh pipeline run, so the single-producer contract holds.
	t.eval, err = infer.New(infer.Config{Graph: g, Model: mdl, Seed: cfg.Seed + 29})
	return t, err
}

// step trains on one batch.
func (t *trainer) step(b *pipeline.Batch) error {
	if b.Epoch < t.resumed {
		return nil
	}
	if t.cfg.Dropout > 0 {
		// Per-batch mask stream: a pure function of (seed, epoch, index),
		// like every other random draw in the run — so a resumed run's
		// masks match the uninterrupted run's exactly. The salt
		// decorrelates the dropout chain from the sampler's.
		t.mdl.SeedDropout(sample.BatchSeed(t.cfg.Seed^dropoutSeedSalt, b.Epoch, b.Index))
	}
	logits, err := t.mdl.Forward(b.MB, b.Feats, true)
	if err != nil {
		return err
	}
	_, dLogits := nn.SoftmaxCrossEntropyWS(t.ws, logits, b.Labels)
	// K data-parallel replicas compute this same gradient, and their
	// average is it: the all-reduce is priced (AllReduceBytes), not
	// performed.
	t.mdl.Backward(dLogits)
	t.opt.Step(t.mdl.Params())
	t.ws.ReleaseAll()
	return nil
}

// epochEnd validates after a trained epoch, snapshots on the checkpoint
// cadence (CheckpointEvery <= 0 means every epoch) and, after the last
// epoch, saves the model.
func (t *trainer) epochEnd(epoch int) error {
	last := epoch == t.cfg.Epochs-1
	if epoch >= t.resumed {
		acc, err := t.eval.Accuracy(t.opts.Ctx, t.valIdx, t.opts.EvalBatch)
		if err != nil {
			return err
		}
		t.history = append(t.history, acc)
		if t.opts.CheckpointPath != "" && (last || (epoch+1)%max(t.opts.CheckpointEvery, 1) == 0) {
			if err := SaveCheckpoint(t.opts.CheckpointPath, t.snapshot(epoch+1)); err != nil {
				return err
			}
		}
	}
	if last && t.opts.SaveModelPath != "" {
		return model.Save(t.opts.SaveModelPath, t.mdl)
	}
	return nil
}

// buildSampler wires the configured sampling strategy, including the
// cache-aware bias (2PGraph) when BiasRate > 0 and a residency view is
// supplied — the feature plane implements sample.Residency, so p(η)
// reads device residency through the same abstraction the gather step
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
	rowBytes int64 // one row at the feature plane's width
	owner    []int32
	stamps   [][]int32 // stamps[c][u]: the last batch in which part c fetched u
	batch    int32
}

func newHaloMeter(part *graph.Partition, rowBytes int64) *haloMeter {
	h := &haloMeter{rowBytes: rowBytes, owner: part.Owner, stamps: make([][]int32, part.K)}
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

// relabelIDs maps ids through perm (perm[old] = new), keeping their order.
func relabelIDs(perm, ids []int32) []int32 {
	out := make([]int32, len(ids))
	for i, v := range ids {
		out[i] = perm[v]
	}
	return out
}

// freqSeedSalt decorrelates the Freq pre-sampling (mining) plan's RNG
// chain from the training epochs' (sample.BatchRNG over (Seed, epoch,
// batch)): the admission counts come from a statistically identical but
// independent one-epoch plan, fetched through Options.Plans and mined
// with Plan.CountOrder.
const freqSeedSalt = 0x5eed

// dropoutSeedSalt decorrelates the per-batch dropout mask streams from
// the sampling chain rooted at the same (Seed, epoch, batch) triple.
const dropoutSeedSalt = 0x1d40

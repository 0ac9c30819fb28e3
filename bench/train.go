package main

import (
	"context"
	"math"
	"path/filepath"
	"time"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/infer"
	"gnnavigator/internal/model"
	"gnnavigator/internal/nn"
	"gnnavigator/internal/pipeline"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// trainEpochs sizes the train workload: about 5 s on the 2-core
// reference host (validation after every epoch included, as the user
// pays it).
const trainEpochs = 10

// dropoutSeedSalt repeats backend's private salt for the per-batch
// dropout streams, so the ladder below runs the same program RunWith
// does; the bitwise parameter check fails if the two ever drift.
const dropoutSeedSalt = 0x1d40

func trainConfig(seed int64) (backend.Config, error) {
	cfg, err := backend.FromTemplate(backend.TemplatePyG, dataset.Reddit, model.SAGE, benchPlatform)
	cfg.CachePolicy, cfg.CacheRatio = cache.LRU, 0.2
	cfg.Epochs, cfg.Seed = trainEpochs, seed
	return cfg, err
}

func (c *child) train() {
	cfg, err := trainConfig(c.seed)
	if err != nil {
		c.fail("train config: %v", err)
		return
	}
	ds := dataset.MustLoad(cfg.Dataset)
	c.res.Attempted = 1
	c.ready()
	if c.traced {
		c.trainTraced(cfg, ds)
		return
	}
	perf, err := backend.RunWith(cfg, backend.Options{})
	wall := time.Since(c.start)
	if err != nil {
		c.res.Failed = 1
		c.fail("RunWith: %v", err)
		return
	}
	c.finish(wall, float64(cfg.Epochs*len(ds.TrainIdx)), float64(perf.Iterations))
	c.oneOp(wall)
	c.set("backend.run_s", wall.Seconds())
	c.set("backend.val_accuracy", perf.Accuracy)
	c.checkTraining(cfg, ds, perf)
	c.res.Digest = digestOf(perf.AccuracyHistory)
}

func (c *child) checkTraining(cfg backend.Config, ds *dataset.Dataset, perf *backend.Perf) {
	perEpoch := (len(ds.TrainIdx) + cfg.BatchSize - 1) / cfg.BatchSize
	if perf.Iterations != cfg.Epochs*perEpoch {
		c.fail("%d iterations, want %d epochs x %d batches", perf.Iterations, cfg.Epochs, perEpoch)
	}
	if floor := 2 / float64(ds.Graph.NumClasses); perf.Accuracy <= floor {
		c.fail("final validation accuracy %.4f is not above %.2f", perf.Accuracy, floor)
	}
}

// trainTraced re-walks the training run from the public calls
// backend.RunWith is made of — an inline pipeline whose consumer calls
// Forward, the loss, Backward and the optimizer, with validation after
// each epoch — one span per call. The walk must end with bitwise the
// parameters RunWith ends with, so the ladder times the same program.
func (c *child) trainTraced(cfg backend.Config, ds *dataset.Dataset) {
	g := ds.Graph
	root := c.tr.begin("train", -1)
	span := func(name string, f func()) {
		id := c.tr.begin(name, root)
		f()
		c.tr.end(id)
	}

	var dev *cache.Cache
	var src cache.FeatureSource
	var err error
	build := timeIt(func() { dev, src, err = featurePlane(cfg, g) })
	if err != nil {
		c.fail("cache: %v", err)
		return
	}
	c.set("cache.build_ms", build.Seconds()*1e3)
	smp := &tracedSampler{Sampler: &sample.NodeWise{Fanouts: cfg.Fanouts}, tr: c.tr, parent: root}
	mdl, err := model.New(model.Config{
		Kind: cfg.Model, InDim: g.FeatDim, Hidden: cfg.Hidden, OutDim: g.NumClasses,
		Layers: cfg.Layers, Heads: cfg.Heads, Dropout: cfg.Dropout, Seed: cfg.Seed + 7,
	})
	if err != nil {
		c.fail("model: %v", err)
		return
	}
	opt := nn.NewAdam(cfg.LR)
	ws := tensor.NewWorkspace()
	mdl.SetWorkspace(ws)
	eng, err := infer.New(infer.Config{Graph: g, Model: mdl, Seed: cfg.Seed + 29})
	if err != nil {
		c.fail("infer: %v", err)
		return
	}

	var history []float64
	var flops float64
	var inputs [][]int32 // input-node sets of the first epoch, for the cache layer below
	batches := 0
	err = pipeline.Run(pipeline.Config{
		Graph: g, Sampler: smp, Source: &tracedSource{src, c.tr, root},
		Seed: cfg.Seed, Epochs: cfg.Epochs, BatchSize: cfg.BatchSize,
		Targets: ds.TrainIdx, Shuffle: true, Gather: true,
	}, func(b *pipeline.Batch) error {
		var logits, dLogits *tensor.Dense
		var ferr error
		if cfg.Dropout > 0 {
			mdl.SeedDropout(sample.BatchSeed(cfg.Seed^dropoutSeedSalt, b.Epoch, b.Index))
		}
		span("model.Forward", func() { logits, ferr = mdl.Forward(b.MB, b.Feats, true) })
		if ferr != nil {
			return ferr
		}
		span("nn.SoftmaxCrossEntropyWS", func() { _, dLogits = nn.SoftmaxCrossEntropyWS(ws, logits, b.Labels) })
		span("model.Backward", func() { mdl.Backward(dLogits) })
		span("nn.Adam.Step", func() { opt.Step(mdl.Params()) })
		ws.ReleaseAll()
		flops += mdl.FLOPs(b.MB)
		if b.Epoch == 0 {
			inputs = append(inputs, append([]int32(nil), b.MB.InputNodes...))
		}
		batches++
		return nil
	}, func(int) error {
		var acc float64
		var aerr error
		span("infer.Engine.Accuracy", func() { acc, aerr = eng.Accuracy(context.Background(), ds.ValIdx, 0) })
		history = append(history, acc)
		return aerr
	})
	c.tr.end(root)
	ladderWall := time.Since(c.start)
	if err != nil {
		c.res.Failed = 1
		c.fail("ladder: %v", err)
		return
	}
	c.set("_traced_ops_per_s", float64(cfg.Epochs*len(ds.TrainIdx))/ladderWall.Seconds())
	c.res.Digest = digestOf(history)

	dur, self := byName(c.tr.spans)
	var ladder float64
	for name, v := range self {
		if name != "train" {
			ladder += sum(v)
		}
	}
	c.set("backend.ladder_sum_s", ladder)
	c.set("backend.iterations", float64(batches))
	c.set("model.forward_ms_p50", p50(dur["model.Forward"])*1e3)
	c.set("model.backward_ms_p50", p50(dur["model.Backward"])*1e3)
	c.set("nn.loss_ms_p50", p50(dur["nn.SoftmaxCrossEntropyWS"])*1e3)
	c.set("nn.opt_step_ms_p50", p50(dur["nn.Adam.Step"])*1e3)
	c.set("cache.gather_ms_p50", p50(dur["cache.GatherInto"])*1e3)
	c.set("infer.accuracy_s", sum(dur["infer.Engine.Accuracy"])/float64(cfg.Epochs))
	c.set("model.flops_per_batch", flops/float64(batches))
	c.set("model.forward_gflops", flops/float64(batches)/p50(dur["model.Forward"])/1e9)
	c.sampleMetrics(smp, dur, ladderWall)
	c.cacheMetrics(dev, src)
	c.note("train ladder: %.3f s in the layers' calls, %.3f s between them (batch planning, label gather, glue) in a %.3f s walk",
		ladder, sum(self["train"]), ladderWall.Seconds())

	// Same program? RunWith at prefetch 2 (bitwise-identical to inline
	// by the determinism contract) saves its model; compare to the walk.
	path := filepath.Join(c.outDir, "train-model.gnav")
	var perf *backend.Perf
	prefetch2 := timeIt(func() { perf, err = backend.RunWith(cfg, backend.Options{Prefetch: 2, SaveModelPath: path}) })
	if err != nil {
		c.res.Failed = 1
		c.fail("RunWith(prefetch 2): %v", err)
		return
	}
	c.set("backend.prefetch2_run_s", prefetch2.Seconds())
	c.checkTraining(cfg, ds, perf)
	if ref, err := model.Load(path); err != nil {
		c.fail("load RunWith's model: %v", err)
	} else if !sameParams(ref.Params(), mdl.Params()) {
		c.fail("the ladder's parameters differ from backend.RunWith's: it is not timing the same program")
	}
	if digestOf(perf.AccuracyHistory) != c.res.Digest {
		c.fail("the ladder's accuracy history differs from backend.RunWith's")
	}

	// The host side alone: the same pipeline with nothing to consume
	// the batches, on a fresh cache.
	if _, fresh, err := featurePlane(cfg, g); err != nil {
		c.fail("cache: %v", err)
	} else {
		c.hostPipeline(cfg, ds, &sample.NodeWise{Fanouts: cfg.Fanouts}, fresh, true)
	}

	// The feature plane's timing-only path on the recorded input sets.
	if _, fresh, err := featurePlane(cfg, g); err != nil {
		c.fail("cache: %v", err)
	} else {
		var us []float64
		for _, nodes := range inputs {
			us = append(us, timeIt(func() { fresh.Access(nodes) }).Seconds()*1e6)
		}
		c.set("cache.access_us_p50", p50(us))
	}

	// Kernels at this workload's dominant shapes: the first layer sees
	// every input vertex of a batch at the feature width.
	rows := int(float64(smp.vertices) / float64(smp.batches))
	idx := make([]int32, int(float64(smp.edges)/float64(smp.batches)/float64(cfg.Layers)))
	for i := range idx {
		idx[i] = int32((i * 7919) % rows)
	}
	c.kernelMetrics(rows, g.FeatDim, cfg.Hidden, idx)
}

func sameParams(a, b []*nn.Param) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Value.Data) != len(b[i].Value.Data) {
			return false
		}
		for j, x := range a[i].Value.Data {
			if math.Float64bits(x) != math.Float64bits(b[i].Value.Data[j]) {
				return false
			}
		}
	}
	return true
}

// hostPipeline runs cfg's sampling and feature-plane stages inline with
// a consumer that does nothing, and reports what the host side costs on
// its own. gather selects the training path (rows are copied) or the
// timing-only path (rows are only accounted).
func (c *child) hostPipeline(cfg backend.Config, ds *dataset.Dataset, smp sample.Sampler, src cache.FeatureSource, gather bool) time.Duration {
	var gaps []float64
	start := time.Now()
	last := start
	err := pipeline.Run(pipeline.Config{
		Graph: ds.Graph, Sampler: smp, Source: src,
		Seed: cfg.Seed, Epochs: cfg.Epochs, BatchSize: cfg.BatchSize,
		Targets: ds.TrainIdx, Shuffle: true, Gather: gather,
	}, func(*pipeline.Batch) error {
		now := time.Now()
		gaps = append(gaps, now.Sub(last).Seconds()*1e3)
		last = now
		return nil
	}, nil)
	host := time.Since(start)
	if err != nil {
		c.fail("host pipeline: %v", err)
		return host
	}
	sorted := sortedCopy(gaps)
	c.set("pipeline.host_s", host.Seconds())
	c.set("pipeline.host_batch_ms_p50", percentile(sorted, 50))
	c.set("pipeline.host_batch_ms_p99", c.tailOf("pipeline.host_batch_ms_p99", sorted))
	c.set("pipeline.batches", float64(len(gaps)))
	return host
}

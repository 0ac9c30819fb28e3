package main

import (
	"math"
	"time"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/core"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/dse"
	"gnnavigator/internal/estimator"
	"gnnavigator/internal/model"
)

// The navigate workload is `gnnavigator -dataset ogbn-arxiv -model sage
// -calib-samples N -epochs 1 -train` as library calls, on a target graph
// of ogbn-arxiv's shape synthesised from the workload seed.
const (
	// navCalibSamples is the smallest count whose 3 datasets x N probes
	// reach the estimator's 8-record minimum; the CLI line in the verify
	// skill uses 4, which takes half as long again.
	navCalibSamples = 3
	navEpochs       = 1
)

var navCalibDatasets = []string{dataset.OgbnProducts, dataset.Reddit, dataset.Reddit2}

func navInput(target string) core.Input {
	return core.Input{
		Dataset: target, Model: model.SAGE, Platform: benchPlatform,
		CalibDatasets: navCalibDatasets, CalibSamples: navCalibSamples,
		Epochs: navEpochs, Seed: shapeSeed,
	}
}

// perfDigestable strips the one field of a Perf that is wall clock.
func perfDigestable(p *backend.Perf) backend.Perf {
	q := *p
	q.WallSec = 0
	return q
}

// navDigest covers everything the navigator hands its user: the chosen
// and per-priority guidelines with their predictions, and what training
// the chosen one measured.
func navDigest(chosen dse.Point, perPriority map[dse.Priority]dse.Point, explored, pruned int, perf *backend.Perf) string {
	parts := []any{chosen.Cfg, chosen.Pred, explored, pruned, perfDigestable(perf)}
	for _, p := range dse.Priorities() {
		parts = append(parts, p, perPriority[p].Cfg, perPriority[p].Pred)
	}
	return digestOf(parts...)
}

func (c *child) navigate() {
	target, err := dataset.Synthesize(targetSpec(c.seed))
	if err == nil {
		err = dataset.Register(target)
	}
	if err != nil {
		c.fail("target graph: %v", err)
		return
	}
	c.res.Attempted = 1
	c.ready()
	if c.traced {
		c.navigateTraced(target)
		return
	}

	var nav *core.Navigator
	var g *core.Guidelines
	var perf *backend.Perf
	tNew := timeIt(func() { nav, err = core.New(navInput(target.Name)) })
	if err != nil {
		c.res.Failed = 1
		c.fail("core.New: %v", err)
		return
	}
	tExplore := timeIt(func() { g, err = nav.Explore() })
	if err != nil {
		c.res.Failed = 1
		c.fail("Explore: %v", err)
		return
	}
	tTrain := timeIt(func() { perf, err = nav.Train(g.Chosen.Cfg) })
	if err != nil {
		c.res.Failed = 1
		c.fail("Train: %v", err)
		return
	}
	wall := time.Since(c.start)
	c.finish(wall, 1, 1)
	c.oneOp(wall)
	c.set("core.calibrate_s", tNew.Seconds())
	c.set("core.explore_s", tExplore.Seconds())
	c.set("core.train_s", tTrain.Seconds())
	c.set("core.residual_share", 1-(tNew+tExplore+tTrain).Seconds()/wall.Seconds())
	c.note("navigate: core.New %.0f%%, Explore %.1f%%, Train %.1f%% of %.2f s; chosen %s",
		100*tNew.Seconds()/wall.Seconds(), 100*tExplore.Seconds()/wall.Seconds(),
		100*tTrain.Seconds()/wall.Seconds(), wall.Seconds(), g.Chosen.Cfg.Label())

	// Every leaf of the space is either explored or pruned.
	all, err := (&dse.Explorer{Est: nav.Estimator(), Space: dse.DefaultSpace(), DisablePruning: true}).Explore(nav.BaseConfig())
	if err != nil {
		c.fail("unpruned Explore: %v", err)
		return
	}
	if g.Explored+g.Pruned != all.Evaluated {
		c.fail("explored %d + pruned %d != %d leaves of the default space", g.Explored, g.Pruned, all.Evaluated)
	}
	c.res.Digest = navDigest(g.Chosen, g.PerPriority, g.Explored, g.Pruned, perf)

	// The paper's Fig. 5 / Table 2 claim on this run: predicted against
	// measured, for the guideline that was chosen.
	pred := g.Chosen.Pred
	c.set("estimator.fidelity_time_relerr", math.Abs(pred.TimeSec-perf.TimeSec)/perf.TimeSec)
	c.set("estimator.fidelity_mem_relerr", math.Abs(pred.MemoryGB-perf.MemoryGB)/perf.MemoryGB)
	c.set("estimator.fidelity_acc_abserr", math.Abs(pred.Accuracy-perf.Accuracy))
	c.set("backend.val_accuracy", perf.Accuracy)
}

// navigateTraced walks the same path from the constituents core.New,
// Explore and Train are made of, one span per call, and checks that it
// arrives at the same guideline.
func (c *child) navigateTraced(target *dataset.Dataset) {
	in := navInput(target.Name)
	root := c.tr.begin("navigate", -1)
	span := func(name string, f func()) time.Duration {
		id := c.tr.begin(name, root)
		defer c.tr.end(id)
		return timeIt(f)
	}
	var err error
	failed := func(what string) bool {
		if err != nil {
			c.res.Failed = 1
			c.fail("%s: %v", what, err)
		}
		return err != nil
	}

	var records []estimator.Record
	var allCfgs []backend.Config
	var collect, baseline time.Duration
	for i, name := range in.CalibDatasets {
		cfgs := estimator.ProbeConfigs(name, in.Model, in.Platform, in.CalibSamples, in.Seed+int64(i)*101)
		var recs []estimator.Record
		collect += span("estimator.CollectWith", func() { recs, err = estimator.CollectWith(cfgs, true, 0, backend.Options{}) })
		if failed("CollectWith " + name) {
			return
		}
		records = append(records, recs...)
		allCfgs = append(allCfgs, cfgs...)
	}
	for _, name := range in.CalibDatasets {
		baseline += span("estimator.BaselineAccuracy", func() { _, err = estimator.BaselineAccuracy(name, records[0].Cfg.Epochs) })
		if failed("BaselineAccuracy " + name) {
			return
		}
	}
	var est *estimator.Estimator
	fit := span("estimator.Train", func() { est, err = estimator.Train(records) })
	if failed("estimator.Train") {
		return
	}
	// core.New's exploration base (core keeps it private).
	base := backend.Config{
		Dataset: in.Dataset, Platform: in.Platform, Model: in.Model,
		Hidden: 64, Layers: 2, Heads: 2, Epochs: in.Epochs, LR: 0.01, Seed: in.Seed,
		Sampler: backend.SamplerSAGE, BatchSize: 1024, Fanouts: []int{25, 10},
		CachePolicy: cache.None,
	}
	var res *dse.Result
	explore := span("dse.Explore", func() { res, err = (&dse.Explorer{Est: est, Space: dse.DefaultSpace()}).Explore(base) })
	if failed("dse.Explore") {
		return
	}
	perPriority := map[dse.Priority]dse.Point{}
	decide := span("dse.Decide", func() {
		for _, p := range dse.Priorities() {
			if perPriority[p], err = dse.Decide(res.Pareto, p); err != nil {
				return
			}
		}
	})
	if failed("dse.Decide") {
		return
	}
	chosen := perPriority[dse.Balance]
	var perf *backend.Perf
	span("backend.RunWith", func() { perf, err = backend.RunWith(chosen.Cfg, backend.Options{}) })
	if failed("backend.RunWith") {
		return
	}
	c.tr.end(root)
	c.set("_traced_ops_per_s", 1/time.Since(c.start).Seconds())
	c.res.Digest = navDigest(chosen, perPriority, res.Evaluated, res.Pruned, perf)

	c.set("estimator.collect_s", collect.Seconds())
	c.set("estimator.baseline_s", baseline.Seconds())
	c.set("estimator.fit_s", fit.Seconds())
	c.probeMetrics(records, collect)
	c.planMetrics(allCfgs)

	c.set("dse.explore_s", explore.Seconds())
	c.set("dse.leaves", float64(res.Evaluated))
	c.set("dse.pruned", float64(res.Pruned))
	c.set("dse.leaves_per_s", float64(res.Evaluated)/explore.Seconds())
	c.set("dse.decide_us", decide.Seconds()*1e6/float64(len(dse.Priorities())))
	var pareto []float64
	for range 5 {
		pareto = append(pareto, timeIt(func() { dse.ParetoFront(res.Candidates) }).Seconds()*1e3)
	}
	c.set("dse.pareto_ms", median(pareto))
	predict := timeIt(func() {
		for _, p := range res.Candidates {
			if _, err = est.Predict(p.Cfg); err != nil {
				return
			}
		}
	})
	if failed("Predict") {
		return
	}
	c.set("estimator.predict_us", predict.Seconds()*1e6/float64(len(res.Candidates)))
	c.note("navigate: explore is %.1f%% of the traced walk: a dse micro-win is below the run-to-run noise of navigate",
		100*explore.Seconds()/time.Since(c.start).Seconds())
}

// probeMetrics reports a CollectWith fan-out from its records: how long
// the probes themselves ran against how long the fan-out took.
func (c *child) probeMetrics(records []estimator.Record, collect time.Duration) {
	var busy float64
	var iters int
	walls := make([]float64, len(records))
	for i, r := range records {
		busy += r.Perf.WallSec
		iters += r.Perf.Iterations
		walls[i] = r.Perf.WallSec * 1e3
	}
	walls = sortedCopy(walls)
	c.set("estimator.collect_probes", float64(len(records)))
	c.set("estimator.probe_busy_s", busy)
	c.set("estimator.fanout_width", busy/collect.Seconds())
	c.set("backend.probe_ms_p50", percentile(walls, 50))
	c.set("backend.probe_ms_max", walls[len(walls)-1])
	c.set("backend.iterations", float64(iters))
}

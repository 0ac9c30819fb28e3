package main

import (
	"fmt"
	"time"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/estimator"
	"gnnavigator/internal/plan"
	"gnnavigator/internal/sample"
)

// The sweep workload is the timing-only probe sweep behind fig. 1, the
// ablations and calibration augmentation: no gather, no NN, plan replay,
// many short cold runs.
const (
	sweepProbeCount = 48
	sweepEpochs     = 4
)

// planKeys counts the distinct epoch plans a probe list can need: one
// per sampling core among the unbiased probes (biased ones sample live),
// plus one pre-sampling plan per core that a freq-policy probe mines.
func planKeys(cfgs []backend.Config) int {
	keys := map[string]bool{}
	for _, cfg := range cfgs {
		core := fmt.Sprint(cfg.Sampler, cfg.BatchSize, cfg.Fanouts, cfg.WalkLength, cfg.Seed)
		if cfg.BiasRate == 0 {
			keys[fmt.Sprint("run/", core, cfg.Epochs)] = true
		}
		if cfg.CachePolicy == cache.Freq {
			keys["mine/"+core] = true
		}
	}
	return len(keys)
}

func (c *child) sweep() {
	cfgs := sweepProbes(c.seed, sweepProbeCount, sweepEpochs)
	c.res.Attempted = len(cfgs)
	c.ready()

	root := c.tr.begin("sweep", -1)
	id := c.tr.begin("estimator.CollectWith", root)
	records, err := estimator.CollectWith(cfgs, false, 0)
	c.tr.end(id)
	c.tr.end(root)
	wall := time.Since(c.start)
	if err != nil {
		// CollectWith stops at the first probe that fails after its
		// retries: the sweep delivered nothing.
		c.res.Failed = len(cfgs)
		c.fail("CollectWith: %v", err)
		return
	}
	iters := 0
	digestable := make([]any, 0, len(records))
	for _, r := range records {
		iters += r.Perf.Iterations
		digestable = append(digestable, r.Cfg, perfDigestable(r.Perf))
	}
	c.res.Digest = digestOf(digestable...)
	// Plan sharing: no plan is compiled twice.
	if got, most := plan.Compiles(), planKeys(cfgs); got < 1 || got > int64(most) {
		c.fail("%d plans compiled for a probe list that needs at most %d distinct ones", got, most)
	}
	if !c.traced {
		c.finish(wall, float64(iters), float64(iters))
		c.oneOp(wall)
		return
	}

	c.set("_traced_ops_per_s", float64(iters)/wall.Seconds())
	c.set("estimator.collect_s", wall.Seconds())
	c.probeMetrics(records, wall)
	c.planMetrics(cfgs)
	c.sweepProbeLayers(cfgs, records)
}

// sweepProbeLayers re-walks one representative probe — the first
// unbiased node-wise probe over a cache that needs no admission order —
// as the timing-only pipeline RunWith drives for it, with the sampler
// and the feature plane traced.
func (c *child) sweepProbeLayers(cfgs []backend.Config, records []estimator.Record) {
	pick := -1
	for i, cfg := range cfgs {
		if cfg.Sampler == backend.SamplerSAGE && cfg.BiasRate == 0 && cfg.CacheRatio > 0 &&
			(cfg.CachePolicy == cache.Static || cfg.CachePolicy == cache.FIFO || cfg.CachePolicy == cache.LRU) {
			pick = i
			break
		}
	}
	if pick < 0 {
		c.fail("sweep: no probe to re-walk")
		return
	}
	cfg := cfgs[pick]
	ds := dataset.MustLoad(cfg.Dataset)
	var dev *cache.Cache
	var src cache.FeatureSource
	var err error
	build := timeIt(func() { dev, src, err = featurePlane(cfg, ds.Graph) })
	if err != nil {
		c.fail("cache: %v", err)
		return
	}
	c.set("cache.build_ms", build.Seconds()*1e3)

	first := len(c.tr.spans)
	smp := &tracedSampler{Sampler: &sample.NodeWise{Fanouts: cfg.Fanouts}, tr: c.tr, parent: -1}
	host := c.hostPipeline(cfg, ds, smp, &tracedSource{src, c.tr, -1}, false)
	dur, _ := byName(c.tr.spans[first:])
	c.set("cache.access_us_p50", p50(dur["cache.Access"])*1e6)
	c.sampleMetrics(smp, dur, host)
	c.cacheMetrics(dev, src)
	c.note("sweep layers: probe %d (%s) re-walked with live sampling in %.1f ms; inside the sweep it replayed a compiled plan in %.1f ms",
		pick, cfg.Label(), host.Seconds()*1e3, records[pick].Perf.WallSec*1e3)
}

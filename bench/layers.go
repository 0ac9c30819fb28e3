package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gnnavigator/internal/backend"
	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/plan"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// Tracing stays in the benchmark's own files: the layers that the
// pipeline reaches through an interface (sampler, feature plane) are
// wrapped in decorators that open a span around each call; the layers
// reached through concrete types are timed at their call sites.

// tracedSampler opens a "sample.Sample" span around every Sample call
// and counts what the batch held.
type tracedSampler struct {
	sample.Sampler
	tr     *tracer
	parent int // span the calls belong to, -1 if none

	batches, vertices, edges int
}

func (s *tracedSampler) Sample(rng *rand.Rand, g *graph.Graph, targets []int32) *sample.MiniBatch {
	id := s.tr.begin("sample.Sample", s.parent)
	mb := s.Sampler.Sample(rng, g, targets)
	s.tr.end(id)
	s.batches++
	s.vertices += mb.NumVertices
	s.edges += mb.NumEdges
	return mb
}

// tracedSource opens a span around the two calls that move rows.
type tracedSource struct {
	cache.FeatureSource
	tr     *tracer
	parent int
}

func (s *tracedSource) Access(nodes []int32) cache.BatchStats {
	id := s.tr.begin("cache.Access", s.parent)
	defer s.tr.end(id)
	return s.FeatureSource.Access(nodes)
}

func (s *tracedSource) GatherInto(dst *tensor.Dense, nodes []int32) (*tensor.Dense, cache.BatchStats) {
	id := s.tr.begin("cache.GatherInto", s.parent)
	defer s.tr.end(id)
	return s.FeatureSource.GatherInto(dst, nodes)
}

// featurePlane builds cfg's device cache over g and the feature source
// in front of it the way backend.RunWith does, for the policies that
// need neither an admission order nor a plan script.
func featurePlane(cfg backend.Config, g *graph.Graph) (*cache.Cache, cache.FeatureSource, error) {
	prec := cfg.FeaturePrecision()
	rows := int(prec.EffectiveCacheRows(cfg.CacheRatio, float64(g.NumVertices()), g.FeatDim))
	dev, err := cache.NewAtPrecision(cfg.CachePolicy, rows, g, prec)
	if err != nil {
		return nil, nil, err
	}
	return dev, cache.NewCachedSource(dev, g), nil
}

// sampleMetrics reports the sampler layer from its decorator's spans;
// wall is what sample.share is a share of.
func (c *child) sampleMetrics(s *tracedSampler, dur map[string][]float64, wall time.Duration) {
	sec := sortedCopy(dur["sample.Sample"])
	c.set("sample.batch_ms_p50", percentile(sec, 50)*1e3)
	c.set("sample.batch_ms_p99", c.tailOf("sample.batch_ms_p99", sec)*1e3)
	c.set("sample.vertices_per_batch", float64(s.vertices)/float64(s.batches))
	c.set("sample.edges_per_batch", float64(s.edges)/float64(s.batches))
	c.set("sample.share", sum(dur["sample.Sample"])/wall.Seconds())
}

// tailOf returns the 99th percentile of an ascending per-layer sample,
// or the highest percentile that still has ten samples beyond it, with a
// note saying which.
func (c *child) tailOf(name string, sorted []float64) float64 {
	p := tailPercentile(len(sorted))
	if p == 0 {
		p = 50
	}
	if p != 99 {
		c.note("%s: %d samples, reporting p%.0f", name, len(sorted), p)
	}
	return percentile(sorted, p)
}

// cacheMetrics reports the feature plane's counters after a run.
func (c *child) cacheMetrics(dev *cache.Cache, src cache.FeatureSource) {
	_, _, updates := dev.Stats()
	c.set("cache.hit_ratio", src.HitRate())
	c.set("cache.updates", float64(updates))
	c.set("cache.transfer_mb", float64(src.TransferredBytes())/(1<<20))
}

// nodeWiseCores returns up to n probes with distinct unbiased node-wise
// sampling cores — the ones plan.Compile can be timed on through public
// constructors.
func nodeWiseCores(cfgs []backend.Config, n int) []backend.Config {
	var out []backend.Config
	seen := map[string]bool{}
	for _, cfg := range cfgs {
		key := fmt.Sprint(cfg.Dataset, cfg.BatchSize, cfg.Fanouts, cfg.Seed, cfg.Epochs)
		if cfg.Sampler != backend.SamplerSAGE || cfg.BiasRate > 0 || cfg.Reorder || seen[key] {
			continue
		}
		seen[key] = true
		if out = append(out, cfg); len(out) == n {
			break
		}
	}
	return out
}

// planMetrics reports the shared plan cache's counters after the
// workload's fan-out, then times the plan layer on the workload's own
// sampling cores: one uncached plan.Compile per core and a replay of
// every batch of the compiled plans.
func (c *child) planMetrics(cfgs []backend.Config) {
	c.set("plan.compiles", float64(plan.Compiles()))
	c.set("plan.cache_hits", float64(plan.CacheHits()))
	var compileMs, replayUs []float64
	var bytes int64
	for _, cfg := range nodeWiseCores(cfgs, 4) {
		ds, err := dataset.Load(cfg.Dataset)
		if err != nil {
			c.fail("plan layer: %v", err)
			return
		}
		smp := &sample.NodeWise{Fanouts: cfg.Fanouts}
		key := plan.KeyFor(cfg.Dataset, false, smp, cfg.BatchSize, cfg.Seed, cfg.Epochs, true, ds.TrainIdx)
		var p *plan.Plan
		compileMs = append(compileMs, timeIt(func() { p, err = plan.Compile(ds.Graph, smp, key, ds.TrainIdx) }).Seconds()*1e3)
		if err != nil {
			c.fail("plan.Compile: %v", err)
			return
		}
		bytes += p.Bytes()
		var mb sample.MiniBatch
		for e := 0; e < p.Epochs(); e++ {
			for i := 0; i < p.BatchesPerEpoch(); i++ {
				replayUs = append(replayUs, timeIt(func() { p.ReplayInto(&mb, e, i) }).Seconds()*1e6)
			}
		}
	}
	if len(compileMs) == 0 {
		c.fail("plan layer: no unbiased node-wise probe to compile")
		return
	}
	c.set("plan.compile_ms_p50", p50(compileMs))
	c.set("plan.replay_us_p50", p50(replayUs))
	c.set("plan.bytes", float64(bytes))
}

// kernelMetrics times the three tensor kernels a SAGE training batch
// leans on, at the shapes of this workload's batches: rows input
// vertices of width in, multiplied into hidden columns; gather and
// scatter-add over idx.
func (c *child) kernelMetrics(rows, in, hidden int, idx []int32) {
	a, b, out := tensor.New(rows, in), tensor.New(in, hidden), tensor.New(rows, hidden)
	rng := rand.New(rand.NewSource(1))
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	for i := range b.Data {
		b.Data[i] = rng.Float64()
	}
	gathered := tensor.New(len(idx), in)
	kernels := []struct {
		name string
		work float64 // FLOPs or bytes per call
		run  func()
	}{
		{"tensor.matmul_gflops", 2 * float64(rows) * float64(in) * float64(hidden), func() { tensor.MatMulInto(out, a, b) }},
		{"tensor.gather_gbps", 2 * 8 * float64(len(idx)) * float64(in), func() { tensor.GatherRowsInto(gathered, a, idx) }},
		{"tensor.scatter_add_gbps", 3 * 8 * float64(len(idx)) * float64(in), func() { tensor.ScatterAddRows(a, gathered, idx) }},
	}
	// rate is work per nanosecond (G per second) over the best of five
	// rounds of twenty calls.
	rate := func(work float64, run func()) float64 {
		run() // warm the pool and the caches
		var best time.Duration
		for range 5 {
			if d := timeIt(func() {
				for range 20 {
					run()
				}
			}); best == 0 || d < best {
				best = d
			}
		}
		return work * 20 / float64(best.Nanoseconds())
	}
	parallel := make([]float64, len(kernels))
	for i, k := range kernels {
		parallel[i] = rate(k.work, k.run)
		c.set(k.name, parallel[i])
	}
	// The same kernels on the serial path, inside this process: at one
	// core there is nothing to compare.
	if runtime.GOMAXPROCS(0) == 1 {
		c.note("tensor.parallel_speedup: n/a at gomaxprocs=1")
		return
	}
	workers := tensor.Parallelism()
	defer tensor.WithParallelism(1)()
	var speedup float64
	for i, k := range kernels {
		speedup += parallel[i] / rate(k.work, k.run) / float64(len(kernels))
	}
	c.set("tensor.parallel_speedup", speedup)
	c.note("tensor.parallel_speedup: mean over the three kernels of %d workers against SetParallelism(1)", workers)
}

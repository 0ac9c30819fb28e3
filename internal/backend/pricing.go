package backend

import (
	"math"

	"gnnavigator/internal/dataset"
	"gnnavigator/internal/hw"
	"gnnavigator/internal/model"
	"gnnavigator/internal/sim"
)

// Pricing turns one config's per-batch and peak volumes into the
// white-box T and Γ of Eqs. 4–10 at paper scale. RunWith prices what it
// measured through it and the estimator prices what it predicted, so a
// measured and a predicted run meet the same code. The volumes stay the
// caller's — measured or predicted — and so does the choice of workload:
// which batch size sets the vertex scale a memory estimate runs under.
type Pricing struct {
	// Model is the config's model on the scaled graph: the closed-form
	// FLOPs count prices batches with it, and RunWith builds from it.
	Model model.Config

	plat          hw.Platform
	scale         float64 // linear vertex scale |V_full| / |V_scaled|
	collisionFull float64 // E[|V_i|_full] of Eq. 12's bound
	wl            sim.Workload
	vols          sim.BatchVolumes // the config-derived fields only
	mem           sim.MemoryVolumes
	// stepWire is the scaled run's per-step gradient all-reduce traffic
	// (0 on one device): what Perf.AllReduceBytes meters per iteration.
	stepWire int64
}

// NewPricing prices cfg on dataset ds.
func NewPricing(cfg Config, ds *dataset.Dataset) Pricing {
	g := ds.Graph
	plat, _ := hw.Profile(cfg.Platform)
	devices := cfg.DeviceCount()
	prec := cfg.FeaturePrecision()
	// Full-scale all-reduce payload per step: |Φ| scalars at the 4-byte
	// transfer currency (the simulator applies the ring wire factor).
	// The scaled run meters its own ring traffic: each device sends (and
	// receives) 2(K-1)/K of its |Φ_scaled| scalars per step.
	params := numParams(cfg, ds.FullFeatDim, g.NumClasses)
	var arBytes float64
	var stepWire int64
	if devices > 1 {
		arBytes = float64(params) * 4
		scaled := numParams(cfg, g.FeatDim, g.NumClasses)
		stepWire = int64(math.Ceil(2 * float64(devices-1) / float64(devices) * float64(scaled) * 4))
	}
	// Per-edge messages carry the hidden width: scatter-gather frameworks
	// transform before aggregating whenever the input width exceeds the
	// output width, so the buffer never exceeds the hidden dimension.
	hidden := cfg.Hidden*(cfg.Layers-1) + g.NumClasses
	nFull := float64(ds.FullVertices)
	return Pricing{
		Model: model.Config{
			Kind: cfg.Model, InDim: g.FeatDim, Hidden: cfg.Hidden,
			OutDim: g.NumClasses, Layers: cfg.Layers, Heads: cfg.Heads,
			Dropout: cfg.Dropout, Seed: cfg.Seed + 7,
		},
		plat:          plat,
		scale:         ds.Scale,
		collisionFull: nFull * (1 - math.Exp(-analyticFullBound(cfg, ds)/nFull)),
		wl: sim.Workload{
			FeatDim: ds.FullFeatDim, BytesPerScalar: 4, Precision: prec, Devices: devices,
		},
		vols: sim.BatchVolumes{
			FeatureFLOPShare: featureFLOPShare(cfg, g.FeatDim),
			ScaledFeatDim:    g.FeatDim,
			Layers:           cfg.Layers,
			AllReduceBytes:   arBytes,
		},
		mem: sim.MemoryVolumes{
			ModelParams:   params,
			CacheVertices: prec.EffectiveCacheRows(cfg.CacheRatio, nFull, ds.FullFeatDim),
			HiddenDims:    hidden,
			MaxWidth:      cfg.Hidden,
			Layers:        cfg.Layers,
		},
		stepWire: stepWire,
	}
}

// Workload is the paper-scale workload of a batch of vi distinct
// vertices on the scaled graph. A full-scale mini-batch is NOT the
// scaled batch times |V_full|/|V_scaled| — on big graphs fanouts, not
// graph size, bound batch growth. The expected full-scale batch follows
// the collision (balls-in-bins) form of Eq. 12's overlap penalty:
//
//	E[|V_i|_full] = N_full · (1 - e^(-bound/N_full))
//
// with bound = |B_0|·Π(1+k_l) the τ=1 limit. The vertex scale is that
// expectation divided by vi, capped by the linear scale and floored at
// one. Without this, products-scale workloads would absurdly touch the
// whole 2.4M-vertex graph every iteration.
func (p *Pricing) Workload(vi float64) sim.Workload {
	s := p.scale
	if vi > 0 {
		if b := p.collisionFull / vi; b < s {
			s = b
		}
	}
	wl := p.wl
	wl.VertexScale = max(s, 1)
	return wl
}

// FLOPs is the closed-form forward+backward multiply-add count of one
// batch of the given per-layer block shapes.
func (p *Pricing) FLOPs(shapes []model.Shape) (float64, error) {
	return model.CountFLOPs(p.Model, shapes)
}

// Batch prices one iteration (Eqs. 5–8): v carries the batch's own
// volumes, and Batch fills in the fields the config fixes — the
// feature-dependent FLOPs share, the scaled feature width, the depth and
// the all-reduce payload.
func (p *Pricing) Batch(v sim.BatchVolumes, wl sim.Workload) sim.BatchTiming {
	v.FeatureFLOPShare = p.vols.FeatureFLOPShare
	v.ScaledFeatDim = p.vols.ScaledFeatDim
	v.Layers = p.vols.Layers
	v.AllReduceBytes = p.vols.AllReduceBytes
	return sim.EstimateBatch(v, p.plat, wl)
}

// Memory prices the per-device Γ of Eqs. 9–10 for a peak batch of the
// given vertex and edge counts on the scaled graph, and reports whether
// it fits the device with 2 % headroom.
func (p *Pricing) Memory(peakVertices, peakEdges int, wl sim.Workload) (sim.MemoryBreakdown, bool) {
	v := p.mem
	v.PeakBatchVertices, v.PeakBatchEdges = peakVertices, peakEdges
	mem := sim.EstimateMemory(v, wl)
	return mem, sim.FitsDevice(mem, p.plat, 0.02)
}

// analyticFullBound is the τ=1 bound of Eq. 12 at paper scale: the
// maximum distinct vertices one batch can touch, with fanouts capped by
// the full-scale average degree.
func analyticFullBound(cfg Config, ds *dataset.Dataset) float64 {
	b0 := float64(cfg.BatchSize)
	switch cfg.Sampler {
	case SamplerSAINT:
		return b0 * float64(cfg.WalkLength+1)
	case SamplerFastGCN:
		total := b0
		for _, k := range cfg.Fanouts {
			total += float64(k) * b0 / 2
		}
		return total
	default:
		prod := b0
		for _, k := range cfg.Fanouts {
			prod *= 1 + min(float64(k), ds.FullAvgDegree)
		}
		return prod
	}
}

// featureFLOPShare estimates the fraction of model FLOPs proportional to
// the input feature dimension: the first layer's dense work dominates when
// in >> hidden.
func featureFLOPShare(cfg Config, featDim int) float64 {
	in := float64(featDim)
	rest := float64(cfg.Hidden) * float64(max(cfg.Layers-1, 1))
	return in / (in + rest)
}

// numParams is |Φ| in closed form: what model.New builds for cfg with
// input width inDim and outDim classes (weights + bias per layer; SAGE
// carries a self and a neighbor path, GAT two attention vectors of the
// output width whatever the head count). At the full attribute width it
// is the paper-scale |Φ| Γ and the simulated all-reduce price; at the
// scaled graph's width it is the model a run trains.
func numParams(cfg Config, inDim, outDim int) int {
	total := 0
	for l := 0; l < cfg.Layers; l++ {
		li := cfg.Hidden
		if l == 0 {
			li = inDim
		}
		lo := cfg.Hidden
		if l == cfg.Layers-1 {
			lo = outDim
		}
		switch cfg.Model {
		case model.SAGE:
			total += 2*li*lo + 2*lo
		case model.GAT:
			total += li*lo + 3*lo
		default:
			total += li*lo + lo
		}
	}
	return total
}

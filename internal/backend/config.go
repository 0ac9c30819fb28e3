// Package backend implements GNNavigator's reconfigurable runtime backend
// (Fig. 3): a single parameterized training engine whose configuration
// space subsumes the systems the paper compares against. A Config selects
// sampler, hop list, bias rate, cache ratio and policy, model architecture
// and batch size; RunWith executes real mini-batch training on the scaled
// synthetic graph while the simulator (internal/sim) prices every
// iteration on the chosen hardware platform at paper scale.
package backend

import (
	"fmt"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/dataset"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/hw"
	"gnnavigator/internal/model"
)

// SamplerKind names a sampling strategy (Fig. 3 "Sampler Choices").
type SamplerKind string

// Supported sampler kinds.
const (
	SamplerSAGE    SamplerKind = "sage"    // node-wise neighbor sampling
	SamplerFastGCN SamplerKind = "fastgcn" // layer-wise importance sampling
	SamplerSAINT   SamplerKind = "saint"   // subgraph-wise random walks
)

// Config is one point in the design space: every blue-dashed reconfigurable
// setting of Fig. 3.
type Config struct {
	// Workload.
	Dataset  string
	Platform string // name for hw.Profile

	// Cat. 1: sampling.
	Sampler    SamplerKind
	BatchSize  int   // |B_0|
	Fanouts    []int // hop list (node-wise); per-hop vertex budgets are derived for layer-wise
	WalkLength int   // subgraph-wise only
	BiasRate   float64

	// Cat. 2: transmission.
	CacheRatio  float64 // r: fraction of |V| resident on device
	CachePolicy cache.Policy
	// Precision is the feature-plane storage width (float32 baseline
	// when empty): it selects how cached rows are stored and how the
	// host link prices transfers, and rescales the cache capacity a
	// fixed Γ budget buys.
	Precision cache.Precision

	// Cat. 3: model design.
	Model   model.Kind
	Hidden  int
	Layers  int
	Heads   int
	Dropout float64

	// Cat. 4: computation.
	Reorder bool // degree-descending relabel before training

	// Cat. 5: scale-out. Devices is the data-parallel device count K
	// (0 or 1 = single device). K > 1 partitions the graph's vertices
	// into K parts, meters the halo rows each batch's consumers fetch
	// from a remote owner and the gradient all-reduce, and divides the
	// simulator's per-device terms by K. The feature plane is the
	// single-device one at every K, so results — cache counters included
	// — are bitwise-identical to the single-device run. K must be a power
	// of two (see checkReduction) no larger than the platform's device
	// count.
	Devices int
	// Partition selects the vertex partitioner for Devices > 1
	// (graph.PartitionHash or graph.PartitionGreedy; empty = greedy).
	Partition graph.PartitionStrategy

	// Training loop.
	Epochs int
	LR     float64
	Seed   int64
}

// Validate checks the configuration against the backend's limits.
func (c Config) Validate() error {
	if _, err := dataset.Load(c.Dataset); err != nil {
		return fmt.Errorf("backend: %w", err)
	}
	if _, ok := hw.Profile(c.Platform); !ok {
		return fmt.Errorf("backend: unknown platform %q", c.Platform)
	}
	switch c.Sampler {
	case SamplerSAGE, SamplerFastGCN:
		if len(c.Fanouts) == 0 {
			return fmt.Errorf("backend: sampler %q needs a hop list", c.Sampler)
		}
		if len(c.Fanouts) != c.Layers {
			return fmt.Errorf("backend: hop list length %d != layers %d", len(c.Fanouts), c.Layers)
		}
	case SamplerSAINT:
		if c.WalkLength < 1 {
			return fmt.Errorf("backend: saint sampler needs WalkLength >= 1")
		}
	default:
		return fmt.Errorf("backend: unknown sampler %q", c.Sampler)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("backend: batch size %d < 1", c.BatchSize)
	}
	if c.BiasRate < 0 || c.BiasRate > 1 {
		return fmt.Errorf("backend: bias rate %v out of [0,1]", c.BiasRate)
	}
	if c.CacheRatio < 0 || c.CacheRatio > 1 {
		return fmt.Errorf("backend: cache ratio %v out of [0,1]", c.CacheRatio)
	}
	if !c.CachePolicy.Valid() {
		return fmt.Errorf("backend: unknown cache policy %q", c.CachePolicy)
	}
	if !c.Precision.Valid() {
		return fmt.Errorf("backend: unknown feature precision %q (have %v)", c.Precision, cache.Precisions())
	}
	if c.CacheRatio > 0 && c.CachePolicy == cache.None {
		return fmt.Errorf("backend: cache ratio %v with policy none", c.CacheRatio)
	}
	if c.BiasRate > 0 && c.CacheRatio == 0 {
		return fmt.Errorf("backend: cache-aware bias needs a cache (ratio > 0)")
	}
	if c.CachePolicy == cache.Opt && c.BiasRate > 0 {
		// Circular dependency: Opt's eviction script needs the exact future
		// access order (a replayable plan), but cache-aware bias makes the
		// access order depend on residency — which Opt's evictions mutate.
		return fmt.Errorf("backend: opt cache policy requires unbiased sampling (BiasRate %v)", c.BiasRate)
	}
	if c.Devices < 0 {
		return fmt.Errorf("backend: device count %d < 0", c.Devices)
	}
	if k := c.DeviceCount(); k > 1 {
		if err := checkReduction(k); err != nil {
			return err
		}
		if p, _ := hw.Profile(c.Platform); k > p.DeviceCount() {
			return fmt.Errorf("backend: %d devices requested but platform %q has %d", k, c.Platform, p.DeviceCount())
		}
	}
	if c.Partition != "" && !c.Partition.Valid() {
		return fmt.Errorf("backend: unknown partition strategy %q (have %v)", c.Partition, graph.PartitionStrategies())
	}
	if c.Layers < 1 || c.Hidden < 1 {
		return fmt.Errorf("backend: bad model dims layers=%d hidden=%d", c.Layers, c.Hidden)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("backend: epochs %d < 1", c.Epochs)
	}
	if c.LR <= 0 {
		return fmt.Errorf("backend: learning rate %v <= 0", c.LR)
	}
	return nil
}

// checkReduction reports whether K data-parallel devices may have their
// gradient all-reduce priced instead of performed: K must be at least 2
// and a power of two, the only counts for which a tree reduction
// averages K equal replica gradients back to exactly that gradient.
func checkReduction(k int) error {
	if k < 2 || k&(k-1) != 0 {
		return fmt.Errorf("backend: device count %d is not a power of two >= 2 (only then does averaging K equal replica gradients reproduce the gradient exactly)", k)
	}
	return nil
}

// Template names the configuration presets of Fig. 3 — each reproduces an
// existing system on the unified backend.
type Template string

// Built-in templates.
const (
	TemplatePyG     Template = "pyg"      // no cache, big fanouts
	TemplatePaFull  Template = "pa-full"  // PaGraph, ideal memory
	TemplatePaLow   Template = "pa-low"   // PaGraph, resource-limited
	Template2PGraph Template = "2pgraph"  // cache-aware biased sampling
	TemplateSAINT   Template = "saint"    // GraphSAINT random walks
	TemplateFastGCN Template = "fast-gcn" // FastGCN layer-wise
)

// FromTemplate instantiates a template for a dataset/model/platform triple.
// The returned Config is a starting point; callers may tweak any knob —
// that is the whole point of the reconfigurable backend.
func FromTemplate(tpl Template, ds string, kind model.Kind, platform string) (Config, error) {
	base := Config{
		Dataset:  ds,
		Platform: platform,
		Model:    kind,
		Hidden:   64,
		Layers:   2,
		Heads:    2,
		Dropout:  0.1,
		Epochs:   3,
		LR:       0.01,
		Seed:     1,

		Sampler:     SamplerSAGE,
		BatchSize:   1024,
		Fanouts:     []int{25, 10},
		CachePolicy: cache.None,
	}
	switch tpl {
	case TemplatePyG:
		// Stock PyG NeighborLoader defaults: no device cache at all.
	case TemplatePaFull:
		// PaGraph: static degree-ordered cache sized to "free" memory,
		// cache update policy disabled (Fig. 3's template text).
		base.CacheRatio = 0.45
		base.CachePolicy = cache.Static
	case TemplatePaLow:
		base.CacheRatio = 0.08
		base.CachePolicy = cache.Static
	case Template2PGraph:
		// 2PGraph: cache-aware (locality/biased) sampling against a modest
		// static cache; compact batches via smaller fanouts. The small
		// fanouts matter twice: they cut compute, and they leave the
		// biased p(η) real freedom to prefer cached neighbors.
		base.Fanouts = []int{10, 5}
		base.CacheRatio = 0.1
		base.CachePolicy = cache.Static
		base.BiasRate = 0.9
	case TemplateSAINT:
		base.Sampler = SamplerSAINT
		base.WalkLength = 12
		base.BatchSize = 512
		base.Fanouts = nil
	case TemplateFastGCN:
		base.Sampler = SamplerFastGCN
		base.Fanouts = []int{20, 10} // converted to per-hop budgets at run time
	default:
		return Config{}, fmt.Errorf("backend: unknown template %q", tpl)
	}
	if err := base.Validate(); err != nil {
		return Config{}, fmt.Errorf("backend: template %s: %w", tpl, err)
	}
	return base, nil
}

// Fingerprint renders the full configuration as a stable string — the
// identity a checkpoint records so resume can refuse a snapshot taken
// under any different config. Every field participates: two configs
// fingerprint equal iff they run identically (fidelity options like
// prefetch or parallelism are deliberately excluded; outputs are
// pinned bitwise-identical across those).
func (c Config) Fingerprint() string { return fmt.Sprintf("%#v", c) }

// FeaturePrecision resolves the config's feature storage width, with
// the zero value meaning the float32 baseline.
func (c Config) FeaturePrecision() cache.Precision { return c.Precision.OrDefault() }

// DeviceCount resolves the config's data-parallel device count, with
// the zero value meaning a single device.
func (c Config) DeviceCount() int {
	if c.Devices < 1 {
		return 1
	}
	return c.Devices
}

// PartitionStrategy resolves the config's vertex partitioner, with the
// zero value meaning greedy (the edge-cut-minimizing default).
func (c Config) PartitionStrategy() graph.PartitionStrategy {
	if c.Partition == "" {
		return graph.PartitionGreedy
	}
	return c.Partition
}

// Label renders a short human-readable identifier for result tables.
func (c Config) Label() string {
	l := fmt.Sprintf("%s/%s b=%d f=%v r=%.2f/%s bias=%.1f",
		c.Sampler, c.Model, c.BatchSize, c.Fanouts, c.CacheRatio, c.CachePolicy, c.BiasRate)
	if p := c.FeaturePrecision(); p != cache.Float32 {
		l += "/" + string(p)
	}
	if k := c.DeviceCount(); k > 1 {
		l += fmt.Sprintf(" k=%d/%s", k, c.PartitionStrategy())
	}
	return l
}

// Package dataset provides named, deterministic stand-ins for the graph
// datasets the paper evaluates on: Ogbn-arxiv (AR), Ogbn-products (PR),
// Reddit (RD) and Reddit2 (RD2).
//
// Real OGB/Reddit data cannot ship in an offline stdlib-only module, so
// each dataset is a *scaled synthetic equivalent*: a seeded power-law
// community graph whose shape statistics (degree skew, homophily, feature
// dimensionality ratio, class count, attainable accuracy band) mirror the
// original. Every dataset also records its *paper-scale* metadata
// (|V|, average degree, feature dim); the timing/memory simulator uses the
// Scale factor to express measured per-batch volumes at paper scale, so
// simulated epoch times and memory footprints land in the paper's units.
package dataset

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
)

// Dataset bundles a training-ready graph with split indices and the
// paper-scale metadata needed by the performance simulator.
type Dataset struct {
	Name  string
	Graph *graph.Graph

	// TrainIdx/ValIdx/TestIdx partition the labeled vertices.
	TrainIdx, ValIdx, TestIdx []int32

	// FullVertices and FullFeatDim are the paper-scale |V| and per-vertex
	// attribute dimension n_attr of the original dataset.
	FullVertices int
	FullFeatDim  int
	// FullAvgDegree is the paper-scale average degree.
	FullAvgDegree float64

	// Scale = FullVertices / |V_scaled|: multiply measured per-batch vertex
	// counts by Scale to express them at paper scale.
	Scale float64
}

// Spec declares how to synthesize a dataset stand-in.
type Spec struct {
	Name           string
	Seed           int64
	NumVertices    int
	NumCommunities int
	NumClasses     int
	AvgDegree      float64
	IntraFraction  float64
	HubBias        float64
	FeatDim        int
	FeatureNoise   float64
	DegreeNoise    float64
	LabelFlip      float64
	TrainFraction  float64
	ValFraction    float64

	FullVertices  int
	FullFeatDim   int
	FullAvgDegree float64
}

// Canonical dataset names.
const (
	OgbnArxiv    = "ogbn-arxiv"    // AR
	OgbnProducts = "ogbn-products" // PR
	Reddit       = "reddit"        // RD
	Reddit2      = "reddit2"       // RD2
)

// specs defines the four named stand-ins. Scaled sizes keep full test runs
// in seconds while preserving the originals' shape:
//   - AR:  citation graph, modest degree, hard task (paper acc ~61%).
//   - PR:  co-purchase, high homophily, easy task (paper acc ~90%).
//   - RD:  very dense social graph (avg degree ~490 in the original).
//   - RD2: pruned Reddit, mid density, mid difficulty (paper acc ~79%).
var specs = map[string]Spec{
	OgbnArxiv: {
		Name: OgbnArxiv, Seed: 1001,
		NumVertices: 6000, NumCommunities: 10, NumClasses: 10,
		AvgDegree: 13, IntraFraction: 0.65, HubBias: 0.7,
		FeatDim: 32, FeatureNoise: 1.7, DegreeNoise: 0.5, LabelFlip: 0.22,
		TrainFraction: 0.55, ValFraction: 0.2,
		FullVertices: 169_343, FullFeatDim: 128, FullAvgDegree: 13.7,
	},
	OgbnProducts: {
		Name: OgbnProducts, Seed: 1002,
		NumVertices: 12000, NumCommunities: 12, NumClasses: 12,
		AvgDegree: 25, IntraFraction: 0.85, HubBias: 0.85,
		FeatDim: 40, FeatureNoise: 0.55, DegreeNoise: 0.9, LabelFlip: 0.05,
		TrainFraction: 0.4, ValFraction: 0.25,
		FullVertices: 2_449_029, FullFeatDim: 100, FullAvgDegree: 50.5,
	},
	Reddit: {
		Name: Reddit, Seed: 1003,
		NumVertices: 8000, NumCommunities: 10, NumClasses: 10,
		AvgDegree: 55, IntraFraction: 0.8, HubBias: 0.8,
		FeatDim: 48, FeatureNoise: 0.8, DegreeNoise: 0.9, LabelFlip: 0.06,
		TrainFraction: 0.65, ValFraction: 0.15,
		FullVertices: 232_965, FullFeatDim: 602, FullAvgDegree: 492,
	},
	Reddit2: {
		Name: Reddit2, Seed: 1004,
		NumVertices: 8000, NumCommunities: 10, NumClasses: 10,
		AvgDegree: 28, IntraFraction: 0.7, HubBias: 0.8,
		FeatDim: 48, FeatureNoise: 2.2, DegreeNoise: 2.5, LabelFlip: 0.08,
		TrainFraction: 0.65, ValFraction: 0.15,
		FullVertices: 232_965, FullFeatDim: 602, FullAvgDegree: 99.6,
	},
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Dataset{}
)

// Names returns the canonical dataset names in a stable order.
func Names() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Load materializes (and memoizes) a named dataset. Generation is
// deterministic: the same name always yields the same graph.
func Load(name string) (*Dataset, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if d, ok := cache[name]; ok {
		return d, nil
	}
	spec, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown dataset %q (have %v)", name, Names())
	}
	d, err := Synthesize(spec)
	if err != nil {
		return nil, err
	}
	cache[name] = d
	return d, nil
}

// Register adds d to the registry so runtime configurations can refer to
// it by name — used for the power-law augmentation graphs the estimator
// trains on. Registering a name that already exists is an error.
func Register(d *Dataset) error {
	if d == nil || d.Name == "" {
		return fmt.Errorf("dataset: cannot register unnamed dataset")
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if _, exists := cache[d.Name]; exists {
		return fmt.Errorf("dataset: %q already registered", d.Name)
	}
	if _, exists := specs[d.Name]; exists {
		return fmt.Errorf("dataset: %q collides with a built-in dataset", d.Name)
	}
	cache[d.Name] = d
	return nil
}

// MustLoad is Load that panics on error; for tests and the bench/ harness,
// where the named datasets are known to exist.
func MustLoad(name string) *Dataset {
	d, err := Load(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Synthesize draws a dataset from an explicit spec (exported so benchmarks
// can produce custom-scale variants and power-law augmentation sets).
func Synthesize(spec Spec) (*Dataset, error) {
	if spec.NumVertices < 10 {
		return nil, fmt.Errorf("dataset: spec %q too small (n=%d)", spec.Name, spec.NumVertices)
	}
	if spec.TrainFraction+spec.ValFraction >= 1 {
		return nil, fmt.Errorf("dataset: spec %q train+val fractions %v+%v >= 1",
			spec.Name, spec.TrainFraction, spec.ValFraction)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	g, comm, err := gen.PowerLawCommunity(rng, gen.PowerLawCommunitySpec{
		NumVertices:    spec.NumVertices,
		NumCommunities: spec.NumCommunities,
		AvgDegree:      spec.AvgDegree,
		IntraFraction:  spec.IntraFraction,
		HubBias:        spec.HubBias,
	})
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", spec.Name, err)
	}
	g.Name = spec.Name
	if err := gen.AttachFeatures(rng, g, comm, spec.NumClasses, gen.FeatureSpec{
		Dim:          spec.FeatDim,
		Noise:        spec.FeatureNoise,
		FlipFraction: spec.LabelFlip,
		DegreeNoise:  spec.DegreeNoise,
	}); err != nil {
		return nil, fmt.Errorf("dataset %q: %w", spec.Name, err)
	}

	perm := rng.Perm(spec.NumVertices)
	nTrain := int(spec.TrainFraction * float64(spec.NumVertices))
	nVal := int(spec.ValFraction * float64(spec.NumVertices))
	d := &Dataset{
		Name:          spec.Name,
		Graph:         g,
		FullVertices:  spec.FullVertices,
		FullFeatDim:   spec.FullFeatDim,
		FullAvgDegree: spec.FullAvgDegree,
	}
	if d.FullVertices == 0 {
		d.FullVertices = spec.NumVertices
	}
	if d.FullFeatDim == 0 {
		d.FullFeatDim = spec.FeatDim
	}
	if d.FullAvgDegree == 0 {
		d.FullAvgDegree = spec.AvgDegree
	}
	d.Scale = float64(d.FullVertices) / float64(spec.NumVertices)
	for i, v := range perm {
		switch {
		case i < nTrain:
			d.TrainIdx = append(d.TrainIdx, int32(v))
		case i < nTrain+nVal:
			d.ValIdx = append(d.ValIdx, int32(v))
		default:
			d.TestIdx = append(d.TestIdx, int32(v))
		}
	}
	slices.Sort(d.TrainIdx)
	slices.Sort(d.ValIdx)
	slices.Sort(d.TestIdx)
	return d, nil
}

// PowerLawAugment generates count random power-law graphs with randomized
// scale and density. The paper uses exactly this kind of set as "data
// enhancement" when training the performance estimator (§4.1).
func PowerLawAugment(seed int64, count int) ([]*Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Dataset, 0, count)
	for i := 0; i < count; i++ {
		n := 2000 + rng.Intn(8000)
		spec := Spec{
			Name:           fmt.Sprintf("powerlaw-aug-%d-%d", seed, i),
			Seed:           rng.Int63(),
			NumVertices:    n,
			NumCommunities: 6 + rng.Intn(8),
			NumClasses:     6 + rng.Intn(8),
			AvgDegree:      8 + rng.Float64()*40,
			IntraFraction:  0.6 + rng.Float64()*0.3,
			HubBias:        0.5 + rng.Float64()*0.45,
			FeatDim:        24 + 8*rng.Intn(4),
			FeatureNoise:   0.5 + rng.Float64(),
			DegreeNoise:    rng.Float64(),
			LabelFlip:      rng.Float64() * 0.2,
			TrainFraction:  0.5,
			ValFraction:    0.2,
			FullVertices:   n * (20 + rng.Intn(80)),
			FullFeatDim:    64 + 32*rng.Intn(16),
		}
		spec.FullAvgDegree = spec.AvgDegree * (1 + rng.Float64()*3)
		d, err := Synthesize(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

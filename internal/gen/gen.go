// Package gen synthesizes graphs with controllable shape statistics.
//
// The paper evaluates on Ogbn-arxiv, Ogbn-products, Reddit and Reddit2 and
// additionally augments the estimator's training set with "randomly
// generated power-law graphs" (§4.1). Since those datasets cannot ship in
// an offline stdlib-only module, this package provides seeded generators
// that reproduce the properties the GNNavigator pipeline actually consumes:
// power-law degree distributions (cacheability, sampling skew), community
// structure correlated with labels (GNN learnability), and tunable scale.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"gnnavigator/internal/graph"
)

// BarabasiAlbert generates an undirected preferential-attachment graph with
// n vertices where each arriving vertex attaches to m existing vertices.
// Both arc directions are stored. The resulting degree distribution follows
// a power law with exponent close to 3.
//
// The build is two-pass: generation appends only to the repeated endpoint
// pool (which doubles as the edge log — growth edges are its consecutive
// pairs after the seed prefix), and a counting pass over that pool then
// sizes the CSR arrays exactly. No per-vertex append slices, no CSR
// re-copy: the whole graph costs a handful of flat allocations.
//
// Only tests call it: it is the small power-law graph that the cache,
// sample, plan, pipeline and gnnserve tests share across packages.
func BarabasiAlbert(rng *rand.Rand, n, m int) (*graph.Graph, error) {
	if n <= m || m < 1 {
		return nil, fmt.Errorf("gen: BarabasiAlbert requires n > m >= 1 (n=%d, m=%d)", n, m)
	}
	// repeated holds one entry per arc endpoint, so sampling uniformly from
	// it implements preferential attachment. After generation, vertex v
	// appears in it exactly degree(v) times.
	repeated := make([]int32, 0, m*(2*n-m-1))

	// Seed clique over the first m+1 vertices.
	for v := 0; v <= m; v++ {
		for u := 0; u <= m; u++ {
			if u != v {
				repeated = append(repeated, int32(v))
			}
		}
	}
	seedArcs := len(repeated)
	chosen := make(map[int32]bool, m)
	targets := make([]int32, 0, m)
	for v := m + 1; v < n; v++ {
		clear(chosen)
		for len(chosen) < m {
			u := repeated[rng.Intn(len(repeated))]
			if int(u) != v {
				chosen[u] = true
			}
		}
		// Map iteration order is randomized; materialize and sort so the
		// generator is deterministic for a fixed seed.
		targets = targets[:0]
		for u := range chosen {
			targets = append(targets, u)
		}
		slices.Sort(targets)
		for _, u := range targets {
			repeated = append(repeated, int32(v), u)
		}
	}

	// Counted pre-size pass: degree(v) = multiplicity of v in repeated.
	offsets := make([]int64, n+1)
	for _, v := range repeated {
		offsets[v+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]int32, len(repeated))
	cur := make([]int64, n)
	copy(cur, offsets[:n])
	emit := func(v, u int32) {
		adj[cur[v]] = u
		cur[v]++
	}
	for v := int32(0); v <= int32(m); v++ {
		for u := int32(0); u <= int32(m); u++ {
			if u != v {
				emit(v, u)
			}
		}
	}
	for k := seedArcs; k < len(repeated); k += 2 {
		v, u := repeated[k], repeated[k+1]
		emit(v, u)
		emit(u, v)
	}
	for v := 0; v < n; v++ {
		slices.Sort(adj[offsets[v]:offsets[v+1]])
	}
	return graph.NewCSR(offsets, adj)
}

// PowerLawCommunitySpec describes the combined generator used for the
// dataset stand-ins: community structure (so labels are learnable by a
// GNN) overlaid with preferential attachment (so degrees are power-law,
// which is what drives cache hit rates and sampling skew).
type PowerLawCommunitySpec struct {
	NumVertices    int
	NumCommunities int
	// AvgDegree targets the mean total degree.
	AvgDegree float64
	// IntraFraction in [0,1] is the fraction of each vertex's edges that
	// stay within its community (label homophily).
	IntraFraction float64
	// HubBias >= 0 skews endpoint choice toward already-popular vertices;
	// 0 gives Erdős–Rényi-like degrees, 1 gives strong power-law hubs.
	HubBias float64
}

// PowerLawCommunity draws a graph per spec, returning the graph and the
// community assignment.
func PowerLawCommunity(rng *rand.Rand, spec PowerLawCommunitySpec) (*graph.Graph, []int32, error) {
	n := spec.NumVertices
	k := spec.NumCommunities
	if n < 2 || k < 1 || k > n {
		return nil, nil, fmt.Errorf("gen: bad PowerLawCommunity spec n=%d k=%d", n, k)
	}
	if spec.IntraFraction < 0 || spec.IntraFraction > 1 {
		return nil, nil, fmt.Errorf("gen: IntraFraction %v out of [0,1]", spec.IntraFraction)
	}
	comm := make([]int32, n)
	members := make([][]int32, k)
	for v := 0; v < n; v++ {
		c := int32(v % k)
		comm[v] = c
		members[c] = append(members[c], int32(v))
	}
	adj := make([][]int32, n)
	// weight[v] grows with v's degree to implement preferential endpoint
	// selection. Start at 1 so isolated vertices remain reachable.
	weight := make([]float64, n)
	for i := range weight {
		weight[i] = 1
	}
	// A simple alias-free scheme: maintain a repeated endpoint pool like
	// Barabási–Albert, refreshed lazily. For hub bias < 1 we mix uniform
	// and preferential choices.
	pool := make([]int32, 0, int(spec.AvgDegree)*n)
	for v := 0; v < n; v++ {
		pool = append(pool, int32(v))
	}
	pick := func(cands []int32) int32 {
		if rng.Float64() < spec.HubBias {
			// Preferential: draw from pool until we hit a candidate set
			// member; bounded retries keep worst case linear.
			for try := 0; try < 8; try++ {
				u := pool[rng.Intn(len(pool))]
				if cands == nil {
					return u
				}
				// Membership test by community id (cands are exactly one
				// community's members in our usage).
				if comm[u] == comm[cands[0]] {
					return u
				}
			}
		}
		if cands == nil {
			return int32(rng.Intn(n))
		}
		return cands[rng.Intn(len(cands))]
	}
	halfEdges := int(spec.AvgDegree * float64(n) / 2)
	for i := 0; i < halfEdges; i++ {
		u := int32(rng.Intn(n))
		var v int32
		if rng.Float64() < spec.IntraFraction {
			v = pick(members[comm[u]])
		} else {
			v = pick(nil)
		}
		if u == v {
			continue
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		pool = append(pool, u, v)
		weight[u]++
		weight[v]++
	}
	for v := range adj {
		slices.Sort(adj[v])
		adj[v] = dedupSorted(adj[v])
	}
	g, err := graph.FromAdjList(adj)
	if err != nil {
		return nil, nil, err
	}
	return g, comm, nil
}

// FeatureSpec controls synthetic feature/label generation.
type FeatureSpec struct {
	// Dim is the feature dimensionality.
	Dim int
	// Noise is the standard deviation of per-feature Gaussian noise added
	// to the class centroid; larger values make classification harder.
	Noise float64
	// FlipFraction is the fraction of vertices whose label is replaced by
	// a uniformly random class (label noise, bounds attainable accuracy).
	FlipFraction float64
	// DegreeNoise scales extra noise with normalized log-degree: a vertex
	// at the maximum degree gets Noise·(1+DegreeNoise). This mirrors real
	// social/co-purchase graphs, where hub vertices aggregate many
	// communities and carry weaker class signal — and it is what makes
	// hub-biased (cache-aware) sampling cost accuracy, as the paper's
	// Fig. 1b profiles for 2PGraph.
	DegreeNoise float64
}

// AttachFeatures decorates g with class-conditional features derived from
// the community assignment: class c's centroid is a fixed random unit-ish
// vector, and each vertex's feature is centroid + noise. Labels equal the
// (possibly flipped) community ids.
func AttachFeatures(rng *rand.Rand, g *graph.Graph, comm []int32, numClasses int, spec FeatureSpec) error {
	n := g.NumVertices()
	if len(comm) != n {
		return fmt.Errorf("gen: community length %d != n %d", len(comm), n)
	}
	if spec.Dim < 1 {
		return fmt.Errorf("gen: feature dim %d < 1", spec.Dim)
	}
	centroids := make([][]float32, numClasses)
	for c := range centroids {
		row := make([]float32, spec.Dim)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		centroids[c] = row
	}
	maxDeg := 1
	for v := 0; v < n; v++ {
		if d := g.Degree(int32(v)); d > maxDeg {
			maxDeg = d
		}
	}
	logMax := math.Log(1 + float64(maxDeg))
	g.FeatDim = spec.Dim
	g.Features = make([]float32, n*spec.Dim)
	g.NumClasses = numClasses
	g.Labels = make([]int32, n)
	for v := 0; v < n; v++ {
		c := comm[v] % int32(numClasses)
		g.Labels[v] = c
		if spec.FlipFraction > 0 && rng.Float64() < spec.FlipFraction {
			g.Labels[v] = int32(rng.Intn(numClasses))
		}
		noise := spec.Noise
		if spec.DegreeNoise > 0 && logMax > 0 {
			degNorm := math.Log(1+float64(g.Degree(int32(v)))) / logMax
			noise *= 1 + spec.DegreeNoise*degNorm
		}
		base := v * spec.Dim
		cen := centroids[c]
		for j := 0; j < spec.Dim; j++ {
			g.Features[base+j] = cen[j] + float32(rng.NormFloat64()*noise)
		}
	}
	return nil
}

func dedupSorted(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

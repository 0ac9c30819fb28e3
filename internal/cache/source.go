package cache

import (
	"gnnavigator/internal/graph"
	"gnnavigator/internal/tensor"
)

// The feature plane.
//
// A FeatureSource is the single abstraction every layer that touches
// vertex features programs against: the pipeline's cache+gather stage,
// the backend's transfer accounting, and (through Resident) the
// cache-aware biased samplers. A source owns the route a feature row
// takes to the device — straight over the host link (graph source) or
// through the device cache (cached source) — and accounts every
// transferred byte, which internal/sim prices as Eq. 6's t_transfer.
//
// Sources follow the same single-stage contract as samplers: Access and
// GatherInto run on exactly one goroutine per pipeline run (the cache
// stage, or the fused producer), so sources keep mutable scratch across
// batches without locking. Resident, like Cache.Contains, is lock-free
// and safe from other goroutines.

// BatchStats is one batch's transfer outcome.
type BatchStats struct {
	// Miss is the number of requested rows absent from the device (the
	// transfer volume numerator of Eq. 6).
	Miss int
	// CacheOps is the number of replacement operations admitting the
	// misses performed (Eq. 5's stale-data volume).
	CacheOps int
	// TransferBytes is the host→device feature traffic this batch caused
	// at the scaled graph's feature width.
	TransferBytes int64
	// HaloBytes is the device-to-device halo-exchange traffic this batch
	// caused at the scaled feature width: rows a partition's consumer
	// fetched from a remote owner. Always 0 for single-device sources;
	// the multi-device plane (internal/dist) meters it.
	HaloBytes int64
}

// FeatureSource serves feature rows to the device and accounts the
// host→device traffic doing so.
type FeatureSource interface {
	// Access records a batch's row requests (cache lookup + policy
	// update) without materializing the rows — the timing-only path.
	Access(nodes []int32) BatchStats
	// GatherInto fills dst (reallocating only when capacity is short)
	// with the feature rows of nodes, row i ↔ nodes[i], routing each row
	// through the device cache when one backs the source, and returns
	// the matrix actually filled plus the batch's transfer outcome.
	GatherInto(dst *tensor.Dense, nodes []int32) (*tensor.Dense, BatchStats)
	// Resident reports device residency of v — what a locality-aware
	// p(η) bias reads. Lock-free.
	Resident(v int32) bool
	// HitRate returns the cumulative cache hit rate (0 for uncached).
	HitRate() float64
	// TransferredBytes returns cumulative host→device feature traffic.
	TransferredBytes() int64
}

// GatherRowsInto copies the raw float32 features of nodes from g into a
// float64 matrix (row i ↔ nodes[i]), reusing dst's storage when its
// capacity suffices. The copy is sharded over rows on the tensor worker
// pool and routed through the Float32 widen kernel — the same kernel
// family the precision-aware sources dispatch. This is the feature
// plane's host-side gather kernel, for callers that account no transfer.
func GatherRowsInto(dst *tensor.Dense, g *graph.Graph, nodes []int32) *tensor.Dense {
	dst = tensor.GrowDense(dst, len(nodes), g.FeatDim)
	tensor.ParallelRows(len(nodes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			widenFloat32(dst.Row(i), g.Feature(nodes[i]))
		}
	})
	return dst
}

// NewSource builds the feature plane cfg describes over g — the one
// place that chooses between the two routes. Policy None or a zero
// capacity gives the direct (uncached) source, every requested row
// crossing the host link at cfg.Precision (PyG's template); anything
// else gives the cached source over Build(cfg). A plane that will never
// gather (gather false: timing-only runs) gets a residency-only cache
// that stores no rows: residency, every counter and the transfer
// pricing, which the source takes from g, are unchanged.
func NewSource(cfg Config, g *graph.Graph, gather bool) (FeatureSource, error) {
	if err := cfg.resolve(g); err != nil {
		return nil, err
	}
	if cfg.Policy == None || cfg.Capacity == 0 {
		return newGraphSource(g, cfg.Precision), nil
	}
	rows := g
	if !gather {
		rows = nil
	}
	return NewCachedSource(cfg.build(rows), g), nil
}

// newGraphSource returns the direct (uncached) source: rows are
// quantized to prec for the transfer (fused into the gather's widen
// kernel) and priced at the precision's row bytes.
func newGraphSource(g *graph.Graph, prec Precision) FeatureSource {
	s := &graphSource{g: g, rowBytes: prec.RowBytes(g.FeatDim), widen: prec.widen()}
	// Bound once so per-batch gathers dispatch a pre-allocated closure
	// (a fresh closure per call would cost one allocation per batch).
	s.copyFn = s.copyRange
	return s
}

type graphSource struct {
	g        *graph.Graph
	rowBytes int64
	widen    widenFunc
	bytes    int64

	// transient per-call state for the pre-bound sharded copy loop
	dst    *tensor.Dense
	nodes  []int32
	copyFn func(lo, hi int)
}

func (s *graphSource) copyRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.widen(s.dst.Row(i), s.g.Feature(s.nodes[i]))
	}
}

func (s *graphSource) Access(nodes []int32) BatchStats {
	st := BatchStats{Miss: len(nodes), TransferBytes: int64(len(nodes)) * s.rowBytes}
	s.bytes += st.TransferBytes
	return st
}

func (s *graphSource) GatherInto(dst *tensor.Dense, nodes []int32) (*tensor.Dense, BatchStats) {
	st := s.Access(nodes)
	dst = tensor.GrowDense(dst, len(nodes), s.g.FeatDim)
	s.dst, s.nodes = dst, nodes
	tensor.ParallelRows(len(nodes), s.copyFn)
	s.dst, s.nodes = nil, nil
	return dst, st
}

func (s *graphSource) Resident(int32) bool     { return false }
func (s *graphSource) HitRate() float64        { return 0 }
func (s *graphSource) TransferredBytes() int64 { return s.bytes }

// NewCachedSource returns the cached feature plane over the array-backed
// Cache: hits are served (dequantized) from the cache's own slot
// storage, misses transfer from the host at the cache's precision and —
// policy permitting — land quantized in the cache on admission. The
// source inherits the cache's precision, so the two planes can never
// disagree on row width. NewSource builds it from a Config; the
// benchmark harness calls it directly.
func NewCachedSource(c *Cache, g *graph.Graph) FeatureSource {
	prec := c.Precision()
	s := &kernelSource{k: c, c: c, g: g, rowBytes: prec.RowBytes(g.FeatDim), widen: prec.widen()}
	s.copyFn = s.copyRange
	return s
}

// NewKernelSource returns a feature plane over any cache Kernel (in
// particular the frozen MapReference) with every row gathered from the
// host array through prec's fused quantize→dequantize kernel. Cached
// rows are quantized with the same kernel on admission, so output is
// identical to a cached source at the same precision, and the
// equivalence tests can swap kernels under an unchanged pipeline.
func NewKernelSource(k Kernel, g *graph.Graph, prec Precision) FeatureSource {
	s := &kernelSource{k: k, g: g, rowBytes: prec.RowBytes(g.FeatDim), widen: prec.widen()}
	s.copyFn = s.copyRange
	return s
}

type kernelSource struct {
	k        Kernel
	c        *Cache // non-nil when hits may be served from slot storage
	g        *graph.Graph
	rowBytes int64
	widen    widenFunc
	bytes    int64

	missBuf []int32 // lookup scratch, reused across batches

	// transient per-call state for the pre-bound sharded copy loop
	dst    *tensor.Dense
	nodes  []int32
	copyFn func(lo, hi int)
}

// copyRange fills dst rows [lo, hi): hits dequantized from device slot
// storage, everything else from the host feature array through the
// precision's fused widen kernel. Slot rows were quantized by the same
// kernel on admission, so the output cannot depend on the branch taken;
// the loop only reads cache state, so sharding it across the worker
// pool is safe.
func (s *kernelSource) copyRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		row := s.dst.Row(i)
		if s.c != nil && s.c.rowInto(row, s.nodes[i]) {
			continue
		}
		s.widen(row, s.g.Feature(s.nodes[i]))
	}
}

func (s *kernelSource) Access(nodes []int32) BatchStats {
	miss := s.k.LookupInto(s.missBuf[:0], nodes)
	s.missBuf = miss
	ops := s.k.Update(miss)
	st := BatchStats{
		Miss:          len(miss),
		CacheOps:      ops,
		TransferBytes: int64(len(miss)) * s.rowBytes,
	}
	s.bytes += st.TransferBytes
	return st
}

func (s *kernelSource) GatherInto(dst *tensor.Dense, nodes []int32) (*tensor.Dense, BatchStats) {
	st := s.Access(nodes)
	dst = tensor.GrowDense(dst, len(nodes), s.g.FeatDim)
	// The Access above already admitted this batch's misses, so the
	// cache-row branch in copyRange also serves just-transferred rows
	// from device storage.
	s.dst, s.nodes = dst, nodes
	tensor.ParallelRows(len(nodes), s.copyFn)
	s.dst, s.nodes = nil, nil
	return dst, st
}

func (s *kernelSource) Resident(v int32) bool   { return s.k.Contains(v) }
func (s *kernelSource) HitRate() float64        { return s.k.HitRate() }
func (s *kernelSource) TransferredBytes() int64 { return s.bytes }

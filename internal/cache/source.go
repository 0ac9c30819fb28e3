package cache

import (
	"sync/atomic"

	"gnnavigator/internal/graph"
	"gnnavigator/internal/tensor"
)

// The feature plane.
//
// A FeatureSource is the single abstraction every layer that touches
// vertex features programs against: the pipeline's cache+gather step,
// the backend's transfer accounting, and (through Resident) the
// cache-aware biased samplers. A source gathers every row from the host
// array and accounts the rows a device cache did not hold as
// transferred bytes, which internal/sim prices as Eq. 6's t_transfer.
//
// Sources follow the same single-goroutine contract as samplers: Access
// and GatherInto run on exactly one goroutine per pipeline run (the
// caller's, or the producer), so sources keep mutable scratch across
// batches without locking. Resident (like Cache.Contains), HitRate and
// TransferredBytes are lock-free and safe from other goroutines.

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
}

// FeatureSource serves feature rows to the device and accounts the
// host→device traffic doing so.
type FeatureSource interface {
	// Access records a batch's row requests (cache lookup + policy
	// update) without materializing the rows — the timing-only path.
	Access(nodes []int32) BatchStats
	// GatherInto is Access plus filling dst (reallocating only when
	// capacity is short) with the feature rows of nodes, row i ↔
	// nodes[i], at the source's precision; it returns the matrix actually
	// filled plus the batch's transfer outcome.
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

// NewSource builds the feature plane cfg describes over g. Policy None
// or a zero capacity gives the uncached plane, every requested row
// crossing the host link at cfg.Precision (PyG's template); anything
// else gives the cached plane over Build(cfg). Either way rows are
// gathered the same way; the cache only decides which of them count as
// transferred.
func NewSource(cfg Config, g *graph.Graph) (FeatureSource, error) {
	if err := cfg.resolve(g); err != nil {
		return nil, err
	}
	if cfg.Policy == None || cfg.Capacity == 0 {
		return newSource(nil, g, cfg.Precision), nil
	}
	return NewCachedSource(cfg.build(g), g), nil
}

// NewCachedSource returns the cached feature plane over c at the cache's
// precision, so the two can never disagree on row width. NewSource
// builds it from a Config; the benchmark harness calls it directly.
func NewCachedSource(c *Cache, g *graph.Graph) FeatureSource {
	return newSource(c, g, c.Precision())
}

// newSource returns the feature plane over c at precision prec; a nil c
// is the uncached plane.
func newSource(c *Cache, g *graph.Graph, prec Precision) *source {
	s := &source{c: c, g: g, rowBytes: prec.RowBytes(g.FeatDim), widen: prec.widen()}
	// Bound once so per-batch gathers dispatch a pre-allocated closure
	// (a fresh closure per call would cost one allocation per batch).
	s.copyFn = s.copyRange
	return s
}

// source is the one FeatureSource implementation. Every row is
// gathered from the host feature array through the precision's fused
// quantize→dequantize kernel; the cache, when present, decides which
// rows were resident and which crossed the link.
type source struct {
	c        *Cache // nil: uncached, every row is transferred
	g        *graph.Graph
	rowBytes int64
	widen    widenFunc
	// bytes is read by serving statistics while the gathering
	// goroutine adds to it.
	bytes atomic.Int64

	missBuf []int32 // lookup scratch, reused across batches

	// transient per-call state for the pre-bound sharded copy loop
	dst    *tensor.Dense
	nodes  []int32
	copyFn func(lo, hi int)
}

func (s *source) copyRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.widen(s.dst.Row(i), s.g.Feature(s.nodes[i]))
	}
}

func (s *source) Access(nodes []int32) BatchStats {
	miss, ops := nodes, 0
	if s.c != nil {
		miss = s.c.LookupInto(s.missBuf[:0], nodes)
		s.missBuf = miss
		ops = s.c.Update(miss)
	}
	st := BatchStats{
		Miss:          len(miss),
		CacheOps:      ops,
		TransferBytes: int64(len(miss)) * s.rowBytes,
	}
	s.bytes.Add(st.TransferBytes)
	return st
}

func (s *source) GatherInto(dst *tensor.Dense, nodes []int32) (*tensor.Dense, BatchStats) {
	st := s.Access(nodes)
	dst = tensor.GrowDense(dst, len(nodes), s.g.FeatDim)
	s.dst, s.nodes = dst, nodes
	tensor.ParallelRows(len(nodes), s.copyFn)
	s.dst, s.nodes = nil, nil
	return dst, st
}

func (s *source) Resident(v int32) bool { return s.c != nil && s.c.Contains(v) }

func (s *source) HitRate() float64 {
	if s.c == nil {
		return 0
	}
	return s.c.HitRate()
}

func (s *source) TransferredBytes() int64 { return s.bytes.Load() }

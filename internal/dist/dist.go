// Package dist is the multi-device feature plane: K residency-only
// cache shards account disjoint vertex sub-streams of each batch, and
// rows whose consumer partition is not their owner are metered as
// halo-exchange traffic.
//
// Determinism contract. A K-device run at the same global batch schedule
// is bitwise-identical to the K=1 run: the batch's feature matrix is
// gathered from the host array through the same widen kernel the
// single-device plane dispatches (gathered values never depend on
// residency), and K data-parallel replicas of one model compute K
// identical gradients whose average is that gradient, so the backend
// prices the gradient all-reduce (backend.Perf.AllReduceBytes) instead
// of performing it. What changes with K is only the communication
// accounting: BatchStats.HaloBytes and the all-reduce bytes.
//
// Counter semantics per policy. With prefilled policies (static, freq)
// the shards are built by walking the *global* admission order and
// bucketing each admitted vertex to its owner, so the union of shard
// residency equals the single cache's residency exactly and every
// miss/transfer counter matches K=1. Dynamic policies (fifo, lru) shard
// the capacity proportionally to partition size; per-shard eviction is
// then a different replacement policy than one global ring, so volume
// counters may diverge from K=1 while trained parameters and accuracy
// remain bitwise-identical.
// The opt policy's clairvoyant script is compiled against one global
// cache and is rejected upstream (backend.Config.Validate) at K > 1.
package dist

import (
	"fmt"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/graph"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

// CheckReduction reports whether K data-parallel devices may have their
// gradient all-reduce priced instead of performed: K must be at least 2
// and a power of two, the only counts for which a tree reduction
// averages K equal replica gradients back to exactly that gradient.
func CheckReduction(k int) error {
	if k < 2 || k&(k-1) != 0 {
		return fmt.Errorf("dist: device count %d is not a power of two >= 2 (only then does averaging K equal replica gradients reproduce the gradient exactly)", k)
	}
	return nil
}

// Source is the K-partition feature plane. It implements
// cache.FeatureSource plus the pipeline's BatchAware hook (BeginBatch),
// which hands it the sampled minibatch topology the halo classification
// needs. Like every feature source, Access/GatherInto/BeginBatch run on
// one goroutine per pipeline run; the per-partition fan-out inside is
// the source's own.
type Source struct {
	g    *graph.Graph
	part *graph.Partition
	k    int
	subs []cache.FeatureSource
	prec cache.Precision

	rowBytes int64 // halo currency: precision row bytes at graph width

	// per-batch scratch: the vertex sub-stream of each partition and the
	// stats of its shard's Access.
	perNodes [][]int32
	perStats []cache.BatchStats

	// halo state: the current minibatch (set by BeginBatch) and a
	// per-consumer-device stamp array deduplicating remote rows within a
	// batch.
	mb         *sample.MiniBatch
	stamps     [][]int32
	batchStamp int32

	// cumulative accounting
	lookups, misses int64
	bytes           int64
	haloBytes       int64
}

// NewSource builds the partitioned feature plane over part. cfg is the
// single-device cache configuration, with cfg.Order the global admission
// order of a prefilled policy (static: degree order, freq: mined
// frequency order); each shard gets its share of it as its own
// cache.Config and goes through cache.NewSource. Policy none or a zero
// capacity yields uncached per-partition planes (every row crosses the
// host link, as at K=1).
func NewSource(g *graph.Graph, part *graph.Partition, cfg cache.Config) (*Source, error) {
	if g == nil || part == nil {
		return nil, fmt.Errorf("dist: nil graph or partition")
	}
	if len(part.Owner) != g.NumVertices() {
		return nil, fmt.Errorf("dist: partition covers %d vertices, graph has %d", len(part.Owner), g.NumVertices())
	}
	if part.K < 1 {
		return nil, fmt.Errorf("dist: partition has K = %d", part.K)
	}
	if cfg.Policy == cache.Opt {
		return nil, fmt.Errorf("dist: opt policy's global clairvoyant script cannot be sharded; use K=1")
	}
	k := part.K
	s := &Source{
		g: g, part: part, k: k,
		subs:     make([]cache.FeatureSource, k),
		prec:     cfg.Precision,
		rowBytes: cfg.Precision.RowBytes(g.FeatDim),
		perNodes: make([][]int32, k),
		perStats: make([]cache.BatchStats, k),
		stamps:   make([][]int32, k),
	}
	for i := range s.stamps {
		s.stamps[i] = make([]int32, g.NumVertices())
	}
	shards := make([]cache.Config, k)
	switch {
	case cfg.Policy == cache.None || cfg.Capacity <= 0:
		for i := range shards {
			shards[i] = cache.Config{Policy: cache.None, Precision: cfg.Precision}
		}
	case cfg.Policy.Prefilled():
		// Global-order walk: admit exactly what the single cache would
		// (the first capacity vertices of the global order), bucketed to
		// each vertex's owner. Shard residency unions to the global
		// residency, so hit/miss outcomes match K=1 per vertex.
		order := cfg.Order
		if order == nil {
			return nil, fmt.Errorf("dist: %s policy needs the global admission order", cfg.Policy)
		}
		if len(order) > cfg.Capacity {
			order = order[:cfg.Capacity]
		}
		for i := range shards {
			shards[i] = cfg
			shards[i].Order = []int32{} // non-nil: an empty bucket is still an order
		}
		for _, v := range order {
			o := part.Owner[v]
			shards[o].Order = append(shards[o].Order, v)
		}
		for i := range shards {
			shards[i].Capacity = len(shards[i].Order)
		}
	case cfg.Policy.Dynamic():
		for i, c := range splitCapacity(cfg.Capacity, part.VertexCounts) {
			shards[i] = cfg
			shards[i].Capacity = c
		}
	default:
		return nil, fmt.Errorf("dist: unsupported cache policy %q", cfg.Policy)
	}
	for i, sc := range shards {
		var err error
		if s.subs[i], err = cache.NewSource(sc, g); err != nil {
			return nil, fmt.Errorf("dist: shard %d: %w", i, err)
		}
	}
	return s, nil
}

// splitCapacity divides total capacity across partitions proportionally
// to their vertex counts, distributing the remainder by largest
// fractional share (ties to the lower partition index) so the shares are
// deterministic and sum exactly to total.
func splitCapacity(total int, counts []int) []int {
	k := len(counts)
	caps := make([]int, k)
	n := 0
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return caps
	}
	rem := total
	type frac struct {
		idx  int
		part int // numerator of the fractional share, over n
	}
	fracs := make([]frac, 0, k)
	for i, c := range counts {
		caps[i] = total * c / n
		rem -= caps[i]
		fracs = append(fracs, frac{idx: i, part: total * c % n})
	}
	// Hand out the remainder to the largest fractional shares.
	for ; rem > 0; rem-- {
		best := -1
		for _, f := range fracs {
			if f.part > 0 && (best < 0 || f.part > fracs[best].part) {
				best = f.idx
			}
		}
		if best < 0 {
			best = 0
		}
		caps[best]++
		fracs[best].part = 0
	}
	return caps
}

// BeginBatch implements the pipeline's BatchAware hook: it hands the
// source the sampled topology of the batch about to be served, which the
// halo classification reads (which consumer partition each input row's
// destination vertices belong to is only visible in the sampled blocks).
func (s *Source) BeginBatch(mb *sample.MiniBatch) { s.mb = mb }

// meterHalo classifies the current batch's remote feature rows: for each
// destination vertex of the input-layer block, every sampled neighbor
// owned by a different partition than the destination's owner is one row
// that partition must fetch over the interconnect. Rows are deduplicated
// per (consumer, vertex) within the batch — a device fetches each remote
// row once per batch, however many of its destinations touch it.
func (s *Source) meterHalo() int64 {
	if err := faultinject.Fire(faultinject.DistHalo); err != nil {
		// No error return on the FeatureSource path; the pipeline's
		// gather-stage containment converts this panic into a clean error.
		panic(fmt.Errorf("dist: halo exchange: %w", err))
	}
	if s.mb == nil || s.k == 1 || len(s.mb.Blocks) == 0 {
		return 0
	}
	s.batchStamp++
	blk := &s.mb.Blocks[0]
	owner := s.part.Owner
	var rows int64
	for j := 0; j < blk.DstCount; j++ {
		c := owner[blk.SrcNodes[j]]
		st := s.stamps[c]
		for _, idx := range blk.Indices[blk.Offsets[j]:blk.Offsets[j+1]] {
			u := blk.SrcNodes[idx]
			if owner[u] != c && st[u] != s.batchStamp {
				st[u] = s.batchStamp
				rows++
			}
		}
	}
	return rows * s.rowBytes
}

// Access implements the timing-only path: the batch's halo rows are
// classified and metered, then each partition's shard looks up and
// updates on its own sub-stream (batch order preserved within each,
// fanned out on the tensor worker pool). The per-partition stats are
// summed in fixed partition index order, independent of which worker
// finished first, and folded into the cumulative accounting.
func (s *Source) Access(nodes []int32) cache.BatchStats {
	halo := s.meterHalo()
	for k := 0; k < s.k; k++ {
		s.perNodes[k] = s.perNodes[k][:0]
	}
	for _, v := range nodes {
		k := s.part.Owner[v]
		s.perNodes[k] = append(s.perNodes[k], v)
	}
	tensor.ForEachIndex(s.k, 0, func(k int) {
		s.perStats[k] = s.subs[k].Access(s.perNodes[k])
	})
	var st cache.BatchStats
	for k := 0; k < s.k; k++ {
		st.Miss += s.perStats[k].Miss
		st.CacheOps += s.perStats[k].CacheOps
		st.TransferBytes += s.perStats[k].TransferBytes
	}
	st.HaloBytes = halo
	s.lookups += int64(len(nodes))
	s.misses += int64(st.Miss)
	s.bytes += st.TransferBytes
	s.haloBytes += halo
	return st
}

// GatherInto is Access plus one gather of every row from the host array
// through the precision's widen kernel, exactly as the single-device
// plane gathers, so dst is bitwise that plane's at any worker count.
func (s *Source) GatherInto(dst *tensor.Dense, nodes []int32) (*tensor.Dense, cache.BatchStats) {
	st := s.Access(nodes)
	dst = tensor.GrowDense(dst, len(nodes), s.g.FeatDim)
	tensor.ParallelRows(len(nodes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.prec.WidenRow(dst.Row(i), s.g.Feature(nodes[i]))
		}
	})
	return dst, st
}

// Resident reports residency of v on its owning partition's shard.
func (s *Source) Resident(v int32) bool {
	return s.subs[s.part.Owner[v]].Resident(v)
}

// HitRate returns the cumulative hit rate across all shards.
func (s *Source) HitRate() float64 {
	if s.lookups == 0 {
		return 0
	}
	return float64(s.lookups-s.misses) / float64(s.lookups)
}

// TransferredBytes returns cumulative host→device feature traffic summed
// over shards (halo traffic is accounted separately; see HaloBytes).
func (s *Source) TransferredBytes() int64 { return s.bytes }

// HaloBytes returns cumulative device-to-device halo-exchange traffic.
func (s *Source) HaloBytes() int64 { return s.haloBytes }

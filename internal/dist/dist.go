// Package dist is the multi-device training substrate: a partitioned
// feature plane whose K shards serve disjoint vertex sub-streams of each
// batch (with remote rows metered through a halo-exchange step), and a
// deterministic ordered all-reduce for per-step gradient aggregation.
//
// Determinism contract. A K-device run at the same global batch schedule
// is bitwise-identical to the K=1 run: the batch's gathered feature
// matrix is assembled from per-partition gathers that route every row
// through the same widen/dequantize kernels the single-device plane
// dispatches (the feature plane guarantees gathered values never depend
// on the hit/miss branch), and the all-reduce of K identical replica
// gradients reduces in a fixed partition-index tree whose result is
// exactly the original gradient for power-of-two K. What changes with K
// is only the new communication accounting: BatchStats.HaloBytes and the
// reducer's wire bytes.
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

	rowBytes int64 // halo currency: precision row bytes at graph width

	// per-batch scratch: the vertex sub-stream (and original row
	// positions) of each partition, the per-partition staging matrices
	// the sub-gathers fill, and their stats.
	perNodes [][]int32
	perPos   [][]int32
	staging  []*tensor.Dense
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
// cache.Config and goes through cache.NewSource, gather included. Policy
// none or a zero capacity yields uncached per-partition planes (every
// row crosses the host link, as at K=1).
func NewSource(g *graph.Graph, part *graph.Partition, cfg cache.Config, gather bool) (*Source, error) {
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
		rowBytes: cfg.Precision.RowBytes(g.FeatDim),
		perNodes: make([][]int32, k),
		perPos:   make([][]int32, k),
		staging:  make([]*tensor.Dense, k),
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
		if s.subs[i], err = cache.NewSource(sc, g, gather); err != nil {
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

// split partitions nodes into per-owner sub-streams, preserving batch
// order within each, and records each row's original position for the
// scatter after the per-partition gathers.
func (s *Source) split(nodes []int32) {
	for k := 0; k < s.k; k++ {
		s.perNodes[k] = s.perNodes[k][:0]
		s.perPos[k] = s.perPos[k][:0]
	}
	owner := s.part.Owner
	for i, v := range nodes {
		k := owner[v]
		s.perNodes[k] = append(s.perNodes[k], v)
		s.perPos[k] = append(s.perPos[k], int32(i))
	}
}

// reduceStats sums the per-partition batch stats in fixed partition
// index order — independent of which worker finished first — and folds
// them into the cumulative accounting.
func (s *Source) reduceStats(nodes []int32, halo int64) cache.BatchStats {
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

// Access implements the timing-only path: each partition's shard looks
// up and updates on its own sub-stream (fanned out on the tensor worker
// pool), and the batch's halo rows are classified and metered.
func (s *Source) Access(nodes []int32) cache.BatchStats {
	halo := s.meterHalo()
	s.split(nodes)
	tensor.ForEachIndex(s.k, 0, func(k int) {
		s.perStats[k] = s.subs[k].Access(s.perNodes[k])
	})
	return s.reduceStats(nodes, halo)
}

// GatherInto fills dst with the feature rows of nodes. Each partition
// worker gathers its owned rows into a per-partition staging matrix
// through its own shard (lookup, update, transfer accounting, row
// copies), then scatters them to the rows' batch positions — the local
// materialization half of a gather-then-exchange step. Workers run
// concurrently on the tensor pool; rows land at positions determined
// only by the batch order, so dst is bitwise-identical to the
// single-device gather at any worker count.
func (s *Source) GatherInto(dst *tensor.Dense, nodes []int32) (*tensor.Dense, cache.BatchStats) {
	halo := s.meterHalo()
	s.split(nodes)
	dst = tensor.GrowDense(dst, len(nodes), s.g.FeatDim)
	tensor.ForEachIndex(s.k, 0, func(k int) {
		s.staging[k], s.perStats[k] = s.subs[k].GatherInto(s.staging[k], s.perNodes[k])
		for j, pos := range s.perPos[k] {
			copy(dst.Row(int(pos)), s.staging[k].Row(j))
		}
	})
	return dst, s.reduceStats(nodes, halo)
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

// Partition exposes the vertex partition backing the plane.
func (s *Source) Partition() *graph.Partition { return s.part }

package plan

import (
	"sync/atomic"

	"gnnavigator/internal/graph"
	"gnnavigator/internal/sample"
)

// Cache keeps compiled plans by key for one owner: the Step-1
// calibration fan-out builds one per sampling core, whose probes differ
// only in cache/model knobs and so replay the plans its first probe
// compiled. A Cache is not safe for concurrent use; its owner runs the
// probes that fetch through it one at a time. A nil Cache keeps nothing.
type Cache map[Key]*Plan

var (
	compileCount atomic.Int64
	hitCount     atomic.Int64
)

// Get returns the plan c keeps for key, or compiles it and, unless c is
// nil, keeps it. smp is consumed only when Get compiles (it must be a
// fresh, unbiased sampler — compiling mutates its scratch). A failed
// compile is never kept, so the next Get retries it.
func (c Cache) Get(g *graph.Graph, smp sample.Sampler, key Key, targets []int32) (*Plan, error) {
	if p, ok := c[key]; ok {
		hitCount.Add(1)
		return p, nil
	}
	p, err := Compile(g, smp, key, targets)
	if err != nil {
		return nil, err
	}
	compileCount.Add(1)
	if c != nil {
		c[key] = p
	}
	return p, nil
}

// Compiles reports how many plans Get has compiled since the last
// ResetCounters — the "each unique plan sampled exactly once" proof the
// calibration-sharing tests assert on.
func Compiles() int64 { return compileCount.Load() }

// CacheHits reports how many Get calls were served from a kept plan
// since the last ResetCounters.
func CacheHits() int64 { return hitCount.Load() }

// ResetCounters zeroes the Compiles/CacheHits counters.
func ResetCounters() {
	compileCount.Store(0)
	hitCount.Store(0)
}

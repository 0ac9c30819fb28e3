package plan

import (
	"sync"
	"sync/atomic"

	"gnnavigator/internal/graph"
	"gnnavigator/internal/sample"
)

// Single-flight plan cache (the estimator's flightCell idiom): the
// Step-1 calibration fan-out runs many probes whose sampling keys
// collide — same dataset, sampler, batch size, seed and epochs, varying
// only cache/model knobs — and each unique key must be compiled exactly
// once, with concurrent probes for the same key blocking on that single
// compile rather than duplicating it. Only successful compiles are
// cached; a failed compile is retried by the next caller.

// planCell single-flights one key's compilation.
type planCell struct {
	mu   sync.Mutex
	plan *Plan
}

var (
	sharedMu sync.Mutex
	shared   = map[string]*planCell{}

	compileCount atomic.Int64
	hitCount     atomic.Int64
)

// Shared returns the compiled plan for key, compiling it at most once
// per process. smp is consumed only when this call performs the compile
// (it must be a fresh, unbiased sampler — compiling mutates its
// scratch), so concurrent callers may each pass their own.
func Shared(g *graph.Graph, smp sample.Sampler, key Key, targets []int32) (*Plan, error) {
	sharedMu.Lock()
	cell, ok := shared[key.String()]
	if !ok {
		cell = &planCell{}
		shared[key.String()] = cell
	}
	sharedMu.Unlock()

	cell.mu.Lock()
	defer cell.mu.Unlock()
	if cell.plan != nil {
		hitCount.Add(1)
		return cell.plan, nil
	}
	p, err := Compile(g, smp, key, targets)
	if err != nil {
		return nil, err
	}
	compileCount.Add(1)
	cell.plan = p
	return p, nil
}

// Compiles reports how many plans Shared has compiled since the last
// ResetCounters — the "each unique plan sampled exactly once" proof the
// calibration-sharing tests assert on.
func Compiles() int64 { return compileCount.Load() }

// CacheHits reports how many Shared calls were served from an already
// compiled plan since the last ResetCounters.
func CacheHits() int64 { return hitCount.Load() }

// ResetCounters zeroes the Compiles/CacheHits counters (the compiled
// plans themselves stay cached).
func ResetCounters() {
	compileCount.Store(0)
	hitCount.Store(0)
}

package plan

import (
	"sync"
	"sync/atomic"

	"gnnavigator/internal/graph"
	"gnnavigator/internal/sample"
)

// Single-flight plan sharing (the estimator's flightCell idiom), scoped
// by holds: the Step-1 calibration fan-out runs many probes whose
// sampling keys collide — same dataset, sampler, batch size, seed and
// epochs, varying only cache/model knobs — and each unique key must be
// compiled exactly once, with concurrent probes for the same key
// blocking on that single compile rather than duplicating it. A caller
// that knows which keys its runs will fetch Holds them for the runs'
// duration; a compiled plan lives exactly as long as some hold on its
// key, so the process-wide map never outgrows the sweeps in flight.
// A fetch of an unheld key compiles and hands the plan back without
// retaining it. Only successful compiles are kept; a failed compile is
// retried by the next caller.

// planCell single-flights one held key's compilation. holds is guarded
// by sharedMu, plan by mu.
type planCell struct {
	mu    sync.Mutex
	plan  *Plan
	holds int
}

var (
	sharedMu sync.Mutex
	shared   = map[string]*planCell{} // held keys only

	compileCount atomic.Int64
	hitCount     atomic.Int64
)

// Hold retains the plans of keys (compiled on their first Shared fetch)
// until the returned release is called. Holds nest: a key stays
// retained until every hold on it is released. release is idempotent.
func Hold(keys ...Key) (release func()) {
	ids := make([]string, len(keys))
	sharedMu.Lock()
	for i, k := range keys {
		ids[i] = k.String()
		cell, ok := shared[ids[i]]
		if !ok {
			cell = &planCell{}
			shared[ids[i]] = cell
		}
		cell.holds++
	}
	sharedMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			sharedMu.Lock()
			defer sharedMu.Unlock()
			for _, id := range ids {
				cell := shared[id]
				if cell.holds--; cell.holds == 0 {
					delete(shared, id)
				}
			}
		})
	}
}

// Held reports how many distinct keys are currently held — an upper
// bound on the plans Shared retains. Only tests call it; the estimator's
// tests check across packages that a sweep leaves no plan held.
func Held() int {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	return len(shared)
}

// Shared returns the compiled plan for key. A held key is compiled at
// most once while it stays held; an unheld key is compiled for this
// call alone. smp is consumed only when this call performs the compile
// (it must be a fresh, unbiased sampler — compiling mutates its
// scratch), so concurrent callers may each pass their own.
func Shared(g *graph.Graph, smp sample.Sampler, key Key, targets []int32) (*Plan, error) {
	sharedMu.Lock()
	cell := shared[key.String()]
	sharedMu.Unlock()
	if cell == nil {
		p, err := Compile(g, smp, key, targets)
		if err != nil {
			return nil, err
		}
		compileCount.Add(1)
		return p, nil
	}

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

// CacheHits reports how many Shared calls were served from a held,
// already compiled plan since the last ResetCounters.
func CacheHits() int64 { return hitCount.Load() }

// ResetCounters zeroes the Compiles/CacheHits counters. Held plans are
// untouched; they go when their last hold is released.
func ResetCounters() {
	compileCount.Store(0)
	hitCount.Store(0)
}

// Package faultinject provides named, deterministic fault-injection
// points for the chaos test suite. A point is a call site in a
// production path (the pipeline's producer, the tensor worker pool, the
// cache's update path, plan/checkpoint/model IO, estimator probe runs,
// the serving path)
// that consults this package's registry on every pass: disarmed — the
// permanent production state — the consultation is a single atomic load
// and the site behaves as if the call were compiled out; armed, the
// site fails in a precisely scheduled way.
//
// Determinism contract: faults are scheduled by hit count, never by
// probability or wall clock. Arm(point, Spec{After: 3, Count: 1}) fires
// on exactly the 4th pass through the site and never again, so a chaos
// run is exactly reproducible — the same fault hits the same batch of
// the same epoch every time. Byte corruption (Mutate) flips bits chosen
// by a SplitMix64 stream seeded from Spec.Seed and the hit index,
// deterministic in the same way.
//
// The registry is process-global and safe for concurrent use; tests
// that arm points must not run in parallel with tests that assume a
// clean registry (use Reset in defer).
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site.
type Point string

// The injection-point catalog. Each constant is a real call site in the
// named subsystem; the chaos suite arms each in turn.
const (
	// PipelineSample fires in the pipeline's producer loop, once per
	// batch, before the minibatch is sampled (or replayed from a plan).
	PipelineSample Point = "pipeline/sample"
	// PipelineGather fires in the pipeline's producer loop, once per
	// batch, after sampling and before the feature plane is touched.
	PipelineGather Point = "pipeline/gather"
	// TensorWorker fires in the tensor worker pool, once per dispatched
	// shard job (the sharded kernels' unit of work).
	TensorWorker Point = "tensor/worker"
	// CacheShard fires in Cache.Update, once per batch.
	CacheShard Point = "cache/shard"
	// PlanSave fires in plan.SaveFile before the file is written; with
	// Kind Corrupt it bit-flips the serialized payload instead, which the
	// CRC-64 footer must catch on load.
	PlanSave Point = "plan/save"
	// PlanLoad fires in plan.LoadFile before the file is read.
	PlanLoad Point = "plan/load"
	// CheckpointSave fires in backend.SaveCheckpoint before the write;
	// Kind Corrupt bit-flips the serialized payload.
	CheckpointSave Point = "backend/checkpoint-save"
	// CheckpointLoad fires in backend.LoadCheckpoint before the read.
	CheckpointLoad Point = "backend/checkpoint-load"
	// EstimatorProbe fires at the start of every calibration profiling
	// run in estimator.CollectWith — the site the bounded-backoff retry
	// policy wraps.
	EstimatorProbe Point = "estimator/probe"
	// ModelSave fires in model.Save before the file is written; Kind
	// Corrupt bit-flips the serialized payload, which the CRC-64 footer
	// must catch on load.
	ModelSave Point = "model/save"
	// ModelLoad fires in model.Load before the file is read.
	ModelLoad Point = "model/load"
	// ServeDecode fires in the serving handler before a /predict request
	// body is decoded (internal/serve).
	ServeDecode Point = "serve/decode"
	// ServeFlush fires in the request coalescer before a coalesced batch
	// is flushed through the inference engine (internal/infer).
	ServeFlush Point = "serve/flush"
	// DistHalo fires in backend.RunWith's consumer on multi-device runs,
	// once per batch, before the batch's halo rows are counted.
	DistHalo Point = "dist/halo"
)

// Points lists the full injection-point catalog.
func Points() []Point {
	return []Point{PipelineSample, PipelineGather, TensorWorker, CacheShard,
		PlanSave, PlanLoad, CheckpointSave, CheckpointLoad, EstimatorProbe,
		ModelSave, ModelLoad, ServeDecode, ServeFlush, DistHalo}
}

// Kind selects what an armed point does when its schedule fires.
type Kind int

// Fault kinds.
const (
	// Error makes Fire return ErrInjected (wrapped with the point name).
	Error Kind = iota
	// Panic makes Fire panic — the input to every containment path.
	Panic
	// Delay makes Fire sleep Spec.Sleep (default 1ms) and return nil:
	// a slow stage, not a failed one.
	Delay
	// Corrupt makes Mutate flip Spec.Bits deterministic bits (default 1)
	// in the buffer it is given; Fire returns nil.
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ErrInjected is the sentinel all Error-kind faults wrap; chaos tests
// assert errors.Is(err, ErrInjected) to distinguish an injected failure
// from a real one.
var ErrInjected = errors.New("injected fault")

// Spec schedules a fault at a point.
type Spec struct {
	Kind Kind
	// After skips the first After hits of the site (0 = fire from the
	// first hit). Hit counting starts at Arm.
	After int64
	// Count bounds how many hits fire (0 = every hit past After).
	Count int64
	// Sleep is the Delay duration (default 1ms).
	Sleep time.Duration
	// Seed roots the Corrupt bit-position stream (default 1).
	Seed uint64
	// Bits is how many bits Corrupt flips per firing (default 1).
	Bits int
}

// armedPoint is the registry entry for one armed site.
type armedPoint struct {
	spec  Spec
	hits  atomic.Int64 // passes through the site since Arm
	fired atomic.Int64 // firings so far
}

// fire reports whether this pass (hit index h, 0-based) is scheduled.
func (a *armedPoint) shouldFire(h int64) bool {
	if h < a.spec.After {
		return false
	}
	if a.spec.Count > 0 && a.fired.Load() >= a.spec.Count {
		return false
	}
	a.fired.Add(1)
	return true
}

var (
	// armedN is the fast path: zero means no point is armed anywhere and
	// Fire/Mutate return immediately after one atomic load. This is the
	// production state; everything below it is test machinery.
	armedN atomic.Int32

	mu    sync.Mutex
	table = map[Point]*armedPoint{}
	// hitLog keeps cumulative per-point hit counts across Reset so
	// tests can assert a site was actually exercised.
	hitLog sync.Map // Point -> *atomic.Int64
)

// Arm schedules a fault at p. Re-arming an armed point replaces its
// spec and restarts its hit count.
func Arm(p Point, spec Spec) {
	if spec.Sleep <= 0 {
		spec.Sleep = time.Millisecond
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Bits <= 0 {
		spec.Bits = 1
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := table[p]; !ok {
		armedN.Add(1)
	}
	table[p] = &armedPoint{spec: spec}
}

// Reset disarms every point. Chaos tests defer it so a failed assertion
// cannot leave a fault armed for the rest of the package run.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armedN.Add(int32(-len(table)))
	table = map[Point]*armedPoint{}
}

// Hits returns how many times site p has been passed (armed or not
// since the point was first armed; counting survives Reset). Only tests
// call it; the estimator, backend and core tests count fired sites with it.
func Hits(p Point) int64 {
	if v, ok := hitLog.Load(p); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

func countHit(p Point) {
	v, ok := hitLog.Load(p)
	if !ok {
		v, _ = hitLog.LoadOrStore(p, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
}

func lookup(p Point) *armedPoint {
	mu.Lock()
	defer mu.Unlock()
	return table[p]
}

// Fire is the injection site entry point: a no-op (one atomic load)
// unless p is armed, in which case it counts the hit and — when the
// schedule fires — returns an error, panics, or sleeps per the spec.
// Sites without an error return propagate the Error kind by panicking
// with the returned error themselves; the containment layers convert it
// back. Corrupt-kind specs never fire here (only through Mutate).
func Fire(p Point) error {
	if armedN.Load() == 0 {
		return nil
	}
	a := lookup(p)
	if a == nil {
		return nil
	}
	if a.spec.Kind == Corrupt {
		// Corrupt specs schedule Mutate calls only; consuming their
		// hit/fire budget here would exhaust Count before the site's
		// Mutate pass ever sees it.
		return nil
	}
	countHit(p)
	h := a.hits.Add(1) - 1
	if !a.shouldFire(h) {
		return nil
	}
	switch a.spec.Kind {
	case Panic:
		panic(fmt.Sprintf("faultinject: %s: injected panic (hit %d)", p, h))
	case Delay:
		time.Sleep(a.spec.Sleep)
		return nil
	default:
		return fmt.Errorf("faultinject: %s (hit %d): %w", p, h, ErrInjected)
	}
}

// Mutate is the byte-corruption site entry point: when p is armed with
// a Corrupt spec and the schedule fires, it flips Spec.Bits bits of buf
// at positions drawn from a SplitMix64 stream seeded by (Spec.Seed, hit
// index). Any other armed kind (or disarmed state) leaves buf
// untouched. Callers hand Mutate the serialized payload just before it
// is written, so checksum verification on the read side is what must
// catch the damage.
func Mutate(p Point, buf []byte) {
	if armedN.Load() == 0 || len(buf) == 0 {
		return
	}
	a := lookup(p)
	if a == nil || a.spec.Kind != Corrupt {
		return
	}
	countHit(p)
	h := a.hits.Add(1) - 1
	if !a.shouldFire(h) {
		return
	}
	s := a.spec.Seed + uint64(h)*0x9e3779b97f4a7c15
	for i := 0; i < a.spec.Bits; i++ {
		s = splitmix64(&s)
		bit := s % uint64(len(buf)*8)
		buf[bit/8] ^= 1 << (bit % 8)
	}
}

// splitmix64 advances *s and returns the next output — the same mixer
// the sampling RNG derivation uses, so corruption positions are stable
// across platforms.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

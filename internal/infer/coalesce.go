package infer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gnnavigator/internal/faultinject"
)

// Request coalescing: the serving layer's answer to per-request batches
// being tiny. A GNN forward pass over 1 target costs nearly as much
// fixed overhead as one over 100, and the feature plane amortizes far
// better over a wide gather — so concurrent requests are merged into
// one engine Predict per flush.
//
// The flush rule is group commit: Predict appends to one pending queue,
// and the single dispatcher, whenever the engine is idle, takes what is
// pending (up to MaxBatch vertices) and flushes it now. Requests that
// arrive during a flush form the next batch. Nothing ever waits for
// company, so width tracks load by itself: one request per flush on an
// idle server, wide flushes on a busy one.

// ErrCoalescerClosed is returned by Predict after Close.
var ErrCoalescerClosed = errors.New("infer: coalescer closed")

const defaultMaxBatch = 256

// CoalescerConfig tunes the coalescer.
type CoalescerConfig struct {
	// MaxBatch bounds one flush: queued requests join it in arrival
	// order while their target vertices fit (default 256). A single
	// request larger than MaxBatch flushes alone, whole — the engine
	// chunks it internally.
	MaxBatch int
}

type coalReq struct {
	ctx     context.Context
	targets []int32
	resp    chan coalResp // buffered: its one answer never blocks the sender
}

type coalResp struct {
	classes []int32
	err     error
}

// Coalescer merges concurrent Predict calls into minibatched engine
// runs. Safe for concurrent use.
type Coalescer struct {
	eng      *Engine
	maxBatch int

	mu      sync.Mutex
	arrived *sync.Cond // signalled on enqueue and on Close; the dispatcher waits
	pending []*coalReq // arrival order; every entry is answered exactly once unless its ctx ends first
	closed  bool
	wg      sync.WaitGroup

	flushes      atomic.Int64
	flushedVerts atomic.Int64
}

// NewCoalescer starts the dispatcher goroutine; Close stops it.
func NewCoalescer(eng *Engine, cfg CoalescerConfig) *Coalescer {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	c := &Coalescer{eng: eng, maxBatch: cfg.MaxBatch}
	c.arrived = sync.NewCond(&c.mu)
	c.wg.Add(1)
	go c.dispatch()
	return c
}

// Predict enqueues targets, waits for the flush that carries them, and
// returns one class per target (in target order). The context is
// honored at request granularity: a caller whose ctx ends while queued
// or in flight unblocks immediately with ctx.Err(), and a request whose
// ctx ended before the dispatcher reached it is never computed.
func (c *Coalescer) Predict(ctx context.Context, targets []int32) ([]int32, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("infer: empty target set")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := &coalReq{ctx: ctx, targets: targets, resp: make(chan coalResp, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCoalescerClosed
	}
	c.pending = append(c.pending, r)
	c.mu.Unlock()
	c.arrived.Signal()
	select {
	case resp := <-r.resp:
		return resp.classes, resp.err
	case <-ctx.Done():
		// If a flush already carries the request its answer lands in the
		// buffered resp channel and is abandoned.
		return nil, ctx.Err()
	}
}

// Queued reports how many requests are waiting for a flush — not the
// ones the running flush carries. It is 0 on an idle coalescer and grows
// only while the engine is busy. A request whose context ended while
// queued is counted until the dispatcher next assembles a batch.
func (c *Coalescer) Queued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Flushes reports how many coalesced batches have been flushed.
func (c *Coalescer) Flushes() int64 { return c.flushes.Load() }

// MeanBatch reports the mean target vertices per flush.
func (c *Coalescer) MeanBatch() float64 {
	f := c.flushes.Load()
	if f == 0 {
		return 0
	}
	return float64(c.flushedVerts.Load()) / float64(f)
}

// Close stops the dispatcher and returns once it has exited. The flush
// in flight completes and its callers get results; every request still
// queued is answered with ErrCoalescerClosed, as is any later Predict.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.arrived.Signal()
	c.wg.Wait()
}

// dispatch is the single flusher goroutine: take what is pending, flush
// it, repeat; park only when nothing is.
func (c *Coalescer) dispatch() {
	defer c.wg.Done()
	for {
		batch, verts, closed := c.take()
		if closed {
			failBatch(batch, ErrCoalescerClosed)
			return
		}
		c.flush(batch, verts)
	}
}

// take blocks until there is something to flush and removes it from the
// head of the queue: requests in arrival order while they fit in
// maxBatch vertices (the first always fits). Requests whose context has
// already ended are dropped here — their callers have returned ctx.Err()
// — so their vertices are never computed. After Close it returns the
// whole remaining queue with closed set.
func (c *Coalescer) take() (batch []*coalReq, verts int, closed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			batch, c.pending = c.pending, nil
			return batch, 0, true
		}
		n := 0
		for _, r := range c.pending {
			if r.ctx.Err() == nil {
				if len(batch) > 0 && verts+len(r.targets) > c.maxBatch {
					break
				}
				batch = append(batch, r)
				verts += len(r.targets)
			}
			n++
		}
		// Shift the remainder down so the queue's backing array is
		// reused and taken requests are not pinned by it.
		rest := copy(c.pending, c.pending[n:])
		clear(c.pending[rest:])
		c.pending = c.pending[:rest]
		if len(batch) > 0 {
			return batch, verts, false
		}
		c.arrived.Wait()
	}
}

// failBatch answers every request of batch with err.
func failBatch(batch []*coalReq, err error) {
	for _, r := range batch {
		r.resp <- coalResp{err: err}
	}
}

// flush runs one coalesced engine Predict and scatters the per-vertex
// classes back to each request. Cross-request duplicate targets are
// collapsed inside Engine.Predict, so the union is passed as-is and the
// returned classes align with it positionally. The run is not bound to
// any one request's context: it serves all of them.
func (c *Coalescer) flush(batch []*coalReq, verts int) {
	c.flushes.Add(1)
	c.flushedVerts.Add(int64(verts))
	if err := faultinject.Fire(faultinject.ServeFlush); err != nil {
		failBatch(batch, fmt.Errorf("infer: flush: %w", err))
		return
	}
	union := make([]int32, 0, verts)
	for _, r := range batch {
		union = append(union, r.targets...)
	}
	pred, err := c.eng.Predict(context.Background(), union)
	if err != nil {
		failBatch(batch, err)
		return
	}
	off := 0
	for _, r := range batch {
		classes := append([]int32(nil), pred.Classes[off:off+len(r.targets)]...)
		off += len(r.targets)
		r.resp <- coalResp{classes: classes}
	}
}

package tensor

import "sync"

// Workspace is an arena of reusable Dense buffers backed by sync.Pool,
// keyed by power-of-two capacity buckets so the size-varying
// intermediates of sampled mini-batches (DstCount and srcRows differ
// every batch) still reuse each other's storage, and the pool-key space
// stays logarithmic. Steady-state forward/backward passes stop
// allocating. The intended lifecycle is per training iteration:
//
//	buf := ws.Get(r, c)   // contents undefined; zero if you accumulate
//	...
//	ws.Put(buf)           // optional early return
//	ws.ReleaseAll()       // end of iteration: recycle everything handed out
//
// A buffer obtained from Get stays valid until it is Put or ReleaseAll is
// called, so layers may cache pointers to intermediates across
// forward/backward within one iteration. A nil *Workspace is valid and
// degrades to plain allocation (Get == New, Put/ReleaseAll are no-ops),
// which keeps non-hot-path callers and old tests unchanged.
//
// Workspace methods are mutex-guarded so kernels running on the worker
// pool may Get scratch, but the arena is designed for one training loop,
// not for sharing across concurrent runs.
//
// sync.Pool backing means the GC may trim idle buffers (its victim
// cache keeps them for one extra cycle, so per-iteration reuse between
// collections is unaffected — bench's go.mallocs_per_op on the train
// workload shows steady-state allocs stay flat). The trade: the arena never pins memory an idle run
// no longer needs.
type Workspace struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
	inUse []*Dense
}

// NewWorkspace returns an empty arena.
func NewWorkspace() *Workspace {
	return &Workspace{pools: make(map[int]*sync.Pool)}
}

// bucketFor rounds n up to the pool's power-of-two size class.
func bucketFor(n int) int {
	b := 1
	for b < n {
		b <<= 1
	}
	return b
}

// Get returns a rows x cols matrix whose contents are undefined. The
// buffer is tracked as in-use until Put or ReleaseAll.
func (ws *Workspace) Get(rows, cols int) *Dense {
	if ws == nil {
		return New(rows, cols)
	}
	n := rows * cols
	bucket := bucketFor(n)
	ws.mu.Lock()
	pool, ok := ws.pools[bucket]
	if !ok {
		pool = &sync.Pool{}
		ws.pools[bucket] = pool
	}
	var m *Dense
	if v := pool.Get(); v != nil {
		m = v.(*Dense)
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
	} else {
		m = &Dense{Rows: rows, Cols: cols, Data: make([]float64, n, bucket)}
	}
	ws.inUse = append(ws.inUse, m)
	ws.mu.Unlock()
	return m
}

// GetZeroed returns a rows x cols matrix with every element cleared.
func (ws *Workspace) GetZeroed(rows, cols int) *Dense {
	m := ws.Get(rows, cols)
	m.Zero()
	return m
}

// Put returns m to the arena ahead of ReleaseAll. Buffers not obtained
// from this workspace are ignored.
func (ws *Workspace) Put(m *Dense) {
	if ws == nil || m == nil {
		return
	}
	ws.mu.Lock()
	for i, u := range ws.inUse {
		if u == m {
			last := len(ws.inUse) - 1
			ws.inUse[i] = ws.inUse[last]
			ws.inUse[last] = nil
			ws.inUse = ws.inUse[:last]
			ws.pools[cap(m.Data)].Put(m)
			break
		}
	}
	ws.mu.Unlock()
}

// ReleaseAll recycles every buffer handed out since the last release.
// Callers must not touch previously Get-ed buffers afterwards.
func (ws *Workspace) ReleaseAll() {
	if ws == nil {
		return
	}
	ws.mu.Lock()
	for i, m := range ws.inUse {
		ws.pools[cap(m.Data)].Put(m)
		ws.inUse[i] = nil
	}
	ws.inUse = ws.inUse[:0]
	ws.mu.Unlock()
}

// Grow returns buf with length n, reusing its capacity and reallocating
// only when it is insufficient. Contents are unspecified: callers must
// overwrite every element they read. Shared helper for the scratch
// buffers layers and samplers keep across iterations.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// GrowDense shapes dst to rows×cols, reusing its storage and
// reallocating (zeroed) only when its capacity is short — Grow for the
// feature matrices gathers refill every batch. Contents are unspecified
// on reuse.
func GrowDense(dst *Dense, rows, cols int) *Dense {
	n := rows * cols
	if dst == nil || cap(dst.Data) < n {
		return New(rows, cols)
	}
	dst.Rows, dst.Cols = rows, cols
	dst.Data = dst.Data[:n]
	return dst
}

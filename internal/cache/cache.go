// Package cache models the device-side feature cache that transmission
// strategies build on (Fig. 3 "Device Cache"). A cache holds feature rows
// for up to a fixed number of vertices; each mini-batch looks up its input
// vertices, transfers the misses over the host-device link, and then
// (policy permitting) updates the cache.
//
// The policies correspond to the paper's templates:
//
//   - None:   PyG — nothing is cached, everything is transferred.
//   - Static: PaGraph — the cache is pre-filled with the highest-degree
//     vertices and never updated (cachepolicy = None in the template).
//   - Freq:   frequency pre-fill — the cache is pre-filled with the
//     vertices most frequently touched by a pre-sampling pass of the
//     run's own sampler (pre-sample admission), then frozen like Static.
//     Degree order approximates access frequency; Freq measures it.
//   - FIFO:   a dynamic policy that admits misses and evicts in insertion
//     order.
//   - LRU:    a dynamic policy that evicts the least-recently-used entry.
//
// Layout: the cache is array-backed. Residency is a dense slot table
// (slot[v] int32, −1 = absent) over the vertex space; eviction order is
// an intrusive doubly-linked ring threaded through per-slot next/prev
// arrays (no per-entry heap nodes, no container/list); static residency
// additionally keeps a bitset so the biased-sampling hot loop probes one
// bit instead of four bytes; and hit/miss/update counters are atomics.
// Steady-state LookupInto+Update performs zero allocations and zero
// hashing. The pre-refactor map+list implementation is frozen in
// mapref.go (NewMapReference) and the equivalence tests pin both to
// identical hits, misses and evictions for every policy.
//
// Concurrency contract (sharper than the old mutex-guarded version):
// exactly one goroutine — the pipeline's cache stage — may issue
// Lookup/LookupInto/Update, in batch order. Residency reads (Contains)
// and the counter accessors (Len, Stats, HitRate) are lock-free and safe
// from any goroutine concurrently with the writer; this is what lets
// cache-aware samplers probe residency without serializing against the
// gather stage. Determinism is still an ordering property: biased
// samplers whose p(η) reads residency of a *dynamic* (FIFO/LRU) cache
// must run fused with the cache stage (pipeline.Config.CoupledSampler).
// Static and Freq residency is immutable after construction, so Contains
// is order-independent and samplers may read it freely.
package cache

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"gnnavigator/internal/faultinject"
	"gnnavigator/internal/graph"
)

// Policy names a cache replacement policy.
type Policy string

// Supported policies.
const (
	None   Policy = "none"
	Static Policy = "static"
	Freq   Policy = "freq"
	FIFO   Policy = "fifo"
	LRU    Policy = "lru"
	// Opt is the offline-optimal (Belady MIN) policy: evictions and
	// admissions consult the exact future access order compiled from the
	// run's epoch plan (internal/plan), so it is the upper bound every
	// online policy is measured against. Script-driven — construct with
	// NewOpt. Requires unbiased sampling (the replayable-plan contract).
	Opt Policy = "opt"
)

// Policies lists all supported policies in presentation order (Opt last:
// the upper-bound ablation row).
func Policies() []Policy { return []Policy{None, Static, Freq, FIFO, LRU, Opt} }

// Valid reports whether p is a known policy.
func (p Policy) Valid() bool {
	switch p {
	case None, Static, Freq, FIFO, LRU, Opt:
		return true
	}
	return false
}

// Dynamic reports whether the policy mutates residency at run time
// (FIFO/LRU/Opt). None never holds anything; Static and Freq are frozen
// after construction.
func (p Policy) Dynamic() bool { return p == FIFO || p == LRU || p == Opt }

// Prefilled reports whether the policy fixes residency up front from an
// admission order (Static from degree order, Freq from pre-sampled
// access frequency).
func (p Policy) Prefilled() bool { return p == Static || p == Freq }

// Kernel is the lookup/update surface shared by the array-backed Cache
// and the frozen MapReference: what the feature plane (source.go) and
// the equivalence tests program against.
type Kernel interface {
	Policy() Policy
	Capacity() int
	Len() int
	Contains(v int32) bool
	// Lookup records an access to each node and returns the subset that
	// missed; LookupInto is the zero-alloc variant appending into dst's
	// storage (pass the previous result's [:0] to amortize).
	Lookup(nodes []int32) []int32
	LookupInto(dst, nodes []int32) []int32
	// Update admits missed vertices per the policy and returns the number
	// of replacement operations performed.
	Update(miss []int32) int
	Stats() (hits, misses, updates int64)
	HitRate() float64
	ResetStats()
}

// Cache is the array-backed vertex-feature cache with hit/miss
// accounting. See the package comment for the layout and the
// single-writer concurrency contract. When constructed over a graph
// with features, the cache actually owns its resident feature rows
// (RowOf): admissions copy the row into slot storage, so hits can be
// served from device memory instead of re-reading the host array.
type Cache struct {
	policy   Policy
	capacity int

	// slots maps vertex -> slot index (−1 = absent). It is published
	// through an atomic pointer so lock-free Contains readers survive the
	// lazy growth a graph-less cache performs on first admission; slot
	// values themselves are written/read with element atomics.
	slots atomic.Pointer[[]int32]

	// Intrusive eviction ring over slot indices: next/prev thread the
	// FIFO/LRU order through the slot arrays, head is the next victim,
	// tail the most recent admission. Writer-only state.
	next, prev []int32
	head, tail int32

	// vertexOf inverts the slot table (slot -> vertex). Writer-only.
	vertexOf []int32
	size     atomic.Int32

	// static is the residency bitset for prefilled policies — one bit
	// per vertex, immutable after construction, probed lock-free by the
	// biased-sampling hot loop.
	static    []uint64
	staticLen int

	// Resident feature rows in slot order, quantized at the cache's
	// precision (exactly one of rows/rows16/rows8 is non-nil when the
	// cache owns rows; all are nil when built without features). g is
	// the host-side feature store admissions quantize from; qscale and
	// qzero are the per-slot int8 quantization parameters.
	prec    Precision
	rows    []float32
	rows16  []uint16
	rows8   []uint8
	qscale  []float32
	qzero   []float32
	featDim int
	g       *graph.Graph

	// Opt (Belady) state: the compiled future-access script, per-vertex
	// cursors into its occurrence lists, per-slot next-use positions and
	// an indexed max-heap over slots keyed by (nextUse, vertex). clock is
	// the global access position. Writer-only; see opt.go.
	script  *OptScript
	cursor  []int32
	nextUse []int32
	heapOf  []int32 // heap position -> slot
	heapPos []int32 // slot -> heap position
	clock   int32

	hits, misses, updates atomic.Int64
}

// defaultAdmissionOrder resolves the admission order a policy's plain
// constructor (New, NewMapReference) can derive on its own: Static
// pre-fills from g's degree order; Freq needs a pre-sampled frequency
// order the caller must supply through the named WithOrder constructor;
// Opt is script-driven (NewOpt), not order-driven. This is the one
// shared home for the admission-order rules of every cache constructor.
func defaultAdmissionOrder(policy Policy, g *graph.Graph, withOrder string) ([]int32, error) {
	switch policy {
	case Freq:
		return nil, fmt.Errorf("cache: freq policy needs a pre-sampled admission order; use %s", withOrder)
	case Opt:
		return nil, fmt.Errorf("cache: opt policy needs a compiled plan script; use NewOpt")
	case Static:
		if g == nil {
			return nil, fmt.Errorf("cache: static policy requires a graph for degree ordering")
		}
		return g.DegreeOrder(), nil
	}
	return nil, nil
}

// requireAdmissionOrder validates the (policy, explicit order) pair the
// WithOrder constructors receive: prefilled policies need a non-nil
// order, and Opt takes a script, never an order.
func requireAdmissionOrder(policy Policy, order []int32) error {
	if policy == Opt {
		return fmt.Errorf("cache: opt policy is script-driven; use NewOpt")
	}
	if policy.Prefilled() && order == nil {
		return fmt.Errorf("cache: %s policy requires an admission order", policy)
	}
	return nil
}

// New builds a cache with the given policy and capacity (in vertices).
// For Static, the cache is pre-filled with the capacity highest-degree
// vertices of g (PaGraph's policy). Freq needs an explicit admission
// order (NewWithOrder) and Opt a compiled plan script (NewOpt). g may be
// nil for None/FIFO/LRU, in which case the cache tracks residency only
// (no feature rows) and grows its slot table lazily.
func New(policy Policy, capacity int, g *graph.Graph) (*Cache, error) {
	return NewAtPrecision(policy, capacity, g, Float32)
}

// NewAtPrecision is New with an explicit feature-row storage precision:
// admitted rows are quantized once into slot storage and dequantized on
// the gather path. Float32 (and the zero value "") is the verbatim
// baseline.
func NewAtPrecision(policy Policy, capacity int, g *graph.Graph, prec Precision) (*Cache, error) {
	order, err := defaultAdmissionOrder(policy, g, "NewWithPrecision")
	if err != nil {
		return nil, err
	}
	return NewWithPrecision(policy, capacity, g, order, prec)
}

// NewWithOrder builds a cache whose prefilled residency (Static/Freq)
// comes from the given admission order: the first capacity vertices of
// order become resident. For dynamic policies and None the order is
// ignored. This is also how Freq caches are made — the backend
// pre-samples the run's own batch plan, counts vertex accesses, and
// passes the frequency-descending order here.
func NewWithOrder(policy Policy, capacity int, g *graph.Graph, order []int32) (*Cache, error) {
	return NewWithPrecision(policy, capacity, g, order, Float32)
}

// NewWithPrecision is NewWithOrder with an explicit feature-row storage
// precision (see Precision): admissions quantize the host row once into
// slot storage, and the gather path dequantizes on read. A row served
// from slot storage is bitwise-identical to the same row freshly
// round-tripped from the host, so hit/miss routing never changes
// gathered values at any precision.
func NewWithPrecision(policy Policy, capacity int, g *graph.Graph, order []int32, prec Precision) (*Cache, error) {
	if !policy.Valid() {
		return nil, fmt.Errorf("cache: unknown policy %q", policy)
	}
	if !prec.Valid() {
		return nil, fmt.Errorf("cache: unknown precision %q", prec)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %d", capacity)
	}
	if err := requireAdmissionOrder(policy, order); err != nil {
		return nil, err
	}
	c := &Cache{policy: policy, capacity: capacity, head: -1, tail: -1, prec: prec.OrDefault()}
	if g != nil {
		c.growSlots(int32(g.NumVertices() - 1))
		if g.Features != nil && capacity > 0 && policy != None {
			c.featDim = g.FeatDim
			c.g = g
			c.allocRows(min(capacity, g.NumVertices()))
		}
	} else {
		empty := []int32{}
		c.slots.Store(&empty)
	}
	if policy.Dynamic() {
		c.next = make([]int32, capacity)
		c.prev = make([]int32, capacity)
		c.vertexOf = make([]int32, capacity)
	}
	if policy.Prefilled() {
		n := min(capacity, len(order))
		c.vertexOf = make([]int32, n)
		var maxV int32 = -1
		for _, v := range order[:n] {
			if v > maxV {
				maxV = v
			}
		}
		c.growSlots(maxV)
		c.static = make([]uint64, int(maxV)/64+1)
		slots := *c.slots.Load()
		for i, v := range order[:n] {
			c.static[v>>6] |= 1 << (uint(v) & 63)
			slots[v] = int32(i)
			c.vertexOf[i] = v
			if c.ownsRows() {
				c.storeRow(int32(i), g.Feature(v))
			}
		}
		c.staticLen = n
	}
	return c, nil
}

// growSlots ensures the slot table covers vertex v, publishing a larger
// array when needed. Writer-side only; readers keep seeing a consistent
// (possibly stale-length) snapshot through the atomic pointer.
func (c *Cache) growSlots(v int32) {
	cur := c.slots.Load()
	var old []int32
	if cur != nil {
		old = *cur
	}
	if int(v) < len(old) {
		return
	}
	n := max(64, len(old)*2)
	for n <= int(v) {
		n *= 2
	}
	grown := make([]int32, n)
	copy(grown, old)
	for i := len(old); i < n; i++ {
		grown[i] = -1
	}
	c.slots.Store(&grown)
}

// slotOf returns v's slot (−1 absent) via the lock-free read path.
func (c *Cache) slotOf(v int32) int32 {
	arr := *c.slots.Load()
	if int(v) >= len(arr) {
		return -1
	}
	return atomic.LoadInt32(&arr[v])
}

// Policy returns the cache's policy.
func (c *Cache) Policy() Policy { return c.policy }

// Precision returns the cache's feature-row storage precision.
func (c *Cache) Precision() Precision { return c.prec.OrDefault() }

// ownsRows reports whether the cache holds feature rows (it was built
// over a graph with features and a nonzero capacity).
func (c *Cache) ownsRows() bool { return c.rows != nil || c.rows16 != nil || c.rows8 != nil }

// allocRows allocates slot-order row storage for up to n rows at the
// cache's precision.
func (c *Cache) allocRows(n int) {
	switch c.prec.OrDefault() {
	case Float16:
		c.rows16 = make([]uint16, n*c.featDim)
	case Int8:
		c.rows8 = make([]uint8, n*c.featDim)
		c.qscale = make([]float32, n)
		c.qzero = make([]float32, n)
	default:
		c.rows = make([]float32, n*c.featDim)
	}
}

// storeRow quantizes one host feature row into slot s — the admission
// copy, and the only place quantization happens for cached rows. The
// code/parameter computation is shared with the fused host round trip
// (Precision.WidenRow), so a later hit served from this slot is
// bitwise-identical to the miss-path value.
func (c *Cache) storeRow(s int32, src []float32) {
	lo := int(s) * c.featDim
	switch {
	case c.rows != nil:
		copy(c.rows[lo:lo+c.featDim], src)
	case c.rows16 != nil:
		for j, f := range src {
			c.rows16[lo+j] = f32ToF16(f)
		}
	case c.rows8 != nil:
		scale, zero := int8RowParams(src)
		c.qscale[s], c.qzero[s] = scale, zero
		int8QuantizeRow(c.rows8[lo:lo+c.featDim], src, scale, zero)
	}
}

// rowInto dequantizes v's resident row from device slot storage into
// dst (widened to float64), reporting whether it was served. Same
// slot-reuse hazard guard and single-stage contract as RowOf.
func (c *Cache) rowInto(dst []float64, v int32) bool {
	if !c.ownsRows() {
		return false
	}
	s := c.slotOf(v)
	if s < 0 || c.vertexOf[s] != v {
		return false
	}
	lo := int(s) * c.featDim
	switch {
	case c.rows != nil:
		for j, f := range c.rows[lo : lo+c.featDim] {
			dst[j] = float64(f)
		}
	case c.rows16 != nil:
		for j, h := range c.rows16[lo : lo+c.featDim] {
			dst[j] = float64(f16ToF32(h))
		}
	default:
		scale, zero := float64(c.qscale[s]), float64(c.qzero[s])
		for j, q := range c.rows8[lo : lo+c.featDim] {
			dst[j] = zero + scale*float64(q)
		}
	}
	return true
}

// Capacity returns the capacity in vertices.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of currently resident vertices.
func (c *Cache) Len() int {
	if c.policy.Prefilled() {
		return c.staticLen
	}
	return int(c.size.Load())
}

// Contains reports whether v is resident without touching accounting or
// recency state. Lock-free: prefilled policies probe the immutable
// bitset, dynamic policies read the slot table atomically (the value a
// concurrent reader sees is some batch-boundary-consistent residency;
// order-dependent consumers must run fused with the writer stage).
func (c *Cache) Contains(v int32) bool {
	if c.policy.Prefilled() {
		return c.staticBit(v)
	}
	if c.policy == None {
		return false
	}
	return c.slotOf(v) >= 0
}

func (c *Cache) staticBit(v int32) bool {
	w := int(v) >> 6
	return w < len(c.static) && c.static[w]>>(uint(v)&63)&1 == 1
}

// RowOf returns the resident feature row of v from device-side slot
// storage, or nil when v is absent or the cache owns no float32 rows
// (compact precisions store quantized rows; use the gather path, which
// dequantizes via rowInto). The vertexOf check guards the one hazard of
// slot reuse: a slot admitted for v earlier in the batch may have been
// evicted and refilled for a different vertex by a later admission.
// Single-stage use only (the gather path); not safe concurrently with
// Update.
func (c *Cache) RowOf(v int32) []float32 {
	if c.rows == nil {
		return nil
	}
	s := c.slotOf(v)
	if s < 0 || c.vertexOf[s] != v {
		return nil
	}
	return c.rows[int(s)*c.featDim : (int(s)+1)*c.featDim]
}

// Lookup records an access to each node and returns the subset that
// missed (these must be transferred from the host). For LRU, hits
// refresh recency. Allocates the returned slice; hot paths should use
// LookupInto.
func (c *Cache) Lookup(nodes []int32) []int32 { return c.LookupInto(nil, nodes) }

// LookupInto is Lookup appending the misses into dst's storage (pass
// the previous result's [:0] to make steady-state lookup 0 allocs/op).
// Writer-stage only.
func (c *Cache) LookupInto(dst, nodes []int32) []int32 {
	var hits, misses int64
	switch {
	case c.policy.Prefilled():
		for _, v := range nodes {
			if c.staticBit(v) {
				hits++
			} else {
				misses++
				dst = append(dst, v)
			}
		}
	case c.policy == None:
		misses = int64(len(nodes))
		dst = append(dst, nodes...)
	case c.policy == Opt:
		// Belady bookkeeping: every access advances the vertex's script
		// cursor (and the global clock); a hit refreshes the slot's
		// next-use key in the eviction heap. Admissions are deferred to
		// Update, which reads the already-advanced cursors — correct
		// because a batch's input vertices are distinct.
		arr := *c.slots.Load()
		for _, v := range nodes {
			next := c.scriptAdvance(v)
			s := int32(-1)
			if int(v) < len(arr) {
				s = atomic.LoadInt32(&arr[v])
			}
			if s < 0 {
				misses++
				dst = append(dst, v)
				continue
			}
			hits++
			c.nextUse[s] = next
			c.heapFix(s)
		}
	default:
		// Hoist the slot-array snapshot out of the loop: the writer is
		// the only goroutine that swaps it (growSlots), so one load
		// covers the whole batch.
		arr := *c.slots.Load()
		lru := c.policy == LRU
		for _, v := range nodes {
			s := int32(-1)
			if int(v) < len(arr) {
				s = atomic.LoadInt32(&arr[v])
			}
			if s < 0 {
				misses++
				dst = append(dst, v)
				continue
			}
			hits++
			if lru {
				c.moveToBack(s)
			}
		}
	}
	c.hits.Add(hits)
	c.misses.Add(misses)
	return dst
}

// Update admits missed vertices according to the policy, evicting as
// needed, and returns the number of replacement operations performed
// (the stale-data volume of Eq. 5). None, Static and Freq never update.
// Writer-stage only; zero allocations once the slot table covers the
// touched vertex range.
func (c *Cache) Update(miss []int32) int {
	if err := faultinject.Fire(faultinject.CacheShard); err != nil {
		// Update has no error return; the pipeline's gather-stage
		// containment converts this panic back into a clean error.
		panic(err)
	}
	if !c.policy.Dynamic() || c.capacity == 0 {
		return 0
	}
	if c.policy == Opt {
		return c.optUpdate(miss)
	}
	// One growth check covers the batch, so the admission loop works on
	// a single slot-array snapshot.
	maxV := int32(-1)
	for _, v := range miss {
		if v > maxV {
			maxV = v
		}
	}
	if maxV >= 0 {
		c.growSlots(maxV)
	}
	arr := *c.slots.Load()
	var ops int
	for _, v := range miss {
		if atomic.LoadInt32(&arr[v]) >= 0 {
			continue
		}
		var s int32
		if n := c.size.Load(); int(n) >= c.capacity {
			victim := c.head
			if victim < 0 {
				break
			}
			c.unlink(victim)
			atomic.StoreInt32(&arr[c.vertexOf[victim]], -1)
			ops++
			s = victim
		} else {
			s = n
			c.size.Store(n + 1)
		}
		atomic.StoreInt32(&arr[v], s)
		c.vertexOf[s] = v
		if c.ownsRows() {
			// The admission is the transfer: the row lands (quantized) in
			// device slot storage, where later hits read it back.
			c.storeRow(s, c.g.Feature(v))
		}
		c.pushBack(s)
		ops++
	}
	c.updates.Add(int64(ops))
	return ops
}

// --- intrusive ring ------------------------------------------------------

// pushBack appends slot s at the ring's tail (most recently admitted /
// used position).
func (c *Cache) pushBack(s int32) {
	c.next[s] = -1
	c.prev[s] = c.tail
	if c.tail >= 0 {
		c.next[c.tail] = s
	} else {
		c.head = s
	}
	c.tail = s
}

// unlink removes slot s from the ring.
func (c *Cache) unlink(s int32) {
	if c.prev[s] >= 0 {
		c.next[c.prev[s]] = c.next[s]
	} else {
		c.head = c.next[s]
	}
	if c.next[s] >= 0 {
		c.prev[c.next[s]] = c.prev[s]
	} else {
		c.tail = c.prev[s]
	}
}

// moveToBack refreshes slot s to the ring's tail (LRU hit).
func (c *Cache) moveToBack(s int32) {
	if c.tail == s {
		return
	}
	c.unlink(s)
	c.pushBack(s)
}

// --- accounting ----------------------------------------------------------

// HitRate returns hits / (hits+misses), or 0 before any lookup.
func (c *Cache) HitRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Stats returns cumulative (hits, misses, updateOps).
func (c *Cache) Stats() (hits, misses, updates int64) {
	return c.hits.Load(), c.misses.Load(), c.updates.Load()
}

// ResetStats clears accounting but keeps residency.
func (c *Cache) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.updates.Store(0)
}

// residentBits reports the number of set bits in the static bitset
// (test hook for the prefill paths).
func (c *Cache) residentBits() int {
	n := 0
	for _, w := range c.static {
		n += bits.OnesCount64(w)
	}
	return n
}

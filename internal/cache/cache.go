// Package cache models the device-side feature cache that transmission
// strategies build on (Fig. 3 "Device Cache"). A cache tracks which of up
// to a fixed number of vertices have their feature rows resident on the
// device; each mini-batch looks up its input vertices, prices the misses'
// transfer over the host-device link, and then (policy permitting)
// updates residency. The cache holds no rows: a resident row is bitwise
// the row the host round trip produces (precision.go), so every row
// reaches the batch matrix one way, from the host array through the
// precision's widen kernel, and the cache decides only what is counted.
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
// hashing. TestGoldenKernelTrace pins every policy's misses, update ops
// and residency to a digest recorded against the map+list cache this
// layout replaced.
//
// Construction: a Config names policy, capacity, precision and the
// admission order or script a policy needs; Build turns it into a
// Cache and NewSource into the feature plane a run gathers through.
//
// Concurrency contract: exactly one goroutine — the one running the
// pipeline's producer loop — may issue LookupInto/Update, in batch
// order. Residency reads (Contains) and the counter accessors (Len,
// Stats, HitRate) are lock-free and safe from any goroutine concurrently
// with the writer: slot values are read and written with element
// atomics, and the counters are atomics. The pipeline samples on the
// writer's goroutine, so a biased sampler whose p(η) reads residency of
// a dynamic (FIFO/LRU) cache sees exactly the residency the previous
// batch left; other goroutines (diagnostics, /stats) see some recent
// residency.
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
	// online policy is measured against. Script-driven — Build it with
	// Config.Script. Requires unbiased sampling (the replayable-plan
	// contract).
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

// Cache is the array-backed vertex-feature cache: residency plus
// hit/miss/update accounting. See the package comment for the layout
// and the single-writer concurrency contract.
type Cache struct {
	policy   Policy
	capacity int

	// slots maps vertex -> slot index (−1 = absent) over the whole
	// vertex space, sized once by Build. Slot values are written and
	// read with element atomics, so Contains is lock-free.
	slots []int32

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

	// prec is the width resident rows are priced at, on the link and in
	// device memory.
	prec Precision

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

// Config is the whole construction surface of the device cache — the
// few parameters Fig. 3's co-abstraction sets it by. Build turns it into
// a Cache, NewSource into a feature plane.
type Config struct {
	// Policy is the replacement policy.
	Policy Policy
	// Capacity is the cache size in vertices.
	Capacity int
	// Precision is the width feature rows cross the host link at and
	// are priced at in device memory ("" = Float32).
	Precision Precision
	// Order is a prefilled policy's admission order: its first Capacity
	// vertices become resident. Static defaults it to g's degree order;
	// Freq needs the frequency order mined from a pre-sampling pass.
	// Other policies ignore it.
	Order []int32
	// Script is Opt's compiled future access order (BuildOptScript),
	// required by Opt and ignored otherwise.
	Script *OptScript
}

// resolve validates cfg and fills in what the policy can derive on its
// own (Static's degree order from g) — the one home of the construction
// rules every builder shares.
func (cfg *Config) resolve(g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("cache: need a graph to size the vertex space")
	}
	if !cfg.Policy.Valid() {
		return fmt.Errorf("cache: unknown policy %q", cfg.Policy)
	}
	if !cfg.Precision.Valid() {
		return fmt.Errorf("cache: unknown precision %q", cfg.Precision)
	}
	if cfg.Capacity < 0 {
		return fmt.Errorf("cache: negative capacity %d", cfg.Capacity)
	}
	switch {
	case cfg.Policy == Opt && cfg.Script == nil:
		return fmt.Errorf("cache: opt policy needs a compiled plan script (BuildOptScript)")
	case cfg.Policy == Freq && cfg.Order == nil:
		return fmt.Errorf("cache: freq policy needs a pre-sampled admission order")
	case cfg.Policy == Static && cfg.Order == nil:
		cfg.Order = g.DegreeOrder()
	}
	return nil
}

// Build builds the cache cfg describes over g, whose vertex count sizes
// the slot table (or Opt's script, when that covers more vertices). A nil
// g is an error.
func Build(cfg Config, g *graph.Graph) (*Cache, error) {
	if err := cfg.resolve(g); err != nil {
		return nil, err
	}
	return cfg.build(g), nil
}

// build is Build after resolve.
func (cfg *Config) build(g *graph.Graph) *Cache {
	c := &Cache{policy: cfg.Policy, capacity: cfg.Capacity, head: -1, tail: -1, prec: cfg.Precision.OrDefault()}
	n := g.NumVertices()
	if cfg.Policy == Opt {
		n = max(n, cfg.Script.n)
	}
	c.slots = make([]int32, n)
	for i := range c.slots {
		c.slots[i] = -1
	}
	switch {
	case cfg.Policy == Opt:
		c.initOpt(cfg.Script)
	case cfg.Policy.Dynamic():
		c.next = make([]int32, cfg.Capacity)
		c.prev = make([]int32, cfg.Capacity)
		c.vertexOf = make([]int32, cfg.Capacity)
	case cfg.Policy.Prefilled():
		c.prefill(cfg.Order)
	}
	return c
}

// prefill makes the first capacity vertices of order resident for good
// (Static/Freq): construction-time admissions count no update ops.
func (c *Cache) prefill(order []int32) {
	n := min(c.capacity, len(order))
	c.vertexOf = make([]int32, n)
	c.static = make([]uint64, (len(c.slots)+63)/64)
	for i, v := range order[:n] {
		c.static[v>>6] |= 1 << (uint(v) & 63)
		c.slots[v] = int32(i)
		c.vertexOf[i] = v
	}
	c.staticLen = n
}

// New builds a float32 cache with the given policy and capacity (in
// vertices): Build with only those two fields set, so Static pre-fills
// from g's degree order (PaGraph's policy) while Freq and Opt, which
// need an order or a script, are rejected. Kept because the benchmark
// harness calls it.
func New(policy Policy, capacity int, g *graph.Graph) (*Cache, error) {
	return Build(Config{Policy: policy, Capacity: capacity}, g)
}

// NewAtPrecision is New with an explicit feature-row storage precision.
// Kept because the benchmark harness calls it.
func NewAtPrecision(policy Policy, capacity int, g *graph.Graph, prec Precision) (*Cache, error) {
	return Build(Config{Policy: policy, Capacity: capacity, Precision: prec}, g)
}

// slotOf returns v's slot (−1 absent) via the lock-free read path.
func (c *Cache) slotOf(v int32) int32 { return atomic.LoadInt32(&c.slots[v]) }

// Precision returns the width the cache's rows are priced at.
func (c *Cache) Precision() Precision { return c.prec.OrDefault() }

// Len returns the number of currently resident vertices.
func (c *Cache) Len() int {
	if c.policy.Prefilled() {
		return c.staticLen
	}
	return int(c.size.Load())
}

// Contains reports whether v is resident without touching accounting or
// recency state. Lock-free: prefilled policies probe the immutable
// bitset, dynamic policies read the slot table atomically (a reader on
// another goroutine than the writer's sees some recent residency).
func (c *Cache) Contains(v int32) bool {
	if c.policy.Prefilled() {
		return c.staticBit(v)
	}
	if c.policy == None {
		return false
	}
	return c.slotOf(v) >= 0
}

func (c *Cache) staticBit(v int32) bool { return c.static[v>>6]>>(uint(v)&63)&1 == 1 }

// LookupInto records an access to each node and appends the subset
// that missed (these must be transferred from the host) to dst's
// storage; pass the previous result's [:0] to make steady-state lookup
// 0 allocs/op. For LRU, hits refresh recency. Writer only.
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
		for _, v := range nodes {
			next := c.scriptAdvance(v)
			s := c.slotOf(v)
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
		lru := c.policy == LRU
		for _, v := range nodes {
			s := c.slotOf(v)
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
// Writer only; zero allocations.
func (c *Cache) Update(miss []int32) int {
	if err := faultinject.Fire(faultinject.CacheShard); err != nil {
		// Update has no error return; the pipeline's panic containment
		// converts this panic back into a clean error.
		panic(err)
	}
	if !c.policy.Dynamic() || c.capacity == 0 {
		return 0
	}
	if c.policy == Opt {
		return c.optUpdate(miss)
	}
	arr := c.slots
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

// residentBits reports the number of set bits in the static bitset
// (test hook for the prefill paths).
func (c *Cache) residentBits() int {
	n := 0
	for _, w := range c.static {
		n += bits.OnesCount64(w)
	}
	return n
}

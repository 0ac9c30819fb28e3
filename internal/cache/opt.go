package cache

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync/atomic"
)

// Offline-optimal (Belady MIN) cache policy.
//
// Since a run's entire sampling is a pure function of its configuration
// (the compiled epoch plan of internal/plan), the exact future access
// stream the device cache will see is known before training starts. Opt
// exploits it: on a miss with the cache full, the incoming vertex is
// admitted only if its next use comes sooner than that of the resident
// entry needed farthest in the future (which is evicted); otherwise the
// miss bypasses the cache. Residency starts from an earliest-first-
// access prefill, mirroring the free prefill Static/Freq enjoy. On the
// identical access stream this dominates every online policy — it is
// the upper-bound row of the cache ablation, the headroom the paper's
// policy knob is measured against.
//
// Opt is Dynamic (it mutates residency at run time) but not Prefilled
// (its residency is not an immutable order-derived set). It requires
// unbiased sampling: a cache-aware bias makes the access stream depend
// on residency, which the pre-compiled script cannot reflect — the
// backend rejects Opt together with BiasRate > 0.

// OptScript is the exact future access order compiled from an epoch
// plan, in CSR form: occOff[v]..occOff[v+1] indexes occPos, the
// ascending global access positions of vertex v over the whole stream
// (one position per input-vertex access, batches in (epoch, index)
// order).
type OptScript struct {
	n      int
	occOff []int32
	occPos []int32
}

// BuildOptScript compiles the future access order from a batch input
// stream over a vertex space of size numVertices (two passes: counts,
// then positions). plan.Plan.BatchInputs supplies the stream.
func BuildOptScript(numVertices int, stream iter.Seq[[]int32]) (*OptScript, error) {
	occOff := make([]int32, numVertices+1)
	var total int64
	for nodes := range stream {
		for _, v := range nodes {
			occOff[v+1]++
		}
		total += int64(len(nodes))
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("cache: opt script has %d accesses (int32 position overflow)", total)
	}
	for v := 0; v < numVertices; v++ {
		occOff[v+1] += occOff[v]
	}
	occPos := make([]int32, total)
	cur := make([]int32, numVertices)
	copy(cur, occOff[:numVertices])
	pos := int32(0)
	for nodes := range stream {
		for _, v := range nodes {
			occPos[cur[v]] = pos
			cur[v]++
			pos++
		}
	}
	return &OptScript{n: numVertices, occOff: occOff, occPos: occPos}, nil
}

// initOpt sets up the Belady state over a compiled access script (the
// slot table and rows are Build's) and prefills it.
func (c *Cache) initOpt(script *OptScript) {
	c.script = script
	c.cursor = make([]int32, script.n)
	copy(c.cursor, script.occOff[:script.n])
	c.vertexOf = make([]int32, c.capacity)
	c.nextUse = make([]int32, c.capacity)
	c.heapOf = make([]int32, 0, c.capacity)
	c.heapPos = make([]int32, c.capacity)
	c.prefillOpt()
}

// prefillOpt admits the first capacity distinct vertices the script
// touches, in order of earliest first access: each prefilled entry's
// first access is a guaranteed hit, and Belady eviction takes over from
// there. Like the Static/Freq prefill, construction-time admissions
// count no update ops.
func (c *Cache) prefillOpt() {
	if c.capacity == 0 {
		return
	}
	sc := c.script
	touched := make([]int32, 0, sc.n)
	for v := 0; v < sc.n; v++ {
		if sc.occOff[v+1] > sc.occOff[v] {
			touched = append(touched, int32(v))
		}
	}
	// First-access positions are unique, so this order is total.
	slices.SortFunc(touched, func(a, b int32) int {
		return cmp.Compare(sc.occPos[sc.occOff[a]], sc.occPos[sc.occOff[b]])
	})
	n := min(c.capacity, len(touched))
	for i := 0; i < n; i++ {
		v := touched[i]
		s := int32(i)
		c.slots[v] = s
		c.vertexOf[s] = v
		c.nextUse[s] = sc.occPos[sc.occOff[v]]
		c.heapPush(s)
	}
	c.size.Store(int32(n))
}

// scriptInf is the next-use key of a vertex the script never touches
// again: one past the last position, so it always compares as farthest.
func (c *Cache) scriptInf() int32 { return int32(len(c.script.occPos)) }

// scriptAdvance records one access: it bumps the global clock and moves
// v's cursor past every scripted occurrence at or before this position
// (tolerant skip-forward, so a stream that deviates from the script
// degrades the policy instead of corrupting it), returning v's next
// future use.
func (c *Cache) scriptAdvance(v int32) int32 {
	pos := c.clock
	c.clock++
	sc := c.script
	if int(v) >= sc.n {
		return c.scriptInf()
	}
	cur := c.cursor[v]
	end := sc.occOff[v+1]
	for cur < end && sc.occPos[cur] <= pos {
		cur++
	}
	c.cursor[v] = cur
	if cur < end {
		return sc.occPos[cur]
	}
	return c.scriptInf()
}

// futureOf returns v's next scripted use without recording an access
// (the admission path; LookupInto already advanced the cursor).
func (c *Cache) futureOf(v int32) int32 {
	sc := c.script
	if int(v) >= sc.n {
		return c.scriptInf()
	}
	if cur := c.cursor[v]; cur < sc.occOff[v+1] {
		return sc.occPos[cur]
	}
	return c.scriptInf()
}

// optUpdate is Update for the Belady policy: a miss is admitted only if
// its next use comes sooner than the worst resident entry's (bypassing
// otherwise), evicting the entry needed farthest in the future. Ops
// accounting mirrors the ring policies: evict and admit each count one
// replacement op; a bypass counts none.
func (c *Cache) optUpdate(miss []int32) int {
	arr := c.slots
	var ops int
	for _, v := range miss {
		if atomic.LoadInt32(&arr[v]) >= 0 {
			continue
		}
		next := c.futureOf(v)
		var s int32
		if n := c.size.Load(); int(n) >= c.capacity {
			top := c.heapOf[0]
			if next >= c.nextUse[top] {
				// Bypass: v is needed no sooner than every resident
				// entry (or never again); admitting it could only
				// displace a more useful row.
				continue
			}
			atomic.StoreInt32(&arr[c.vertexOf[top]], -1)
			ops++
			s = top
			c.vertexOf[s] = v
			c.nextUse[s] = next
			c.heapFix(s)
		} else {
			s = n
			c.size.Store(n + 1)
			c.vertexOf[s] = v
			c.nextUse[s] = next
			c.heapPush(s)
		}
		atomic.StoreInt32(&arr[v], s)
		ops++
	}
	c.updates.Add(int64(ops))
	return ops
}

// --- indexed max-heap over slots, keyed by (nextUse, vertex) -------------

// optWorse reports whether slot a is a better eviction victim than b:
// needed farther in the future, ties (both never needed again) broken by
// vertex id for determinism.
func (c *Cache) optWorse(a, b int32) bool {
	if c.nextUse[a] != c.nextUse[b] {
		return c.nextUse[a] > c.nextUse[b]
	}
	return c.vertexOf[a] > c.vertexOf[b]
}

func (c *Cache) heapPush(s int32) {
	c.heapPos[s] = int32(len(c.heapOf))
	c.heapOf = append(c.heapOf, s)
	c.heapUp(int(c.heapPos[s]))
}

// heapFix restores the heap invariant around slot s after its nextUse
// key changed.
func (c *Cache) heapFix(s int32) {
	c.heapUp(int(c.heapPos[s]))
	c.heapDown(int(c.heapPos[s]))
}

func (c *Cache) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.optWorse(c.heapOf[i], c.heapOf[parent]) {
			return
		}
		c.heapSwap(i, parent)
		i = parent
	}
}

func (c *Cache) heapDown(i int) {
	n := len(c.heapOf)
	for {
		worst := i
		if l := 2*i + 1; l < n && c.optWorse(c.heapOf[l], c.heapOf[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && c.optWorse(c.heapOf[r], c.heapOf[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		c.heapSwap(i, worst)
		i = worst
	}
}

func (c *Cache) heapSwap(i, j int) {
	c.heapOf[i], c.heapOf[j] = c.heapOf[j], c.heapOf[i]
	c.heapPos[c.heapOf[i]] = int32(i)
	c.heapPos[c.heapOf[j]] = int32(j)
}

package cache

import (
	"container/list"
	"fmt"
	"sync"

	"gnnavigator/internal/graph"
)

// Frozen map+list cache.
//
// This file preserves the pre-refactor implementation: a global
// sync.Mutex around a map[int32]*list.Element plus a container/list
// eviction order, with a map[int32]bool for static residency. It exists
// so the equivalence tests can pin the array-backed Cache to identical
// hits, misses and evictions for every policy. It is reference code —
// do not optimize it.

// MapReference is the frozen map+list cache. It implements Kernel; all
// methods are guarded by one global mutex, exactly as the old Cache was.
type MapReference struct {
	mu       sync.Mutex
	policy   Policy
	capacity int

	resident map[int32]*list.Element
	order    *list.List // FIFO/LRU ordering; front = next eviction victim

	hits, misses   int64
	updates        int64
	staticResident map[int32]bool
}

// NewMapReference builds the frozen reference cfg describes, resolved
// by the same rules as Build (Static defaults to g's degree order, Freq
// needs cfg.Order); the first Capacity vertices of a prefilled policy's
// order become its immutable resident set. Precision only concerns
// Build's row storage, and Opt has no frozen counterpart.
func NewMapReference(cfg Config, g *graph.Graph) (*MapReference, error) {
	if cfg.Policy == Opt {
		return nil, fmt.Errorf("cache: the map reference has no opt policy")
	}
	if err := cfg.resolve(g); err != nil {
		return nil, err
	}
	c := &MapReference{
		policy:   cfg.Policy,
		capacity: cfg.Capacity,
		resident: make(map[int32]*list.Element),
		order:    list.New(),
	}
	if cfg.Policy.Prefilled() {
		c.staticResident = make(map[int32]bool, cfg.Capacity)
		for i, v := range cfg.Order {
			if i >= cfg.Capacity {
				break
			}
			c.staticResident[v] = true
		}
	}
	return c, nil
}

// Policy returns the cache's policy.
func (c *MapReference) Policy() Policy { return c.policy }

// Capacity returns the capacity in vertices.
func (c *MapReference) Capacity() int { return c.capacity }

// Len returns the number of currently resident vertices.
func (c *MapReference) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.policy.Prefilled() {
		return len(c.staticResident)
	}
	return len(c.resident)
}

// Contains reports whether v is resident without touching accounting.
func (c *MapReference) Contains(v int32) bool {
	if c.policy.Prefilled() {
		return c.staticResident[v]
	}
	c.mu.Lock()
	_, ok := c.resident[v]
	c.mu.Unlock()
	return ok
}

// Lookup records an access to each node and returns the misses.
func (c *MapReference) Lookup(nodes []int32) []int32 { return c.LookupInto(nil, nodes) }

// LookupInto is Lookup appending into dst's storage.
func (c *MapReference) LookupInto(dst, nodes []int32) []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range nodes {
		if c.policy.Prefilled() {
			if c.staticResident[v] {
				c.hits++
			} else {
				c.misses++
				dst = append(dst, v)
			}
			continue
		}
		if el, ok := c.resident[v]; ok {
			c.hits++
			if c.policy == LRU {
				c.order.MoveToBack(el)
			}
			continue
		}
		c.misses++
		dst = append(dst, v)
	}
	return dst
}

// Update admits missed vertices per the policy, evicting as needed.
func (c *MapReference) Update(miss []int32) int {
	if !c.policy.Dynamic() || c.capacity == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var ops int
	for _, v := range miss {
		if _, ok := c.resident[v]; ok {
			continue
		}
		if len(c.resident) >= c.capacity {
			victim := c.order.Front()
			if victim == nil {
				break
			}
			delete(c.resident, victim.Value.(int32))
			c.order.Remove(victim)
			ops++
		}
		c.resident[v] = c.order.PushBack(v)
		ops++
	}
	c.updates += int64(ops)
	return ops
}

// HitRate returns hits / (hits+misses), or 0 before any lookup.
func (c *MapReference) HitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Stats returns cumulative (hits, misses, updateOps).
func (c *MapReference) Stats() (hits, misses, updates int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.updates
}

// ResetStats clears accounting but keeps residency.
func (c *MapReference) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.updates = 0, 0, 0
}

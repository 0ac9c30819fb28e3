package cache

import (
	"math/rand"
	"testing"

	"gnnavigator/internal/gen"
	"gnnavigator/internal/graph"
)

// accessStream builds a deterministic degree-skewed access pattern over
// g: batches of edge-walk endpoints, the same shape the samplers feed
// the cache.
func accessStream(t *testing.T, g *graph.Graph, batches, batchLen int, seed int64) [][]int32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	out := make([][]int32, batches)
	for b := range out {
		batch := make([]int32, 0, batchLen)
		for len(batch) < batchLen {
			v := int32(rng.Intn(n))
			if ns := g.Neighbors(v); len(ns) > 0 {
				v = ns[rng.Intn(len(ns))]
			}
			batch = append(batch, v)
		}
		out[b] = batch
	}
	return out
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(rand.New(rand.NewSource(3)), 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// kernelPair builds the array-backed cache and the frozen map+list
// reference with identical parameters.
func kernelPair(t *testing.T, policy Policy, capacity int, g *graph.Graph) (Kernel, Kernel) {
	t.Helper()
	if policy == Freq {
		order := g.DegreeOrder() // any fixed admission order
		c, err := Build(Config{Policy: Freq, Capacity: capacity, Order: order}, g)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewMapReference(Config{Policy: Freq, Capacity: capacity, Order: order}, g)
		if err != nil {
			t.Fatal(err)
		}
		return c, ref
	}
	c, err := New(policy, capacity, g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewMapReference(Config{Policy: policy, Capacity: capacity}, g)
	if err != nil {
		t.Fatal(err)
	}
	return c, ref
}

// TestKernelEquivalence pins the array-backed cache bitwise against the
// frozen map+list reference for every policy: identical miss lists (in
// order), identical per-batch update ops, identical cumulative stats,
// and identical residency after every batch.
func TestKernelEquivalence(t *testing.T) {
	g := testGraph(t)
	stream := accessStream(t, g, 60, 256, 11)
	for _, policy := range Policies() {
		if policy == Opt {
			// Script-driven: the frozen map+list reference predates the
			// offline-optimal policy and has no counterpart to compare
			// against. Opt's invariants are pinned in opt_test.go.
			continue
		}
		t.Run(string(policy), func(t *testing.T) {
			for _, capacity := range []int{0, 1, 7, 300} {
				c, ref := kernelPair(t, policy, capacity, g)
				var missC, missR []int32
				for bi, batch := range stream {
					missC = c.LookupInto(missC[:0], batch)
					missR = ref.LookupInto(missR[:0], batch)
					if len(missC) != len(missR) {
						t.Fatalf("cap %d batch %d: miss count %d vs %d", capacity, bi, len(missC), len(missR))
					}
					for i := range missC {
						if missC[i] != missR[i] {
							t.Fatalf("cap %d batch %d: miss[%d] = %d vs %d", capacity, bi, i, missC[i], missR[i])
						}
					}
					if oc, or := c.Update(missC), ref.Update(missR); oc != or {
						t.Fatalf("cap %d batch %d: update ops %d vs %d", capacity, bi, oc, or)
					}
					if c.Len() != ref.Len() {
						t.Fatalf("cap %d batch %d: len %d vs %d", capacity, bi, c.Len(), ref.Len())
					}
					for _, v := range batch {
						if c.Contains(v) != ref.Contains(v) {
							t.Fatalf("cap %d batch %d: residency of %d diverges", capacity, bi, v)
						}
					}
				}
				hc, mc, uc := c.Stats()
				hr, mr, ur := ref.Stats()
				if hc != hr || mc != mr || uc != ur {
					t.Fatalf("cap %d: stats (%d,%d,%d) vs (%d,%d,%d)", capacity, hc, mc, uc, hr, mr, ur)
				}
			}
		})
	}
}

// TestFreqPrefill covers Freq admission semantics: exactly the
// first capacity order entries become resident, bitset and slot table
// agree, and lookups never mutate residency.
func TestFreqPrefill(t *testing.T) {
	g := testGraph(t)
	order := []int32{42, 7, 1999, 3, 500}
	c, err := Build(Config{Policy: Freq, Capacity: 3, Order: order}, g)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 || c.residentBits() != 3 {
		t.Fatalf("Len = %d, bits = %d, want 3", c.Len(), c.residentBits())
	}
	for i, v := range order {
		want := i < 3
		if c.Contains(v) != want {
			t.Errorf("Contains(%d) = %v, want %v", v, !want, want)
		}
	}
	if ops := c.Update(c.Lookup([]int32{9, 10, 11})); ops != 0 {
		t.Errorf("freq cache performed %d update ops", ops)
	}
	if c.Contains(9) {
		t.Error("freq cache admitted at run time")
	}
}

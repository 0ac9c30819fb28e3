package cache

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// goldenKernelTraceDigest is the FNV-64a digest of the trace
// TestGoldenKernelTrace records. It was recorded while the frozen
// map+list cache still existed and the equivalence test proved the
// array-backed kernel equal to it for every online policy, so it pins
// the kernel to the pre-refactor hits, misses and evictions.
const goldenKernelTraceDigest = "d115ad0d92346734"

// TestGoldenKernelTrace pins the cache kernel, for every policy (Opt
// included) at capacities 0, 1, 7 and 300, over one degree-skewed
// access stream: the miss list (in order), the update ops, Len and the
// residency of the batch's vertices after every batch, and the final
// Stats. Everything hashed is integer, so the digest holds on every
// architecture.
func TestGoldenKernelTrace(t *testing.T) {
	g := testGraph(t)
	stream := accessStream(t, g, 60, 256, 11)
	h := fnv.New64a()
	resident := make([]byte, 0, 256)
	for _, policy := range Policies() {
		for _, capacity := range []int{0, 1, 7, 300} {
			cfg := Config{Policy: policy, Capacity: capacity, Order: g.DegreeOrder()}
			if policy == Opt {
				script, err := BuildOptScript(g.NumVertices(), sliceSeq(stream))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Script = script
			}
			c, err := Build(cfg, g)
			if err != nil {
				t.Fatalf("%s cap %d: %v", policy, capacity, err)
			}
			fmt.Fprintf(h, "%s %d\n", policy, capacity)
			var miss []int32
			for _, batch := range stream {
				miss = c.LookupInto(miss[:0], batch)
				ops := c.Update(miss)
				resident = resident[:0]
				for _, v := range batch {
					if c.Contains(v) {
						resident = append(resident, '1')
					} else {
						resident = append(resident, '0')
					}
				}
				fmt.Fprintf(h, "%v %d %d %s\n", miss, ops, c.Len(), resident)
			}
			hits, misses, updates := c.Stats()
			fmt.Fprintf(h, "%d %d %d\n", hits, misses, updates)
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenKernelTraceDigest {
		t.Fatalf("digest %s, want %s", got, goldenKernelTraceDigest)
	}
}

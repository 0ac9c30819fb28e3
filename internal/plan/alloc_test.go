//go:build !race

package plan

import (
	"testing"

	"gnnavigator/internal/sample"
)

// TestReplayIntoZeroAllocs is the replay-path allocation regression: in
// steady state (mb's Blocks capacity warm) serving a batch from the plan
// is pure slicing — zero allocations, zero sampler work. Guarded !race
// because the race runtime adds bookkeeping allocations.
func TestReplayIntoZeroAllocs(t *testing.T) {
	g := testGraph(t)
	targets := testTargets(500)
	smp := func() *sample.NodeWise { return &sample.NodeWise{Fanouts: []int{6, 4}} }
	key := KeyFor("test-ds", false, smp(), 128, 11, 2, true, targets)
	pl, err := Compile(g, smp(), key, targets)
	if err != nil {
		t.Fatal(err)
	}
	mb := &sample.MiniBatch{}
	pl.ReplayInto(mb, 0, 0) // warm Blocks capacity
	allocs := testing.AllocsPerRun(10, func() {
		for e := 0; e < pl.Epochs(); e++ {
			for i := 0; i < pl.BatchesPerEpoch(); i++ {
				pl.ReplayInto(mb, e, i)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("ReplayInto allocates %.1f per full replay in steady state, want 0", allocs)
	}
}

// TestCompileAllocsFlatInBatches pins that compiling allocates nothing
// per batch: three more epochs (66 more batches) may cost only the three
// extra sample.EpochPlan calls, plus the odd regrowth when a batch
// outgrows every batch before it — at most one allocation per eight
// added batches, where drawing a fresh batch and rand.Rand for each cost
// more than eight apiece.
func TestCompileAllocsFlatInBatches(t *testing.T) {
	g := testGraph(t)
	targets := testTargets(700)
	const seed, batchSize = 11, 32
	perEpoch := testing.AllocsPerRun(5, func() { sample.EpochPlan(seed, 0, targets, batchSize, true) })
	for name, mk := range samplersUnderTest() {
		compile := func(epochs int) float64 {
			key := KeyFor("test-ds", false, mk(), batchSize, seed, epochs, true, targets)
			return testing.AllocsPerRun(3, func() {
				if _, err := Compile(g, mk(), key, targets); err != nil {
					t.Fatal(err)
				}
			})
		}
		one, four := compile(1), compile(4)
		added := 3 * len(sample.EpochPlan(seed, 0, targets, batchSize, true))
		if extra := four - one - 3*perEpoch; extra > float64(added/8) {
			t.Errorf("%s: 4 epochs allocate %v, 1 epoch %v: %v beyond the epoch lists for %d more batches, want <= %d",
				name, four, one, extra, added, added/8)
		}
	}
}

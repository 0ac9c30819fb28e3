//go:build !race

package infer_test

import (
	"context"
	"runtime"
	"testing"

	"gnnavigator/internal/cache"
	"gnnavigator/internal/infer"
)

// TestPredictKeepsGatherMatrix is the engine's allocation regression: in
// steady state a small Predict through a cached source must gather into
// the engine's resident buffer, not into a fresh feature matrix per call
// — the matrix (input rows × feature width × 8 bytes) is most of what
// such a call would otherwise allocate, so the whole call has to come in
// under it. Guarded !race because the race runtime adds bookkeeping
// allocations.
func TestPredictKeepsGatherMatrix(t *testing.T) {
	d, m := evalFixture(t)
	c, err := cache.New(cache.LRU, d.Graph.NumVertices()/10, d.Graph)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := infer.New(infer.Config{
		Graph: d.Graph, Model: m, Seed: 3, Source: cache.NewCachedSource(c, d.Graph),
	})
	if err != nil {
		t.Fatal(err)
	}
	targets := []int32{7, 1234}
	warm, err := eng.Predict(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	matrixBytes := uint64(warm.Stats.SampledVertices * d.Graph.FeatDim * 8)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := eng.Predict(context.Background(), targets); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	if perOp >= matrixBytes {
		t.Errorf("steady-state Predict allocates %d B/op; its %d-row gather matrix alone is %d B, so it is being reallocated",
			perOp, warm.Stats.SampledVertices, matrixBytes)
	}
}

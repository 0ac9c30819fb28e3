// Package main_test hosts micro-benchmarks of the kernels bench/ has no
// per-layer metric for. Everything end to end — and the sampler, model,
// backend, estimator and gather/scatter/matmul rates — is measured by
// bench/ (bash bench/run.sh --trace 1).
//
// Run with:
//
//	go test -bench=. -benchmem
package main_test

import (
	"math/rand"
	"testing"

	"gnnavigator/internal/dataset"
	"gnnavigator/internal/sample"
	"gnnavigator/internal/tensor"
)

func BenchmarkSubgraphSampling(b *testing.B) {
	d := dataset.MustLoad(dataset.Reddit2)
	s := &sample.SubgraphWise{WalkLength: 12, Layers: 2}
	rng := rand.New(rand.NewSource(1))
	targets := d.TrainIdx[:512]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb := s.Sample(rng, d.Graph, targets)
		if mb.NumVertices == 0 {
			b.Fatal("empty batch")
		}
	}
}

// --- sharded kernel benchmarks ----------------------------------------------
//
// Every kernel is measured at serial (1 worker) and parallel (4 workers)
// settings with allocs/op reported, enforcing the zero-steady-state-alloc
// claim by numbers. On a single-core host the parallel variants mostly
// measure dispatch overhead.

func dense256(seed int64) *tensor.Dense { return randDense(seed, 256, 256) }

// benchWorkers runs fn under "serial" (1) and "parallel" (4) worker
// settings, restoring the previous setting afterwards.
func benchWorkers(b *testing.B, fn func(b *testing.B)) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)
	for _, w := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel4", 4}} {
		b.Run(w.name, func(b *testing.B) {
			tensor.SetParallelism(w.workers)
			b.ReportAllocs()
			fn(b)
		})
	}
}

// The two transposed layouts at the shapes a `train` step calls them
// with: layer 0 (about 6000 rows in, 48 features, 64 hidden) and the
// output layer (1024 targets, 64 hidden, 10 classes). bench's
// tensor.matmul_gflops times a·b at the layer-0 shape; nothing else
// times these two.
var trainShapes = []struct {
	name            string
	rows, in, width int
}{{"6000x48x64", 6000, 48, 64}, {"1024x64x10", 1024, 64, 10}}

func randDense(seed int64, rows, cols int) *tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// BenchmarkMatMulT1 is dW = Xᵀ·dY.
func BenchmarkMatMulT1(b *testing.B) {
	for _, s := range trainShapes {
		x, dy, dw := randDense(1, s.rows, s.in), randDense(2, s.rows, s.width), tensor.New(s.in, s.width)
		b.Run(s.name, func(b *testing.B) {
			benchWorkers(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tensor.MatMulT1Into(dw, x, dy)
				}
			})
		})
	}
}

// BenchmarkMatMulT2 is dX = dY·Wᵀ.
func BenchmarkMatMulT2(b *testing.B) {
	for _, s := range trainShapes {
		dy, w, dx := randDense(1, s.rows, s.width), randDense(2, s.in, s.width), tensor.New(s.rows, s.in)
		b.Run(s.name, func(b *testing.B) {
			benchWorkers(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tensor.MatMulT2Into(dx, dy, w)
				}
			})
		})
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	m := dense256(1)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.SoftmaxRows()
		}
	})
}

func BenchmarkAddBias(b *testing.B) {
	m := dense256(1)
	bias := make([]float64, m.Cols)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.AddBias(bias)
		}
	})
}

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

func dense256(seed int64) *tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(256, 256)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

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

// BenchmarkMatMulSkipDense measures the sparse-skip kernel on fully dense
// inputs: the delta vs the plain kernel (bench's tensor.matmul_gflops) is
// the price of the always-taken aik == 0 compare, which is why the skip
// lives only in MatMulSparseInto.
func BenchmarkMatMulSkipDense(b *testing.B) {
	m, n, out := dense256(1), dense256(2), tensor.New(256, 256)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulSparseInto(out, m, n)
		}
	})
}

// BenchmarkMatMulSkipSparse measures the same kernel on a post-ReLU-like
// input (half the entries exactly zero), where the skip wins.
func BenchmarkMatMulSkipSparse(b *testing.B) {
	m, n, out := dense256(1), dense256(2), tensor.New(256, 256)
	for i := range m.Data {
		if m.Data[i] < 0 {
			m.Data[i] = 0 // ReLU
		}
	}
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulSparseInto(out, m, n)
		}
	})
}

func BenchmarkMatMulT1_256(b *testing.B) {
	m, n, out := dense256(1), dense256(2), tensor.New(256, 256)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulT1Into(out, m, n)
		}
	})
}

func BenchmarkMatMulT2_256(b *testing.B) {
	m, n, out := dense256(1), dense256(2), tensor.New(256, 256)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulT2Into(out, m, n)
		}
	})
}

func BenchmarkSoftmaxRows(b *testing.B) {
	m := dense256(1)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.SoftmaxRows()
		}
	})
}

func BenchmarkApply(b *testing.B) {
	m := dense256(1)
	relu := func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	}
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Apply(relu)
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

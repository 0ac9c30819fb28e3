// Package tensor implements the dense row-major float64 matrices that the
// pure-Go GNN training engine is built on. It provides exactly the
// operations forward/backward passes need — matmul in the three layouts
// (AB, AᵀB, ABᵀ), broadcast bias, elementwise maps, row gather/scatter —
// and nothing speculative.
//
// Every hot kernel has an Into variant that reuses caller storage (see
// Workspace for the arena that feeds them) and is sharded across the
// package worker pool (see SetParallelism). Sharding is always over
// disjoint output ranges with a fixed per-element accumulation order, so
// a kernel's result is bitwise-identical at any parallelism level.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Shard grains: the minimum per-shard iteration count worth dispatching
// to the pool, sized so dispatch overhead (~1µs) stays well under shard
// work.
const (
	rowGrain  = 8    // matmul-class rows
	flatGrain = 4096 // elementwise scalar ops
	copyGrain = 64   // row copies (gather)
)

// Dense is a row-major Rows x Cols matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed Rows x Cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a Rows x Cols matrix.
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyInto makes dst a copy of m, reusing dst's storage (shapes must
// match).
func (m *Dense) CopyInto(dst *Dense) {
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic("tensor: CopyInto shape mismatch")
	}
	copy(dst.Data, m.Data)
}

// Row returns row i (aliases storage).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Zero clears all elements in place.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// GlorotInit fills m with Glorot/Xavier-uniform values for a layer with
// fanIn inputs and fanOut outputs.
func (m *Dense) GlorotInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// MatMul returns a·b (a: n×k, b: k×m → n×m).
func MatMul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a·b, reusing out's storage, sharded over
// output rows.
//
// The inner loop is branch-free: the seed implementation skipped
// aik == 0 terms, but on dense inputs the never-firing compare costs
// ~6% (BenchmarkMatMulSkipDense 9.56ms vs 9.01ms for this kernel,
// 256³ serial) for zero benefit. The skip only pays on provably sparse
// inputs — post-ReLU/dropout activations, where ~half the entries are
// exact zeros and it buys ~1.8x (BenchmarkMatMulSkipSparse 5.12ms) —
// so it lives in MatMulSparseInto and the nn layers that own such
// inputs opt in explicitly.
func MatMulInto(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %dx%d = %dx%d · %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	parallelFor(a.Rows, rowGrain, func(lo, hi int) {
		// i-k-j loop order streams b's rows, which is cache-friendly for
		// row-major storage.
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := range orow {
				orow[j] = 0
			}
			for k := 0; k < a.Cols; k++ {
				aik := arow[k]
				brow := b.Row(k)
				for j := range brow {
					orow[j] += aik * brow[j]
				}
			}
		}
	})
}

// MatMulSparseInto is MatMulInto with the zero-skip kept: rows of a with
// exact-zero entries (post-ReLU or post-dropout activations) skip the
// whole k-th row of b. On dense inputs prefer MatMulInto. Skipped terms
// contribute exactly 0 for finite inputs, so results match MatMulInto
// bit-for-bit away from ±Inf/NaN.
func MatMulSparseInto(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulSparseInto shape mismatch %dx%d = %dx%d · %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	parallelFor(a.Rows, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := range orow {
				orow[j] = 0
			}
			for k := 0; k < a.Cols; k++ {
				aik := arow[k]
				if aik == 0 {
					continue
				}
				brow := b.Row(k)
				for j := range brow {
					orow[j] += aik * brow[j]
				}
			}
		}
	})
}

// MatMulT1 returns aᵀ·b (a: k×n, b: k×m → n×m). Used for dW = Xᵀ·dY.
func MatMulT1(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT1 shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	MatMulT1Into(out, a, b)
	return out
}

// MatMulT1Into computes out = aᵀ·b, sharded over output rows (columns of
// a); each output row accumulates over k in ascending order, matching the
// serial result exactly. Branch-free like MatMulInto: a is the layer's
// cached forward input, which for aggregate-fed layers (GCN, the SAGE
// neighbor path) and raw features is dense. Layers whose input is
// provably sparse use MatMulT1SparseInto (see nn.Linear.SparseInput).
func MatMulT1Into(out, a, b *Dense) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT1 shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	parallelFor(a.Cols, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Row(i)
			for j := range orow {
				orow[j] = 0
			}
			for k := 0; k < a.Rows; k++ {
				aki := a.Data[k*a.Cols+i]
				brow := b.Row(k)
				for j := range brow {
					orow[j] += aki * brow[j]
				}
			}
		}
	})
}

// MatMulT1SparseInto is MatMulT1Into with the zero-skip kept: each
// exact-zero entry of a (post-ReLU/dropout activations) skips a whole
// m-length inner loop. On dense inputs prefer MatMulT1Into.
func MatMulT1SparseInto(out, a, b *Dense) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT1SparseInto shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	parallelFor(a.Cols, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Row(i)
			for j := range orow {
				orow[j] = 0
			}
			for k := 0; k < a.Rows; k++ {
				aki := a.Data[k*a.Cols+i]
				if aki == 0 {
					continue
				}
				brow := b.Row(k)
				for j := range brow {
					orow[j] += aki * brow[j]
				}
			}
		}
	})
}

// MatMulT2 returns a·bᵀ (a: n×k, b: m×k → n×m). Used for dX = dY·Wᵀ.
func MatMulT2(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT2 shape mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	MatMulT2Into(out, a, b)
	return out
}

// MatMulT2Into computes out = a·bᵀ, sharded over output rows.
func MatMulT2Into(out, a, b *Dense) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT2 shape mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	parallelFor(a.Rows, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := 0; j < b.Rows; j++ {
				brow := b.Row(j)
				var s float64
				for k, av := range arow {
					s += av * brow[k]
				}
				orow[j] = s
			}
		}
	})
}

// AddBias adds row vector bias (1×Cols) to every row of m, in place.
func (m *Dense) AddBias(bias []float64) {
	if len(bias) != m.Cols {
		panic("tensor: AddBias length mismatch")
	}
	parallelFor(m.Rows, copyGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for j := range row {
				row[j] += bias[j]
			}
		}
	})
}

// AddInPlace computes m += other.
func (m *Dense) AddInPlace(other *Dense) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: AddInPlace shape mismatch")
	}
	parallelFor(len(m.Data), flatGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] += other.Data[i]
		}
	})
}

// ScaleInPlace computes m *= s.
func (m *Dense) ScaleInPlace(s float64) {
	parallelFor(len(m.Data), flatGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] *= s
		}
	})
}

// Apply maps f over every element, in place. f must be pure: it is
// invoked concurrently from the worker pool.
func (m *Dense) Apply(f func(float64) float64) {
	parallelFor(len(m.Data), flatGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] = f(m.Data[i])
		}
	})
}

// ColSums returns the per-column sums (length Cols). Used for bias grads.
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.Cols)
	m.ColSumsInto(out)
	return out
}

// ColSumsInto accumulates per-column sums into dst (dst is overwritten).
// Both paths accumulate each column top-to-bottom, so they are bitwise
// equivalent: the serial path streams rows (cache-optimal, the seed's
// access pattern), while the parallel path shards over column ranges —
// strided reads, but each worker owns a disjoint slice of dst.
func (m *Dense) ColSumsInto(dst []float64) {
	if len(dst) != m.Cols {
		panic("tensor: ColSumsInto length mismatch")
	}
	if Parallelism() <= 1 || m.Cols < 2*rowGrain {
		for j := range dst {
			dst[j] = 0
		}
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for j, v := range row {
				dst[j] += v
			}
		}
		return
	}
	parallelFor(m.Cols, rowGrain, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var s float64
			for i := 0; i < m.Rows; i++ {
				s += m.Data[i*m.Cols+j]
			}
			dst[j] = s
		}
	})
}

// GatherRows returns the matrix whose row i is m.Row(idx[i]).
func GatherRows(m *Dense, idx []int32) *Dense {
	out := New(len(idx), m.Cols)
	GatherRowsInto(out, m, idx)
	return out
}

// GatherRowsInto copies m.Row(idx[i]) into out.Row(i), sharded over idx.
func GatherRowsInto(out, m *Dense, idx []int32) {
	if out.Rows != len(idx) || out.Cols != m.Cols {
		panic("tensor: GatherRowsInto shape mismatch")
	}
	parallelFor(len(idx), copyGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(out.Row(i), m.Row(int(idx[i])))
		}
	})
}

// ScatterAddRows adds src.Row(i) into dst.Row(idx[i]) for all i. idx may
// repeat rows, so the parallel path shards over destination-row ranges
// and lets every shard scan the full index list, touching only its own
// rows — write-race free, and each destination row accumulates in the
// same i order as the serial loop (bitwise-identical partial merge).
func ScatterAddRows(dst, src *Dense, idx []int32) {
	if src.Rows != len(idx) || dst.Cols != src.Cols {
		panic("tensor: ScatterAddRows shape mismatch")
	}
	// The volume gate keeps small scatters serial; the row gate keeps
	// them serial when dst has too few rows to amortize each shard's
	// full scan of idx.
	if Parallelism() <= 1 || len(idx)*src.Cols < 4*flatGrain || dst.Rows < 2*rowGrain {
		for i, r := range idx {
			drow := dst.Row(int(r))
			srow := src.Row(i)
			for j := range drow {
				drow[j] += srow[j]
			}
		}
		return
	}
	parallelFor(dst.Rows, 1, func(lo, hi int) {
		for i, r := range idx {
			if int(r) < lo || int(r) >= hi {
				continue
			}
			drow := dst.Row(int(r))
			srow := src.Row(i)
			for j := range drow {
				drow[j] += srow[j]
			}
		}
	})
}

// SoftmaxRows applies a numerically stable softmax to each row, in place.
func (m *Dense) SoftmaxRows() {
	parallelFor(m.Rows, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			max := math.Inf(-1)
			for _, v := range row {
				if v > max {
					max = v
				}
			}
			var sum float64
			for j, v := range row {
				e := math.Exp(v - max)
				row[j] = e
				sum += e
			}
			for j := range row {
				row[j] /= sum
			}
		}
	})
}

// ArgmaxRows returns, for each row, the index of its maximum element.
func (m *Dense) ArgmaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bestJ := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bestJ = v, j
			}
		}
		out[i] = bestJ
	}
	return out
}

// FrobeniusNorm returns sqrt(sum of squares).
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

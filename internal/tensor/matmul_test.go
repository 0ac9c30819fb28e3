package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The three reference products: the plain triple loop, one accumulator
// per output element started at +0, k ascending. This is the arithmetic
// every pinned digest in the repo was recorded under; the tiled kernels
// must reproduce it to the bit.

func naiveAB(a, b *Dense) *Dense {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveATB(a, b *Dense) *Dense {
	out := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveABT(a, b *Dense) *Dense {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// sparseDense is randDense with each entry replaced by an exact zero with
// probability zeros.
func sparseDense(rng *rand.Rand, rows, cols int, zeros float64) *Dense {
	m := randDense(rng, rows, cols)
	for i := range m.Data {
		if rng.Float64() < zeros {
			m.Data[i] = 0
		}
	}
	return m
}

// dirty returns a rows×cols matrix of NaNs: the kernels must overwrite
// every element, never accumulate into what the workspace handed them.
func dirty(rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// TestMatMulKernelsMatchNaiveLoops compares the three layouts with the
// triple loops above, bit for bit. Rows cover a·bᵀ's 3-row tile with
// nothing but leftovers (1, 2), exactly (3), with two and one left over
// (5, 37) and — at 37 and 150 — shards whose boundaries move with the
// worker count; cols cover its 2-column tile with and without the odd
// column; k covers the empty sum, a single term, axpy4's four-row pass
// with one and three rows left over (1, 7) and the train width.
func TestMatMulKernelsMatchNaiveLoops(t *testing.T) {
	rows := []int{1, 2, 3, 5, 37, 150}
	cols := []int{1, 2, 3, 4, 5, 10, 64}
	ks := []int{0, 1, 7, 48}
	withParallelism(t, 1) // restores the setting when the test ends
	for _, zeros := range []float64{0, 0.10, 0.55} {
		rng := rand.New(rand.NewSource(int64(1 + 100*zeros)))
		for _, n := range rows {
			for _, m := range cols {
				for _, k := range ks {
					a := sparseDense(rng, n, k, zeros)  // n×k
					at := sparseDense(rng, k, n, zeros) // k×n
					b := randDense(rng, k, m)           // k×m
					bt := randDense(rng, m, k)          // m×k
					wantAB, wantATB, wantABT := naiveAB(a, b), naiveATB(at, b), naiveABT(a, bt)
					for _, p := range []int{1, 2, 3, 4} {
						SetParallelism(p)
						name := fmt.Sprintf("zeros=%.2f %dx%dx%d p=%d", zeros, n, k, m, p)
						out := dirty(n, m)
						MatMulInto(out, a, b)
						bitwiseEq(t, "MatMulInto "+name, out, wantAB)
						out = dirty(n, m)
						MatMulT1Into(out, at, b)
						bitwiseEq(t, "MatMulT1Into "+name, out, wantATB)
						out = dirty(n, m)
						MatMulT2Into(out, a, bt)
						bitwiseEq(t, "MatMulT2Into "+name, out, wantABT)
					}
				}
			}
		}
	}
}

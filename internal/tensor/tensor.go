// Package tensor implements the dense row-major float64 matrices that the
// pure-Go GNN training engine is built on. It provides exactly the
// operations forward/backward passes need — matmul in the three layouts
// (AB, AᵀB, ABᵀ), broadcast bias, elementwise maps, row gather/scatter —
// and nothing speculative.
//
// The three matmuls are where a training step spends its time, and each
// has one body shaped by what is contiguous in its layout:
//
//   - a·b and aᵀ·b build rows of out in place as sums of scaled rows of
//     b (axpy4: four rows of b per pass, so out is loaded and stored once
//     per four multiply-adds). a·b walks k inside a row — the row and b
//     stay in L1; aᵀ·b walks k outermost — its tall operands are streamed
//     once and the shard of out, a weight's shape, stays in cache.
//   - a·bᵀ is dot products of contiguous rows, so it is a register tile:
//     3 rows of a × 2 rows of b, six sums in locals across the whole k
//     loop. Six is what Go's amd64 back end keeps in registers: it
//     schedules a block's multiplies ahead of its adds, so a tile costs
//     two registers per sum plus its operands out of fifteen, and the
//     2×4 tile (eight sums) spills one sum to the stack on every k,
//     which measured slower than any six- or four-sum tile.
//
// The determinism contract of the whole repo rests on these bodies:
// every output element is one float64 accumulator that starts at +0 and
// takes its k terms in ascending order, one rounding per multiply and
// one per add. That is the arithmetic of the plain triple loop, so any
// tiling, sharding or worker count gives the same bits, and the pinned
// digests (bench/, backend's golden run) hold. Splitting the k sum,
// math.FMA, float32 or SIMD assembly would each change the roundings.
// Terms with an exact-zero factor are not skipped: they add ±0, which
// leaves a sum that started at +0 unchanged, and at the zero rates
// training sees (10 % after dropout, ~55 % after ReLU+dropout) the
// branch costs more than the multiply-adds it saves.
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

// axpy4 adds x[0]·b0 + x[1]·b1 + x[2]·b2 + x[3]·b3 to o, one term at a
// time in that order, so o[j] sees the same chain of roundings as four
// single-term passes would give it. Four terms per pass is what makes
// the row kernels fast: o is loaded and stored once per four
// multiply-adds instead of once per one.
func axpy4(o, b0, b1, b2, b3 []float64, x *[4]float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	for j, s := range o {
		s += x0 * b0[j]
		s += x1 * b1[j]
		s += x2 * b2[j]
		s += x3 * b3[j]
		o[j] = s
	}
}

// axpy adds x·b to o.
func axpy(o, b []float64, x float64) {
	b = b[:len(o)]
	for j, s := range o {
		o[j] = s + x*b[j]
	}
}

// MatMulInto computes out = a·b, reusing out's storage, sharded over
// output rows. Row i of out is built in place as Σ_k a[i,k]·b[k,:], four
// rows of b per pass (axpy4): the output row and b stay in L1, a is
// streamed once.
func MatMulInto(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %dx%d = %dx%d · %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	kk, m := a.Cols, b.Cols
	ad, bd, od := a.Data, b.Data, out.Data
	parallelFor(a.Rows, rowGrain, func(lo, hi int) {
		clear(od[lo*m : hi*m])
		for i := lo; i < hi; i++ {
			o := od[i*m : (i+1)*m]
			ai := ad[i*kk : (i+1)*kk]
			k := 0
			for ; k+4 <= kk; k += 4 {
				axpy4(o, bd[k*m:(k+1)*m], bd[(k+1)*m:(k+2)*m], bd[(k+2)*m:(k+3)*m], bd[(k+3)*m:(k+4)*m],
					(*[4]float64)(ai[k:]))
			}
			for ; k < kk; k++ {
				axpy(o, bd[k*m:(k+1)*m], ai[k])
			}
		}
	})
}

// MatMulT1Into computes out = aᵀ·b, sharded over output rows (columns of
// a). k is the outer loop: each pass takes four rows of a and b and adds
// their contribution to every output row of the shard (axpy4), so a and
// b — the tall operands, thousands of rows in a training step — are
// streamed once while the shard of out, a layer's weight shape, stays in
// cache. Walking out row by row instead re-reads all of b per row.
func MatMulT1Into(out, a, b *Dense) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT1 shape mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	kk, n, m := a.Rows, a.Cols, b.Cols
	ad, bd, od := a.Data, b.Data, out.Data
	parallelFor(n, rowGrain, func(lo, hi int) {
		clear(od[lo*m : hi*m])
		k := 0
		for ; k+4 <= kk; k += 4 {
			b0, b1, b2, b3 := bd[k*m:(k+1)*m], bd[(k+1)*m:(k+2)*m], bd[(k+2)*m:(k+3)*m], bd[(k+3)*m:(k+4)*m]
			for i := lo; i < hi; i++ {
				x := [4]float64{ad[k*n+i], ad[(k+1)*n+i], ad[(k+2)*n+i], ad[(k+3)*n+i]}
				axpy4(od[i*m:(i+1)*m], b0, b1, b2, b3, &x)
			}
		}
		for ; k < kk; k++ {
			bk := bd[k*m : (k+1)*m]
			for i := lo; i < hi; i++ {
				axpy(od[i*m:(i+1)*m], bk, ad[k*n+i])
			}
		}
	})
}

// MatMulT2Into computes out = a·bᵀ, sharded over output rows. Every
// element is a dot product of two contiguous rows, so the kernel is a
// register tile: three rows of a against two rows of b, six sums held in
// locals across the whole k loop, each load feeding two or three
// multiply-adds and out written once. The leftover rows and column of a
// shard fall to dots, one element at a time.
func MatMulT2Into(out, a, b *Dense) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT2 shape mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	kk, m := a.Cols, b.Rows
	ad, bd, od := a.Data, b.Data, out.Data
	parallelFor(a.Rows, rowGrain, func(lo, hi int) {
		mt := m &^ 1 // columns the tile covers
		i := lo
		for ; i+3 <= hi; i += 3 {
			a0 := ad[i*kk : (i+1)*kk]
			a1 := ad[(i+1)*kk : (i+2)*kk][:len(a0)]
			a2 := ad[(i+2)*kk : (i+3)*kk][:len(a0)]
			for j := 0; j < mt; j += 2 {
				b0 := bd[j*kk : (j+1)*kk][:len(a0)]
				b1 := bd[(j+1)*kk : (j+2)*kk][:len(a0)]
				var c00, c01, c10, c11, c20, c21 float64
				for k, x0 := range a0 {
					x1, x2 := a1[k], a2[k]
					y := b0[k]
					c00 += x0 * y
					c10 += x1 * y
					c20 += x2 * y
					y = b1[k]
					c01 += x0 * y
					c11 += x1 * y
					c21 += x2 * y
				}
				od[i*m+j], od[i*m+j+1] = c00, c01
				od[(i+1)*m+j], od[(i+1)*m+j+1] = c10, c11
				od[(i+2)*m+j], od[(i+2)*m+j+1] = c20, c21
			}
		}
		dotsABT(od, ad, bd, kk, m, lo, i, mt, m)
		dotsABT(od, ad, bd, kk, m, i, hi, 0, m)
	})
}

// dotsABT fills out[i0:i1, j0:j1] of out = a·bᵀ one dot product at a
// time.
func dotsABT(od, ad, bd []float64, kk, m, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i++ {
		ai := ad[i*kk : (i+1)*kk]
		for j := j0; j < j1; j++ {
			bj := bd[j*kk : (j+1)*kk][:len(ai)]
			var c float64
			for k, x := range ai {
				c += x * bj[k]
			}
			od[i*m+j] = c
		}
	}
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

// ColSumsInto accumulates per-column sums into dst (dst is overwritten),
// each column top to bottom. One goroutine streams the rows: the loop is
// memory-bound and a row is a few cache lines, so it is not sharded —
// column shards read at stride Cols and measured 17× slower than this
// loop at the 6000×64 shape a training step calls it with.
func (m *Dense) ColSumsInto(dst []float64) {
	if len(dst) != m.Cols {
		panic("tensor: ColSumsInto length mismatch")
	}
	clear(dst)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst[j] += v
		}
	}
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

package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// fromSlice wraps data (not copied) as a rows x cols matrix.
func fromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic("tensor: fromSlice length mismatch")
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// apply maps f over every element of m in place, sharded over the worker
// pool the way the flat kernels are.
func apply(m *Dense, f func(float64) float64) {
	parallelFor(len(m.Data), flatGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] = f(m.Data[i])
		}
	})
}

// matMul returns a·b, matMulT1 aᵀ·b and matMulT2 a·bᵀ in fresh matrices.
func matMul(a, b *Dense) *Dense {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

func matMulT1(a, b *Dense) *Dense {
	out := New(a.Cols, b.Cols)
	MatMulT1Into(out, a, b)
	return out
}

func matMulT2(a, b *Dense) *Dense {
	out := New(a.Rows, b.Rows)
	MatMulT2Into(out, a, b)
	return out
}

func colSums(m *Dense) []float64 {
	out := make([]float64, m.Cols)
	m.ColSumsInto(out)
	return out
}

func gatherRows(m *Dense, idx []int32) *Dense {
	out := New(len(idx), m.Cols)
	GatherRowsInto(out, m, idx)
	return out
}

// inUse reports how many buffers ws has handed out since its last release.
func inUse(ws *Workspace) int {
	if ws == nil {
		return 0
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.inUse)
}

func TestMatMulKnown(t *testing.T) {
	a := fromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := fromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := matMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(c.Data[i], w) {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMul with mismatched shapes did not panic")
		}
	}()
	matMul(New(2, 3), New(2, 3))
}

// naive computes aᵀ·b or a·bᵀ the slow obvious way to cross-check the
// optimized kernels.
func naiveT1(a, b *Dense) *Dense {
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

func naiveT2(a, b *Dense) *Dense {
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

func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatMulTransposedAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k, n, m := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randomDense(rng, k, n)
		b := randomDense(rng, k, m)
		got := matMulT1(a, b)
		want := naiveT1(a, b)
		for i := range got.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				return false
			}
		}
		c := randomDense(rng, n, k)
		d := randomDense(rng, m, k)
		got2 := matMulT2(c, d)
		want2 := naiveT2(c, d)
		for i := range got2.Data {
			if math.Abs(got2.Data[i]-want2.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// (A·B)ᵀ == Bᵀ·Aᵀ is exercised indirectly: matMulT1(A, I) must equal Aᵀ.
func TestMatMulT1Identity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 4, 3)
	eye := New(4, 4)
	for i := 0; i < 4; i++ {
		eye.Set(i, i, 1)
	}
	at := matMulT1(a, eye) // aᵀ·I = aᵀ, shape 3x4
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if !almostEq(at.At(i, j), a.At(j, i)) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestAddBiasAndColSums(t *testing.T) {
	m := fromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	m.AddBias([]float64{10, 20, 30})
	want := []float64{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if !almostEq(m.Data[i], w) {
			t.Fatalf("AddBias[%d] = %v, want %v", i, m.Data[i], w)
		}
	}
	sums := colSums(m)
	if !almostEq(sums[0], 25) || !almostEq(sums[1], 47) || !almostEq(sums[2], 69) {
		t.Errorf("ColSums = %v", sums)
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomDense(rng, 6, 4)
	idx := []int32{5, 0, 3}
	g := gatherRows(m, idx)
	if g.Rows != 3 || g.Cols != 4 {
		t.Fatalf("gather shape %dx%d", g.Rows, g.Cols)
	}
	for i, r := range idx {
		for j := 0; j < 4; j++ {
			if !almostEq(g.At(i, j), m.At(int(r), j)) {
				t.Fatalf("gather mismatch at row %d", i)
			}
		}
	}
	dst := New(6, 4)
	ScatterAddRows(dst, g, idx)
	ScatterAddRows(dst, g, idx)
	for i, r := range idx {
		for j := 0; j < 4; j++ {
			if !almostEq(dst.At(int(r), j), 2*g.At(i, j)) {
				t.Fatalf("scatter mismatch at row %d", i)
			}
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := fromSlice(2, 3, []float64{0, 0, 0, 1000, 1000, 1000})
	m.SoftmaxRows()
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			v := m.At(i, j)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax value %v out of range (row %d)", v, i)
			}
			sum += v
		}
		if !almostEq(sum, 1) {
			t.Fatalf("softmax row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxRowsSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomDense(rng, 1+rng.Intn(5), 1+rng.Intn(6))
		m.ScaleInPlace(50) // stress stability
		m.SoftmaxRows()
		for i := 0; i < m.Rows; i++ {
			var sum float64
			for _, v := range m.Row(i) {
				if math.IsNaN(v) || v < 0 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestArgmaxRows(t *testing.T) {
	m := fromSlice(2, 3, []float64{1, 9, 2, 7, 0, 3})
	am := m.ArgmaxRows()
	if am[0] != 1 || am[1] != 0 {
		t.Errorf("ArgmaxRows = %v, want [1 0]", am)
	}
}

func TestGlorotInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := New(32, 32)
	m.GlorotInit(rng, 32, 32)
	limit := math.Sqrt(6.0 / 64.0)
	var nonzero int
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Glorot value %v exceeds limit %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 1000 {
		t.Error("GlorotInit left most entries zero")
	}
}

func TestApplyScaleAdd(t *testing.T) {
	m := fromSlice(1, 3, []float64{-1, 0, 2})
	apply(m, func(v float64) float64 { return math.Max(0, v) })
	if m.Data[0] != 0 || m.Data[2] != 2 {
		t.Errorf("Apply relu = %v", m.Data)
	}
	m.ScaleInPlace(3)
	if m.Data[2] != 6 {
		t.Errorf("ScaleInPlace = %v", m.Data)
	}
	m.AddInPlace(fromSlice(1, 3, []float64{1, 1, 1}))
	if m.Data[0] != 1 || m.Data[2] != 7 {
		t.Errorf("AddInPlace = %v", m.Data)
	}
}

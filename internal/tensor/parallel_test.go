package tensor

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

var errTest = errors.New("test error")

// withParallelism sets the worker count for a test and restores it after.
func withParallelism(t *testing.T, n int) {
	t.Helper()
	prev := Parallelism()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(prev) })
}

func randDense(rng *rand.Rand, rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// bitwiseEq fails the test at the first bit-level difference.
func bitwiseEq(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d (row %d col %d) = %v, want %v (bitwise)", name, i, i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
		}
	}
}

// TestParallelKernelsBitwiseEqualSerial runs every sharded kernel at
// parallelism 1 and 4 on the same inputs and demands bit-identical
// outputs: all sharding is over disjoint output ranges with serial
// accumulation order per element.
func TestParallelKernelsBitwiseEqualSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Odd sizes exercise ragged shards; all dimensions sit above the
	// dispatch grains (rowGrain, copyGrain, flatGrain) so every kernel
	// actually takes the sharded path at parallelism 4.
	const n, k, m = 150, 97, 71
	a := randDense(rng, n, k)
	b := randDense(rng, k, m)
	bt := randDense(rng, m, k)
	at := randDense(rng, k, n)
	// Sprinkle exact zeros, as post-ReLU/dropout activations carry.
	for i := 0; i < len(a.Data); i += 3 {
		a.Data[i] = 0
	}
	idx := make([]int32, 2*n)
	for i := range idx {
		idx[i] = int32(rng.Intn(n))
	}
	bias := make([]float64, m)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}

	type kernel struct {
		name string
		run  func() *Dense
	}
	kernels := []kernel{
		{"MatMulInto", func() *Dense {
			out := New(n, m)
			MatMulInto(out, a, b)
			return out
		}},
		{"MatMulT1Into", func() *Dense {
			out := New(n, m)
			MatMulT1Into(out, at, b)
			return out
		}},
		{"MatMulT2Into", func() *Dense {
			out := New(n, m)
			MatMulT2Into(out, a, bt)
			return out
		}},
		{"GatherRowsInto", func() *Dense {
			out := New(len(idx), k)
			GatherRowsInto(out, a, idx)
			return out
		}},
		{"ScatterAddRows", func() *Dense {
			src := randDense(rand.New(rand.NewSource(7)), len(idx), k)
			dst := New(n, k)
			ScatterAddRows(dst, src, idx)
			return dst
		}},
		{"SoftmaxRows", func() *Dense {
			c := a.Clone()
			c.SoftmaxRows()
			return c
		}},
		{"Apply", func() *Dense {
			c := a.Clone()
			apply(c, func(v float64) float64 { return v * v })
			return c
		}},
		{"AddBias", func() *Dense {
			c := randDense(rand.New(rand.NewSource(8)), n, m)
			c.AddBias(bias)
			return c
		}},
		{"AddInPlace", func() *Dense {
			c := a.Clone()
			c.AddInPlace(a)
			return c
		}},
		{"ScaleInPlace", func() *Dense {
			c := a.Clone()
			c.ScaleInPlace(1.7)
			return c
		}},
		{"ColSums", func() *Dense {
			return fromSlice(1, k, colSums(a))
		}},
	}
	for _, kr := range kernels {
		SetParallelism(1)
		want := kr.run()
		SetParallelism(4)
		got := kr.run()
		SetParallelism(1)
		bitwiseEq(t, kr.name, got, want)
	}
}

// TestScatterAddRowsParallelLargePath forces the sharded scan path (it
// only engages above a work threshold) and checks bitwise equality.
func TestScatterAddRowsParallelLargePath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rows, cols = 300, 80
	idx := make([]int32, 4*rows)
	for i := range idx {
		idx[i] = int32(rng.Intn(rows))
	}
	src := randDense(rng, len(idx), cols)
	run := func() *Dense {
		dst := New(rows, cols)
		ScatterAddRows(dst, src, idx)
		return dst
	}
	withParallelism(t, 1)
	want := run()
	SetParallelism(4)
	got := run()
	bitwiseEq(t, "ScatterAddRows/large", got, want)
}

// TestNestedDispatchDoesNotDeadlock issues a sharded kernel from inside
// a worker callback: the helping wait must drain the nested jobs instead
// of parking the fixed-size pool (the classic nested-pool deadlock).
func TestNestedDispatchDoesNotDeadlock(t *testing.T) {
	withParallelism(t, 4)
	rng := rand.New(rand.NewSource(9))
	a := randDense(rng, 64, 32)
	b := randDense(rng, 32, 16)
	results := make([]*Dense, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ParallelRows(len(results), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out := New(a.Rows, b.Cols)
				MatMulInto(out, a, b) // nested dispatch from a pool worker
				results[i] = out
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second): // orders of magnitude above the expected runtime
		t.Fatal("nested parallel dispatch deadlocked")
	}
	want := matMul(a, b)
	for i, got := range results {
		if got == nil {
			t.Fatalf("result %d missing", i)
		}
		bitwiseEq(t, "nested", got, want)
	}
}

func TestSetParallelismClamps(t *testing.T) {
	withParallelism(t, 1)
	SetParallelism(0)
	if got := Parallelism(); got != 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(0), want 1", got)
	}
	SetParallelism(1 << 20)
	if got := Parallelism(); got != maxWorkers {
		t.Fatalf("Parallelism() = %d, want clamp to %d", got, maxWorkers)
	}
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(4, 8)
	if a.Rows != 4 || a.Cols != 8 {
		t.Fatalf("Get shape %dx%d", a.Rows, a.Cols)
	}
	ws.Put(a)
	if inUse(ws) != 0 {
		t.Fatalf("InUse after Put = %d, want 0", inUse(ws))
	}
	// Same element count: eligible for reuse (sync.Pool may legitimately
	// drop items — e.g. ~1/4 under -race — so reuse is not asserted by
	// pointer identity, only that the reshape contract holds).
	b := ws.Get(8, 4)
	if b.Rows != 8 || b.Cols != 4 {
		t.Fatalf("reshaped Get = %dx%d, want 8x4", b.Rows, b.Cols)
	}
	c := ws.Get(8, 4) // still in use: must NOT alias b
	if &c.Data[0] == &b.Data[0] {
		t.Error("Get returned an in-use buffer")
	}
	if inUse(ws) != 2 {
		t.Fatalf("InUse = %d, want 2", inUse(ws))
	}
	ws.ReleaseAll()
	if inUse(ws) != 0 {
		t.Fatalf("InUse after ReleaseAll = %d, want 0", inUse(ws))
	}
	z := ws.GetZeroed(8, 4)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("GetZeroed element %d = %v", i, v)
		}
	}
}

func TestNilWorkspaceDegradesToAlloc(t *testing.T) {
	var ws *Workspace
	m := ws.Get(3, 3)
	if m == nil || m.Rows != 3 {
		t.Fatal("nil workspace Get failed")
	}
	ws.Put(m)       // no-op
	ws.ReleaseAll() // no-op
	if inUse(ws) != 0 {
		t.Fatal("nil workspace InUse != 0")
	}
}

func TestForEachIndexCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {3, 8}, {100, 0}, {1000, 1}, {1000, 3}, {1000, 16},
	} {
		counts := make([]atomic.Int32, max(tc.n, 1))
		ForEachIndex(tc.n, tc.workers, func(i int) {
			if i < 0 || i >= tc.n {
				t.Errorf("n=%d workers=%d: index %d out of range", tc.n, tc.workers, i)
				return
			}
			counts[i].Add(1)
		})
		for i := 0; i < tc.n; i++ {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, got)
			}
		}
	}
}

func TestForEachIndexIndexStampedOrder(t *testing.T) {
	// Index-stamped writes must reproduce the serial output at any width.
	const n = 257
	want := make([]int, n)
	ForEachIndex(n, 1, func(i int) { want[i] = i * i })
	for _, workers := range []int{2, 5, 32} {
		got := make([]int, n)
		ForEachIndex(n, workers, func(i int) { got[i] = i * i })
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: output differs from serial", workers)
		}
	}
}

func TestForEachIndexNestedKernelDispatch(t *testing.T) {
	// Coarse items may issue sharded kernels from inside fn; the shared
	// pool must neither deadlock nor perturb results.
	withParallelism(t, 4)
	const rows, cols = 33, 17
	sums := make([]float64, 8)
	for _, workers := range []int{1, 4} {
		got := make([]float64, len(sums))
		for i := range got {
			got[i] = -1
		}
		ForEachIndex(len(got), workers, func(i int) {
			a := New(rows, cols)
			for j := range a.Data {
				a.Data[j] = float64(j%7) + float64(i)
			}
			b := New(cols, rows)
			for j := range b.Data {
				b.Data[j] = 1
			}
			out := New(rows, rows)
			MatMulInto(out, a, b)
			var s float64
			for _, v := range out.Data {
				s += v
			}
			got[i] = s
		})
		if workers == 1 {
			copy(sums, got)
			continue
		}
		if !slices.Equal(got, sums) {
			t.Fatalf("nested dispatch at %d workers diverged from serial", workers)
		}
	}
}

func TestForEachIndexErr(t *testing.T) {
	// No error: all indices visited, nil returned.
	var visited atomic.Int32
	if err := ForEachIndexErr(10, 4, func(i int) error {
		visited.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("ForEachIndexErr: %v", err)
	}
	if visited.Load() != 10 {
		t.Fatalf("visited %d indices, want 10", visited.Load())
	}
	// Serial error: the failing index's error returns and later items
	// are skipped, like a plain loop's early return.
	var ran []int
	err := ForEachIndexErr(8, 1, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("error = %v, want errTest", err)
	}
	if !slices.Equal(ran, []int{0, 1, 2, 3}) {
		t.Fatalf("serial short-circuit ran %v", ran)
	}
	// Parallel error: an error is returned and the fan-out stops early
	// (not every index runs once the failure is observed).
	var count atomic.Int32
	err = ForEachIndexErr(1000, 4, func(i int) error {
		count.Add(1)
		if i == 0 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("parallel error = %v, want errTest", err)
	}
	if count.Load() == 1000 {
		t.Log("note: all items ran before the failure was observed (legal but unexpected on index 0)")
	}
}

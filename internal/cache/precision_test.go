package cache

import (
	"math"
	"math/rand"
	"testing"

	"gnnavigator/internal/tensor"
)

func TestPrecisionRegistry(t *testing.T) {
	if got := Precisions(); len(got) != 3 || got[0] != Float32 || got[1] != Float16 || got[2] != Int8 {
		t.Fatalf("Precisions() = %v", got)
	}
	for _, p := range append(Precisions(), "") {
		if !p.Valid() {
			t.Errorf("%q invalid", p)
		}
	}
	if Precision("fp8").Valid() {
		t.Error("fp8 accepted")
	}
	if Precision("").OrDefault() != Float32 {
		t.Error("zero value does not default to float32")
	}
	for _, tc := range []struct {
		p          Precision
		perScalar  int
		row, store int64 // at featDim 16
	}{
		{Float32, 4, 64, 64},
		{Float16, 2, 32, 32},
		{Int8, 1, 16, 24}, // +8 bytes of per-row scale/zero in storage only
	} {
		if got := tc.p.BytesPerScalar(); got != tc.perScalar {
			t.Errorf("%s: BytesPerScalar = %d, want %d", tc.p, got, tc.perScalar)
		}
		if got := tc.p.RowBytes(16); got != tc.row {
			t.Errorf("%s: RowBytes(16) = %d, want %d", tc.p, got, tc.row)
		}
		if got := tc.p.StorageRowBytes(16); got != tc.store {
			t.Errorf("%s: StorageRowBytes(16) = %d, want %d", tc.p, got, tc.store)
		}
	}
}

// TestEffectiveCacheRows pins the capacity contract: the float32 path is
// exactly the pre-precision ratio·vertices expression (bitwise — the
// baseline pins depend on it), compact precisions stretch the same byte
// budget 2–4× and cap at the vertex count.
func TestEffectiveCacheRows(t *testing.T) {
	ratio, vertices := 0.3, 12345.0
	if got, want := Float32.EffectiveCacheRows(ratio, vertices, 64), ratio*vertices; got != want {
		t.Fatalf("float32 rows = %v, want exactly %v", got, want)
	}
	// float16: budget r·v·fd·4 over fd·2 per row = exactly 2·r·v.
	if got, want := Float16.EffectiveCacheRows(ratio, vertices, 64), 2*ratio*vertices; got != want {
		t.Fatalf("float16 rows = %v, want %v", got, want)
	}
	// int8: fd·4 over fd+8 per row (ratio 0.1 keeps it under the vertex cap).
	if got, want := Int8.EffectiveCacheRows(0.1, vertices, 64), 0.1*vertices*256/72; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("int8 rows = %v, want %v", got, want)
	}
	// A large ratio cannot exceed the vertex count at compact precisions.
	if got := Int8.EffectiveCacheRows(0.3, vertices, 64); got != vertices {
		t.Fatalf("int8 rows uncapped: %v", got)
	}
	// ...but the float32 identity stays uncapped (pre-precision behavior:
	// callers cap against NumVertices themselves).
	if got := Float32.EffectiveCacheRows(1, vertices, 64); got != vertices {
		t.Fatalf("float32 rows at ratio 1 = %v", got)
	}
}

// TestFloat16ExhaustiveRoundTrip proves f16→f32→f16 is the identity for
// every finite half bit pattern: f16ToF32 is exact and f32ToF16 rounds a
// value that is already representable to itself.
func TestFloat16ExhaustiveRoundTrip(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		bits := uint16(h)
		if bits>>10&0x1f == 0x1f {
			continue // Inf/NaN: saturated/canonicalized by design
		}
		f := f16ToF32(bits)
		if got := f32ToF16(f); got != bits {
			t.Fatalf("bits %#04x -> %v -> %#04x", bits, f, got)
		}
	}
}

func TestFloat16SpecialValues(t *testing.T) {
	if got := f16ToF32(f32ToF16(float32(math.Inf(1)))); got != 65504 {
		t.Errorf("+Inf -> %v, want 65504 (saturate)", got)
	}
	if got := f16ToF32(f32ToF16(float32(math.Inf(-1)))); got != -65504 {
		t.Errorf("-Inf -> %v, want -65504", got)
	}
	if got := f16ToF32(f32ToF16(1e6)); got != 65504 {
		t.Errorf("overflow 1e6 -> %v, want 65504", got)
	}
	// 65520 is the rounding midpoint above the largest finite half;
	// RNE would carry into Inf — saturation must clamp it.
	if got := f16ToF32(f32ToF16(65520)); got != 65504 {
		t.Errorf("65520 -> %v, want 65504", got)
	}
	if got := f16ToF32(f32ToF16(float32(math.NaN()))); !math.IsNaN(float64(got)) {
		t.Errorf("NaN -> %v, want NaN", got)
	}
	if f32ToF16(0) != 0 || f32ToF16(float32(math.Copysign(0, -1))) != 0x8000 {
		t.Error("signed zeros not preserved")
	}
	// Smallest subnormal half is 2⁻²⁴; half of it rounds to even (zero),
	// anything above half rounds up to one code.
	if got := f32ToF16(0x1p-24); got != 0x0001 {
		t.Errorf("2^-24 -> %#04x, want 0x0001", got)
	}
	if got := f32ToF16(0x1p-25); got != 0 {
		t.Errorf("2^-25 (tie, round to even) -> %#04x, want 0", got)
	}
	if got := f32ToF16(0x1.8p-25); got != 0x0001 {
		t.Errorf("1.5*2^-25 -> %#04x, want 0x0001", got)
	}
}

// TestFloat16ErrorBound verifies the documented tolerance: relative
// error ≤ 2⁻¹¹ in the normal half range, absolute ≤ 2⁻²⁵ below it.
func TestFloat16ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	check := func(x float32) {
		t.Helper()
		got := float64(f16ToF32(f32ToF16(x)))
		d := math.Abs(got - float64(x))
		tol := math.Max(math.Abs(float64(x))*0x1p-11, 0x1p-25)
		if d > tol {
			t.Fatalf("x=%v: |%v - x| = %v > %v", x, got, d, tol)
		}
	}
	for i := 0; i < 200000; i++ {
		switch i % 4 {
		case 0:
			check((rng.Float32() - 0.5) * 2)
		case 1:
			check((rng.Float32() - 0.5) * 130000)
		case 2:
			check((rng.Float32() - 0.5) * 0x1p-13)
		default:
			check(float32(rng.NormFloat64()))
		}
	}
}

// TestInt8RoundTripBound verifies the asymmetric per-row quantizer's
// contract: error ≤ scale/2 per element, constant rows exact, and
// endpoints (row min/max) reproduced to float noise.
func TestInt8RoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dst := make([]float64, 64)
	for trial := 0; trial < 2000; trial++ {
		row := make([]float32, 64)
		spread := float32(math.Pow(10, rng.Float64()*6-3))
		off := float32(rng.NormFloat64()) * spread
		for j := range row {
			row[j] = off + (rng.Float32()-0.5)*spread
		}
		widenInt8(dst, row)
		lo, hi := row[0], row[0]
		for _, f := range row[1:] {
			lo, hi = min(lo, f), max(hi, f)
		}
		tol := float64(hi-lo)/510*(1+1e-6) + 1e-30
		for j, f := range row {
			if d := math.Abs(dst[j] - float64(f)); d > tol {
				t.Fatalf("trial %d col %d: |%v - %v| = %v > %v (scale/2 = %v)",
					trial, j, dst[j], f, d, tol, float64(hi-lo)/510)
			}
		}
	}
	// Constant rows: scale 0, every element exact.
	row := []float32{3.25, 3.25, 3.25}
	widenInt8(dst[:3], row)
	for j := range row {
		if dst[j] != 3.25 {
			t.Fatalf("constant row col %d: %v", j, dst[j])
		}
	}
}

// TestWidenRowFloat32Identity pins the baseline kernel: a bitwise
// widening copy, nothing else.
func TestWidenRowFloat32Identity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	src := make([]float32, 128)
	for j := range src {
		src[j] = float32(rng.NormFloat64()) * 1e3
	}
	dst := make([]float64, len(src))
	Float32.WidenRow(dst, src)
	for j, f := range src {
		if dst[j] != float64(f) {
			t.Fatalf("col %d: %v != %v", j, dst[j], float64(f))
		}
	}
}

// TestGatherConsistencyAcrossSources is the tolerance-tier equivalence
// contract, end to end through the gather path: at every precision, a
// cached source is bitwise-identical to the uncached source on the same
// access stream — so residency never changes a gathered value, against
// the plain host path — and both stay within the precision's error
// bound of the float32 gather.
func TestGatherConsistencyAcrossSources(t *testing.T) {
	g := featuredGraph(t)
	stream := accessStream(t, g, 24, 200, 29)
	for _, prec := range Precisions() {
		t.Run(string(prec), func(t *testing.T) {
			c, err := NewAtPrecision(LRU, 300, g, prec)
			if err != nil {
				t.Fatal(err)
			}
			cached := NewCachedSource(c, g)
			host, err := NewSource(Config{Policy: None, Precision: prec}, g)
			if err != nil {
				t.Fatal(err)
			}
			var a, b *tensor.Dense
			for bi, batch := range stream {
				a, _ = cached.GatherInto(a, batch)
				b, _ = host.GatherInto(b, batch)
				for i, v := range batch {
					ra, rb, hr := a.Row(i), b.Row(i), g.Feature(v)
					for j := range ra {
						if ra[j] != rb[j] {
							t.Fatalf("batch %d vertex %d col %d: cached %v vs host %v", bi, v, j, ra[j], rb[j])
						}
						d := math.Abs(ra[j] - float64(hr[j]))
						var tol float64
						switch prec {
						case Float16:
							tol = math.Max(math.Abs(float64(hr[j]))*0x1p-11, 0x1p-24)
						case Int8:
							lo, hi := hr[0], hr[0]
							for _, f := range hr[1:] {
								lo, hi = min(lo, f), max(hi, f)
							}
							tol = float64(hi-lo)/510*(1+1e-6) + 1e-12
						}
						if d > tol {
							t.Fatalf("batch %d vertex %d col %d: |%v - %v| = %v > %v", bi, v, j, ra[j], hr[j], d, tol)
						}
					}
				}
			}
		})
	}
}

// TestPrecisionSourceAccounting pins the transfer pricing: every
// transferred row is priced at RowBytes, so the byte ratios between
// precisions are exactly the payload-width ratios — on an uncached
// source (every row moves) and behind an LRU of equal capacity in rows
// (identical miss sequence at every precision, narrower payload).
func TestPrecisionSourceAccounting(t *testing.T) {
	g := featuredGraph(t)
	stream := accessStream(t, g, 20, 256, 31)
	sources := map[string]func(p Precision) FeatureSource{
		"uncached": func(p Precision) FeatureSource {
			s, err := NewSource(Config{Policy: None, Precision: p}, g)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"lru": func(p Precision) FeatureSource {
			c, err := NewAtPrecision(LRU, 300, g, p)
			if err != nil {
				t.Fatal(err)
			}
			return NewCachedSource(c, g)
		},
	}
	for name, newSource := range sources {
		bytesAt := func(p Precision) int64 {
			s := newSource(p)
			var sum int64
			for _, batch := range stream {
				sum += s.Access(batch).TransferBytes
			}
			if got := s.TransferredBytes(); got != sum {
				t.Errorf("%s/%s: TransferredBytes %d != summed batch stats %d", name, p, got, sum)
			}
			return sum
		}
		f32 := bytesAt(Float32)
		if f32 == 0 {
			t.Fatalf("%s: no bytes transferred", name)
		}
		if got := bytesAt(Float16) * 2; got != f32 {
			t.Errorf("%s: float16 transfer not exactly half: %d vs %d", name, got/2, f32)
		}
		if got := bytesAt(Int8) * 4; got != f32 {
			t.Errorf("%s: int8 transfer not exactly a quarter: %d vs %d", name, got/4, f32)
		}
	}
}

package cache

import "math"

// The compact feature plane.
//
// Feature bytes dominate both Eq. 6's transfer term and the Γ_cache
// share of device memory, so the storage width of a feature row is a
// design knob exactly like sampling fanout: a Precision selects the
// width rows cross the host link at and the device memory a cached row
// is priced at. Quantization is a pure function of the host row, so a
// resident row and a just-transferred one are the same values: every
// gather quantizes and dequantizes in one fused kernel (widen) inside
// the sharded copy loop that widens rows to float64 for compute, and
// the steady-state gather path stays at zero allocations per batch.
//
// Equivalence contract (two tiers):
//
//   - Float32 (and the zero value "") is the verbatim baseline: every
//     pre-precision bitwise pin — the kernel trace golden, pipeline
//     outputs at any prefetch depth or worker count — holds unchanged.
//   - Float16/Int8 are tolerance-based against the float32 values, with
//     proven per-element bounds (see below), and deterministic: a row's
//     gathered values depend on the row alone, never on whether it was
//     resident.
//
// Error bounds:
//
//   - Float16: IEEE 754 binary16 with round-to-nearest-even; relative
//     error ≤ 2⁻¹¹ in the normal range (|x| ≥ 2⁻¹⁴), absolute error
//     ≤ 2⁻²⁵ in the subnormal range. Values beyond the half range
//     saturate to ±65504.
//   - Int8: asymmetric per-row quantization onto 255 codes with
//     scale = (max−min)/255, zero = min; absolute error ≤ scale/2
//     (plus float arithmetic noise), and a constant row reproduces
//     exactly.
//
// Transfer vs storage pricing: the host→device payload of a row is
// featDim quantized scalars (RowBytes) — the int8 per-row scale/zero
// pair rides the same metadata channel as the gather indices, which
// Eq. 6 never priced. Device storage (StorageRowBytes) does charge
// those 8 bytes, shrinking the effective capacity a fixed Γ budget
// buys (EffectiveCacheRows).

// Precision names a feature-row storage width. The zero value means
// Float32 (the pre-precision baseline).
type Precision string

// Supported precisions.
const (
	// Float32 stores rows verbatim — 4 bytes/scalar, zero error.
	Float32 Precision = "float32"
	// Float16 bit-packs rows as IEEE 754 binary16 in uint16 — 2
	// bytes/scalar.
	Float16 Precision = "float16"
	// Int8 stores rows as uint8 codes with a per-row (scale, zero)
	// pair — 1 byte/scalar + 8 bytes/row of device-side parameters.
	Int8 Precision = "int8"
)

// Precisions lists all supported precisions in width-descending order
// (the presentation order of the ablation and bench tables).
func Precisions() []Precision { return []Precision{Float32, Float16, Int8} }

// Valid reports whether p is a known precision (the zero value counts:
// it resolves to Float32).
func (p Precision) Valid() bool {
	switch p {
	case "", Float32, Float16, Int8:
		return true
	}
	return false
}

// OrDefault resolves the zero value to the Float32 baseline, so an
// unset config field keeps pre-precision behaviour.
func (p Precision) OrDefault() Precision {
	if p == "" {
		return Float32
	}
	return p
}

// BytesPerScalar returns the stored width of one feature scalar.
func (p Precision) BytesPerScalar() int {
	switch p.OrDefault() {
	case Float16:
		return 2
	case Int8:
		return 1
	}
	return 4
}

// RowBytes is the host→device transfer payload of one feature row at
// this precision: featDim quantized scalars. The int8 per-row
// scale/zero pair is deliberately absent — it travels the same
// unpriced metadata channel as the gather indices — so int8 transfer
// is exactly 0.25× and float16 exactly 0.5× of the float32 baseline.
func (p Precision) RowBytes(featDim int) int64 {
	return int64(featDim) * int64(p.BytesPerScalar())
}

// StorageRowBytes is the device memory one cached row is priced at:
// the quantized payload plus, for int8, the row's two float32
// quantization parameters.
func (p Precision) StorageRowBytes(featDim int) int64 {
	b := p.RowBytes(featDim)
	if p.OrDefault() == Int8 {
		b += 8
	}
	return b
}

// EffectiveCacheRows converts a float32-denominated cache budget
// (ratio · vertices · featDim · 4 bytes — how cache ratios have always
// been priced) into a capacity in rows at this precision. The Float32
// path returns exactly ratio*vertices, the pre-precision expression,
// so every bitwise pin on the baseline holds unchanged; compact
// precisions divide the byte budget by their storage row bytes and cap
// at the vertex count — a fixed Γ budget holds 2–4× the vertices.
func (p Precision) EffectiveCacheRows(ratio, vertices float64, featDim int) float64 {
	if p.OrDefault() == Float32 {
		return ratio * vertices
	}
	budget := ratio * vertices * float64(featDim) * 4
	rows := budget / float64(p.StorageRowBytes(featDim))
	return math.Min(rows, vertices)
}

// widenFunc widens one host float32 row into a float64 destination
// through the precision's quantize→dequantize round trip — the fused
// dequant kernel the sharded copy loops dispatch per row.
type widenFunc func(dst []float64, src []float32)

// widen returns the precision's fused kernel. The returned values are
// references to top-level functions, so binding one costs no
// allocation.
func (p Precision) widen() widenFunc {
	switch p.OrDefault() {
	case Float16:
		return widenFloat16
	case Int8:
		return widenInt8
	}
	return widenFloat32
}

// WidenRow applies the fused quantize→dequantize→widen transform to
// one feature row: dst[j] = float64(dequant(quant(src[j]))). For
// Float32 this is the plain widening copy. The cache's sources bind
// the same kernels once; this entry point serves the equivalence
// tests, here and in cmd/gnnserve.
func (p Precision) WidenRow(dst []float64, src []float32) { p.widen()(dst, src) }

func widenFloat32(dst []float64, src []float32) {
	for j, f := range src {
		dst[j] = float64(f)
	}
}

func widenFloat16(dst []float64, src []float32) {
	for j, f := range src {
		dst[j] = float64(f16ToF32(f32ToF16(f)))
	}
}

func widenInt8(dst []float64, src []float32) {
	scale, zero := int8RowParams(src)
	if scale == 0 {
		z := float64(zero)
		for j := range src {
			dst[j] = z
		}
		return
	}
	s64, z64 := float64(scale), float64(zero)
	for j, f := range src {
		dst[j] = z64 + s64*int8Code(f, zero, s64)
	}
}

// --- float16 (IEEE 754 binary16, manual — no deps) -----------------------

// f32ToF16 converts a float32 to binary16 bits with round-to-nearest-
// even. Overflow saturates to ±65504 (the largest finite half) instead
// of ±Inf — a saturated feature value degrades gracefully, an Inf one
// poisons every downstream aggregate. NaN stays NaN.
func f32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	man := b & 0x7fffff
	switch {
	case exp == 0xff: // Inf or NaN
		if man != 0 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7bff // saturate Inf
	case exp > 142: // unbiased > 15: beyond the half range
		return sign | 0x7bff
	case exp >= 113: // unbiased in [-14, 15]: normal half
		v := uint32(exp-112)<<10 | man>>13
		round := man & 0x1fff // the 13 dropped bits
		if round > 0x1000 || (round == 0x1000 && v&1 == 1) {
			v++ // carries ripple into the exponent correctly
		}
		if v >= 0x7c00 {
			v = 0x7bff // rounding crossed into Inf: saturate
		}
		return sign | uint16(v)
	case exp >= 102: // subnormal half: value = round(|x| / 2⁻²⁴) codes
		man |= 0x800000 // make the implicit leading 1 explicit
		s := uint32(126 - exp)
		v := man >> s
		round := man & (1<<s - 1)
		half := uint32(1) << (s - 1)
		if round > half || (round == half && v&1 == 1) {
			v++ // may carry into the smallest normal — still correct bits
		}
		return sign | uint16(v)
	}
	return sign // below half the smallest subnormal: ±0
}

// f16ToF32 converts binary16 bits to float32 (exact: every half value
// is representable).
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f: // Inf or NaN
		return math.Float32frombits(sign | 0x7f800000 | man<<13)
	case exp != 0: // normal
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	case man != 0: // subnormal: man × 2⁻²⁴, exact in float32
		v := float32(man) * 0x1p-24
		if sign != 0 {
			v = -v
		}
		return v
	}
	return math.Float32frombits(sign) // ±0
}

// --- int8 (asymmetric per-row) -------------------------------------------

// int8RowParams computes the per-row quantization mapping [min, max]
// onto the 255 codes: q = round((x−zero)/scale), x̂ = zero + scale·q,
// so the reconstruction error is at most scale/2. A constant row gets
// scale 0 (every element reproduces exactly as zero); an empty row is
// (0, 0).
func int8RowParams(src []float32) (scale, zero float32) {
	if len(src) == 0 {
		return 0, 0
	}
	lo, hi := src[0], src[0]
	for _, f := range src[1:] {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi == lo {
		return 0, lo
	}
	return (hi - lo) / 255, lo
}

// int8Code returns the clamped code of f under (zero, scale) as a
// float64 — the rounding rule of the fused round trip (widenInt8).
func int8Code(f, zero float32, scale64 float64) float64 {
	// The subtraction must happen in float64, where it is exact for any
	// two float32 inputs — in float32 it rounds by up to (hi-lo)·2⁻²⁵,
	// which would push the worst-case round-trip error past scale/2.
	q := math.Round((float64(f) - float64(zero)) / scale64)
	if q < 0 {
		return 0
	}
	if q > 255 {
		return 255
	}
	return q
}

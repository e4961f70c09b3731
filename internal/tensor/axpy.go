package tensor

import (
	"fmt"
	"math"
)

// Row-update primitives: "c += a·b" over contiguous float32 rows. On amd64
// from the avx2 level up they run AVX2 (8-lane) assembly (simd.go dispatches);
// below it, and off amd64, they are the Go loops below.
//
// Who still loops over AxpyRow, and why. From AVX2 up the two hot consumers
// have the loop inside their kernel instead: the GEMMs keep a C tile in
// registers across k (gemm_amd64.s) and gnn's aggregation keeps a destination
// row in registers across its edge list (AggregateRow below). AxpyRow remains
// the inner loop of
//   - both of those below AVX2 and off amd64 (gemmStrip in matmul.go, the
//     fallback of AggregateRow) — which is what makes every level one
//     arithmetic;
//   - the scatters, at every level: gnn's serial AggregateBackwardSerial and
//     accel's source-sorted scatterGather write a different row on
//     consecutive edges, so there is no stationary row to hold;
//   - BiasGrad's column sum and accel's per-destination self term (one call
//     per row, nothing to amortise).
//
// One fused multiply-add per product, at every level. Each c += a·b is
// rounded once, as a·b + c computed exactly: a VFMADD lane in the kernels
// (gemm_amd64.s, aggregate_amd64.s, axpy_avx2_amd64.s), fmaProduct in the
// Go loops. So every level is one arithmetic, and vectorising across the row (j)
// never reorders the per-element accumulation over k.

// fmaProduct returns p + c rounded once to float32 (to nearest, ties to
// even), for p the float64 product of two float32s, which is exact (48
// significant bits at most): with p = float64(a)·float64(b) it is the scalar
// twin of one VFMADD231PS lane, for every input. It takes the product rather
// than a and b so that a row loop converts its shared factor once. The
// float64 sum s is the only rounding before the narrowing — and rounding
// twice differs from rounding once exactly when that first rounding lands s
// on a midpoint of the float32 grid, which is why float32(math.FMA(…)) is not
// this step. So s is rounded to odd instead: when the sum was inexact (its
// error, by Knuth's TwoSum, is nonzero), s is truncated toward zero and its
// last bit set. Rounding to odd at 53 bits and then to nearest at 24 or fewer
// (float32's subnormals included) is rounding once (Boldo & Melquiond, IEEE
// Trans. Computers 57(4), 2008). e is the error times s: the error is a
// multiple of 2⁻²⁹⁸ and s is nonzero when it is, so e cannot underflow, and
// its sign says whether s was rounded away from zero. A NaN or infinite s
// makes e NaN and narrows as it is.
func fmaProduct(p float64, c float32) float32 {
	s := p + float64(c)
	d := s - p
	e := ((p - (s - d)) + (float64(c) - d)) * s
	bits := math.Float64bits(s)
	if e != 0 && e == e {
		bits = (bits - math.Float64bits(e)>>63) | 1
	}
	return float32(math.Float64frombits(bits))
}

// AxpyRow computes dst[j] += alpha·src[j], fused, over len(src) elements
// (dst must be at least as long); exported so the propagation layers share
// its SIMD forms.
func AxpyRow(dst, src []float32, alpha float32) {
	n := len(src)
	dst = dst[:n]
	q := 0
	if haveAVX2Asm && n >= 8 && simdAtLeast(SIMDAVX2) {
		q = n &^ 7
		axpyRowAVX2Asm(dst[:q], src[:q], alpha)
	}
	a := float64(alpha)
	for j := q; j < n; j++ {
		dst[j] = fmaProduct(float64(src[j])*a, dst[j])
	}
}

// ScaleRowInto computes dst[j] = s·src[j] over len(src) elements — the
// scale-initialise pass of the gnn aggregation kernel (out = SelfW·h before
// the neighbor AxpyRows accumulate on top), exported for the same reason as
// AxpyRow.
func ScaleRowInto(dst, src []float32, s float32) {
	n := len(src)
	dst = dst[:n]
	q := 0
	if haveAVX2Asm && n >= 8 && simdAtLeast(SIMDAVX2) {
		q = n &^ 7
		scaleRowAVX2Asm(dst[:q], src[:q], s)
	}
	for j := q; j < n; j++ {
		dst[j] = s * src[j]
	}
}

// AggregateRow computes out[j] += Σ_e w[e]·h[idx[e]·cols + j] over j < cols,
// adding the edges in order: the destination-stationary form of
//
//	for e, s := range idx { AxpyRow(out[:cols], h[s·cols:][:cols], w[e]) }
//
// to which it is bit-identical at every level. From AVX2 up the loop over
// edges runs inside the assembly with the output row held in registers
// (aggregate_amd64.s): aggregateRowAVX2Asm at avx2, aggregateRowAVX512Asm
// (up to 128 columns per sweep of the edge list) at avx512; below, and off
// amd64, it is that AxpyRow loop. h is a row-major table of len(h)/cols
// rows; an index outside it, a w shorter than idx or an out shorter than
// cols panics before anything is written. The 512-bit kernel prefetches the
// row eight edges ahead and reads that index up to cap(idx): a caller that
// cuts one row's edges out of a longer list gets the next row's first
// sources on their way. Entries past len(idx) only steer prefetches, so they
// need not be valid rows.
func AggregateRow(out, h []float32, cols int, idx []int32, w []float32) {
	if cols <= 0 || len(out) < cols || len(w) < len(idx) {
		panic(fmt.Sprintf("tensor: AggregateRow out %d for %d cols, %d weights for %d edges",
			len(out), cols, len(w), len(idx)))
	}
	checkRowIndices("AggregateRow", idx, len(h)/cols)
	if len(idx) == 0 {
		return
	}
	aggregateRow(out, h, cols, idx, w)
}

// aggregateRow is AggregateRow past its checks (len(idx) ≥ 1). It reports the
// level of the kernel that ran, so the tests can tell that each level runs
// its own.
func aggregateRow(out, h []float32, cols int, idx []int32, w []float32) SIMDLevel {
	switch {
	case haveAVX2Asm && simdAtLeast(SIMDAVX512):
		aggregateRowAVX512Asm(out, h, cols, idx, w)
		return SIMDAVX512
	case haveAVX2Asm && simdAtLeast(SIMDAVX2):
		aggregateRowAVX2Asm(out, h, cols, idx, w)
		return SIMDAVX2
	}
	for e, s := range idx {
		AxpyRow(out, h[int(s)*cols:int(s)*cols+cols], w[e])
	}
	return SIMDGeneric
}

// checkRowIndices panics unless every index addresses one of rows rows: the
// row kernels take their index lists on trust, so their wrappers prove them
// first.
func checkRowIndices(op string, idx []int32, rows int) {
	for _, s := range idx {
		if uint(s) >= uint(rows) {
			panic(fmt.Sprintf("tensor: %s index %d outside %d rows", op, s, rows))
		}
	}
}

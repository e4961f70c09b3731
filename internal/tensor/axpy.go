package tensor

import "fmt"

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
// Why no FMA, here and in the GEMM tile: multiply and add stay separate
// instructions because fusing them would round once where the reference
// kernels round twice, and break the bit-exact equivalence the property tests
// pin down. Vectorising across the row (j) never reorders the per-element
// accumulation over k, so SIMD here is exactness-preserving at every level.

// AxpyRow computes dst[j] += alpha·src[j] over len(src) elements (dst must
// be at least as long); exported so the propagation layers share its SIMD
// forms.
func AxpyRow(dst, src []float32, alpha float32) {
	n := len(src)
	dst = dst[:n]
	q := 0
	if haveAVX2Asm && n >= 8 && simdAtLeast(SIMDAVX2) {
		q = n &^ 7
		axpyRowAVX2Asm(dst[:q], src[:q], alpha)
	}
	for j := q; j < n; j++ {
		dst[j] += alpha * src[j]
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

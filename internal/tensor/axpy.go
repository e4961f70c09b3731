package tensor

// Row-update primitives: "c += a·b" over contiguous float32 rows. They are the
// inner loop of gnn's aggregation at every dispatch level, and of the GEMMs
// below AVX2 and off amd64, where a strip of C is updated one B row at a time
// (gemmStrip in matmul.go; from AVX2 up the GEMMs keep their C tile in
// registers instead, gemm_amd64.s). On amd64 they dispatch through the runtime SIMD
// level (simd.go) to AVX2 (8 lanes) or SSE (4 lanes, the architecture
// baseline) assembly.
//
// Why no FMA, here and in the GEMM tile: multiply and add stay separate
// instructions because fusing them would round once where the reference
// kernels round twice, and break the bit-exact equivalence the property tests
// pin down. Vectorising across the row (j) never reorders the per-element
// accumulation over k, so SIMD here is exactness-preserving at every level.

// AxpyRow computes dst[j] += alpha·src[j] over len(src) elements (dst must
// be at least as long). It is the inner loop of the gnn aggregation scatter
// and of the GEMMs' portable strip; exported so the propagation layers share
// its SIMD forms.
func AxpyRow(dst, src []float32, alpha float32) {
	n := len(src)
	dst = dst[:n]
	q := 0
	switch {
	case haveAVX2Asm && n >= 8 && simdAtLeast(SIMDAVX2):
		q = n &^ 7
		axpyRowAVX2Asm(dst[:q], src[:q], alpha)
	case haveAxpyAsm && n >= 16 && simdAtLeast(SIMDSSE):
		q = n &^ 15
		axpyRowAsm(dst[:q], src[:q], alpha)
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

// copyRow copies src into dst (dst at least as long): the row-gather inner
// loop. The AVX2 form exists so a forced generic/sse level still measures
// honestly against memmove (copy), which the lower levels use.
func copyRow(dst, src []float32) {
	n := len(src)
	if haveAVX2Asm && n >= 8 && simdAtLeast(SIMDAVX2) {
		q := n &^ 7
		copyRowAVX2Asm(dst[:q], src[:q])
		if q < n {
			copy(dst[q:n], src[q:])
		}
		return
	}
	copy(dst[:n], src)
}

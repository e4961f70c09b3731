package tensor

// Row-update primitives: the innermost loops of every GEMM and aggregation
// kernel in this package are "c += a·b" row updates over contiguous
// float32 slices. On amd64 they dispatch through the runtime SIMD level
// (simd.go) to AVX2 (8 lanes) or SSE (4 lanes, the architecture baseline)
// assembly, with multiply and add kept as separate instructions: fusing them
// (FMA) would change rounding and break the bit-exact equivalence with the
// reference kernels that the property tests pin down. Vectorising across the
// row (j) never reorders the per-element accumulation over k, so SIMD here
// is exactness-preserving at every level.

// AxpyRow computes dst[j] += alpha·src[j] over len(src) elements (dst must
// be at least as long). It is the shared inner loop of the dense kernels and
// the gnn aggregation scatter; exported so the propagation layers use the
// same SIMD path as the GEMMs.
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

// axpyRow4 computes c0..c3[j] += a0..a3·b[j]: four row updates sharing one
// load of b, the 4-row register tile of the blocked GEMMs.
func axpyRow4(c0, c1, c2, c3, b []float32, a0, a1, a2, a3 float32) {
	n := len(b)
	c0, c1, c2, c3 = c0[:n], c1[:n], c2[:n], c3[:n]
	q := 0
	if n >= 8 {
		switch {
		case haveAVX2Asm && simdAtLeast(SIMDAVX2):
			q = n &^ 7
			axpyRow4AVX2Asm(c0[:q], c1[:q], c2[:q], c3[:q], b[:q], a0, a1, a2, a3)
		case haveAxpyAsm && simdAtLeast(SIMDSSE):
			q = n &^ 7
			axpyRow4Asm(c0[:q], c1[:q], c2[:q], c3[:q], b[:q], a0, a1, a2, a3)
		}
	}
	for j := q; j < n; j++ {
		bv := b[j]
		c0[j] += a0 * bv
		c1[j] += a1 * bv
		c2[j] += a2 * bv
		c3[j] += a3 * bv
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

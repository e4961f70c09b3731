//go:build amd64

package tensor

// The SSE row-update kernel (axpy_amd64.s) — the only SSE form left; the GEMMs
// have none of their own. SSE is part of the amd64 baseline, so it is always
// safe to call; whether it (or the AVX2 form in axpy_avx2_amd64.s, which does
// need runtime detection — see simd_amd64.go) actually runs is decided by the
// dispatch level in simd.go.
const haveAxpyAsm = true

// axpyRowAsm computes dst[j] += alpha·src[j]. len(dst) == len(src), a
// positive multiple of 16, guaranteed by the wrapper.
//
//go:noescape
func axpyRowAsm(dst, src []float32, alpha float32)

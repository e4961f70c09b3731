//go:build amd64

package tensor

// CPU feature detection and the vector kernel declarations for amd64. The
// probe is hand-rolled CPUID/XGETBV assembly (simd_amd64.s) rather than a
// dependency: AVX2 is usable only when the CPU advertises it (leaf 7 EBX bit
// 5), the AVX foundation is present (leaf 1 ECX bit 28), and the OS has
// enabled XMM+YMM state saving (OSXSAVE + XCR0 bits 1–2) — the standard
// three-step check. AVX-512 needs two more facts on top: the foundation
// subset (leaf 7 EBX bit 16 — the 512-bit tile uses AVX512F instructions
// only) and OS support for the opmask and both halves of the ZMM state (XCR0
// bits 5–7).

// haveAVX2Asm gates compilation of AVX2 call sites; whether the calls are
// *taken* is the runtime level's job (the active level can only reach
// SIMDAVX2 when detection succeeded).
const haveAVX2Asm = true

// cpuidAsm executes CPUID with the given leaf/subleaf.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbvAsm() (eax, edx uint32)

// detectSIMD probes the CPU once at package init. A CPU without AVX2 stays
// at generic, the pure-Go loops — bit-identical, only slower. fma reports FMA3
// (leaf 1 ECX bit 12) on a CPU that reached the AVX2 rung — with the AVX and
// OS-state checks above it, the condition under which package math runs the
// FMA path of its Exp, which is the path expRowFMAAsm reproduces.
func detectSIMD() (level SIMDLevel, fma bool) {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return SIMDGeneric, false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return SIMDGeneric, false
	}
	xcr0, _ := xgetbvAsm()
	const ymmState = 0x6 // XMM (bit 1) + YMM (bit 2) enabled by the OS
	if xcr0&ymmState != ymmState {
		return SIMDGeneric, false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	if ebx7&avx2Bit == 0 {
		return SIMDGeneric, false
	}
	const fmaBit = 1 << 12
	fma = ecx1&fmaBit != 0
	const avx512fBit = 1 << 16
	const zmmState = 0xe0 // opmask (bit 5) + ZMM_Hi256 (bit 6) + Hi16_ZMM (bit 7)
	if ebx7&avx512fBit == 0 || xcr0&zmmState != zmmState {
		return SIMDAVX2, fma
	}
	return SIMDAVX512, fma
}

// AVX2 kernels (axpy_avx2_amd64.s). All slice lengths are positive
// multiples of 8, guaranteed by the wrappers; multiply and add stay unfused
// for bit-identity with the scalar paths.

// axpyRowAVX2Asm computes dst[j] += alpha·src[j].
//
//go:noescape
func axpyRowAVX2Asm(dst, src []float32, alpha float32)

// scaleRowAVX2Asm computes dst[j] = s·src[j].
//
//go:noescape
func scaleRowAVX2Asm(dst, src []float32, s float32)

// reluBackwardAVX2Asm computes dz[j] *= 1 where act[j] > 0, else 0 — the
// ReLUBackward inner loop.
//
//go:noescape
func reluBackwardAVX2Asm(dz, act []float32)

// addBiasReLUAVX2Asm computes row[j] = relu(row[j]+bias[j]) — the fused
// AddBiasReLU inner loop.
//
//go:noescape
func addBiasReLUAVX2Asm(row, bias []float32)

// reluAVX2Asm computes data[j] = relu(data[j]) — the ReLUInto inner loop.
//
//go:noescape
func reluAVX2Asm(data []float32)

// rowMaxAVX2Asm returns the maximum element of src (len ≥ 8, multiple of 8).
//
//go:noescape
func rowMaxAVX2Asm(src []float32) float32

// subScalarAVX2Asm computes dst[j] = src[j] − s.
//
//go:noescape
func subScalarAVX2Asm(dst, src []float32, s float32)

// The row kernels: each is a Go loop around a per-element kernel with the loop
// moved inside the assembly. All three are 256-bit forms that run at the avx2
// and avx512 rungs alike, and take no bounds on trust: the Go wrappers prove
// every extent (and every index) before the call.

// expRowFMAAsm computes dst[j] = exp(float64(src[j])) four lanes at a time by
// the FMA path of math.Exp (exp_amd64.s). len(src) is a positive multiple of
// 4 and len(dst) ≥ len(src). It reports whether every lane was inside
// [expLo, expHi]; a lane outside (or NaN) holds garbage the caller replaces.
//
//go:noescape
func expRowFMAAsm(dst []float64, src []float32) (inRange bool)

// softmaxGradAVX2Asm computes grad[j] = float32(exps[j]/sum)·inv. len(exps)
// is a positive multiple of 4 and len(grad) ≥ len(exps).
//
//go:noescape
func softmaxGradAVX2Asm(grad []float32, exps []float64, sum float64, inv float32)

// aggregateRowAVX2Asm computes out[j] += Σ_e w[e]·h[idx[e]·cols + j] over
// j < cols in edge order (aggregate_amd64.s). len(idx) ≥ 1, len(w) ≥
// len(idx), len(out) ≥ cols ≥ 1 and every idx[e]·cols + cols ≤ len(h).
//
//go:noescape
func aggregateRowAVX2Asm(out, h []float32, cols int, idx []int32, w []float32)

// gatherRowsAVX2Asm copies row idx[i] of src (cols floats per row, cols ≥ 8)
// to dst[i·dstStride:][:cols] for every i (gather_amd64.s). len(idx) ≥ 1,
// every idx[i]·cols + cols ≤ len(src) and (len(idx)−1)·dstStride + cols ≤
// len(dst).
//
//go:noescape
func gatherRowsAVX2Asm(dst []float32, dstStride int, src []float32, cols int, idx []int32)

// The GEMM micro-kernel (gemm_amd64.s): each form adds
// Σ_t a[r·ars + t·aks] · b[t·n + j] over t in [0, kc) into c[r·n + j] — or,
// with zero ≠ 0, stores that sum started from +0 without reading c, which is
// how a product's first k-chunk spares C a clearing pass — for the rows ≤ 4
// rows and its columns of the tile that starts at c[0]: 16, 8 or w ≤ 8 of
// them in YMM registers, 32, 16 or w ≤ 16 in ZMM registers, holding the tile
// in registers throughout. They take no lengths: the caller proves the
// extents.
//
//go:noescape
func gemmTile16AVX2Asm(c, a, b []float32, n, ars, aks, kc, rows, zero int)

//go:noescape
func gemmTile8AVX2Asm(c, a, b []float32, n, ars, aks, kc, rows, zero int)

//go:noescape
func gemmTileMaskAVX2Asm(c, a, b []float32, n, ars, aks, kc, rows, zero, w int)

//go:noescape
func gemmTile32AVX512Asm(c, a, b []float32, n, ars, aks, kc, rows, zero int)

//go:noescape
func gemmTile16AVX512Asm(c, a, b []float32, n, ars, aks, kc, rows, zero int)

//go:noescape
func gemmTileMaskAVX512Asm(c, a, b []float32, n, ars, aks, kc, rows, zero, w int)

// gemmStripAVX2 is gemmStrip in register tiles: the strip's n columns are
// covered by 16-wide tiles, then an 8-wide one, then a masked one for the
// last n mod 8 (47 = 16 + 16 + 8 + 7), so no tile reads or writes a column
// past n. The three index expressions are the last elements any tile of the
// strip touches: an extent that does not fit its slice panics here, in Go,
// before the assembly runs.
func gemmStripAVX2(c, a, b []float32, n, ars, aks, kc, rows, zero int) {
	_ = c[rows*n-1]
	_ = a[(rows-1)*ars+(kc-1)*aks]
	_ = b[kc*n-1]
	j := 0
	for ; j+16 <= n; j += 16 {
		gemmTile16AVX2Asm(c[j:], a, b[j:], n, ars, aks, kc, rows, zero)
	}
	if j+8 <= n {
		gemmTile8AVX2Asm(c[j:], a, b[j:], n, ars, aks, kc, rows, zero)
		j += 8
	}
	if j < n {
		gemmTileMaskAVX2Asm(c[j:], a, b[j:], n, ars, aks, kc, rows, zero, n-j)
	}
}

// gemmStripAVX512 is gemmStripAVX2 at twice the width: 32-wide tiles, then a
// 16-wide one, then one of the last n mod 16 columns under an opmask
// (47 = 32 + 15, 172 = 5·32 + 12), behind the same three extent proofs.
func gemmStripAVX512(c, a, b []float32, n, ars, aks, kc, rows, zero int) {
	_ = c[rows*n-1]
	_ = a[(rows-1)*ars+(kc-1)*aks]
	_ = b[kc*n-1]
	j := 0
	for ; j+32 <= n; j += 32 {
		gemmTile32AVX512Asm(c[j:], a, b[j:], n, ars, aks, kc, rows, zero)
	}
	if j+16 <= n {
		gemmTile16AVX512Asm(c[j:], a, b[j:], n, ars, aks, kc, rows, zero)
		j += 16
	}
	if j < n {
		gemmTileMaskAVX512Asm(c[j:], a, b[j:], n, ars, aks, kc, rows, zero, n-j)
	}
}

//go:build amd64

package tensor

// CPU feature detection and the vector kernel declarations for amd64. The
// probe is hand-rolled CPUID/XGETBV assembly (simd_amd64.s) rather than a
// dependency: AVX2 is usable only when the CPU advertises it (leaf 7 EBX bit
// 5), the AVX foundation is present (leaf 1 ECX bit 28), and the OS has
// enabled XMM+YMM state saving (OSXSAVE + XCR0 bits 1–2) — the standard
// three-step check. The avx2 rung also needs FMA3 (leaf 1 ECX bit 12): every
// kernel's c += a·b is a VFMADD, and the exp kernel runs the FMA path of
// math.Exp, which package math takes under exactly these conditions. AVX-512
// needs two more facts on top: the foundation subset (leaf 7 EBX bit 16 — the
// 512-bit tile uses AVX512F instructions only) and OS support for the opmask
// and both halves of the ZMM state (XCR0 bits 5–7). The doubleword/quadword subset (AVX512DQ, leaf 7 EBX bit 17) is
// probed beside it: the Box–Muller row kernel (normal_amd64.s) needs it for its
// 64-bit multiplies and int64↔float64 conversions, the RMAT attempt kernel
// (rmat_amd64.s) for its 64-bit multiplies.

// haveAVX2Asm gates compilation of AVX2 call sites; whether the calls are
// *taken* is the runtime level's job (the active level can only reach
// SIMDAVX2 when detection succeeded).
const haveAVX2Asm = true

// cpuidAsm executes CPUID with the given leaf/subleaf.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbvAsm() (eax, edx uint32)

// detectSIMD probes the CPU once at package init. A CPU without AVX2 or
// without FMA3 stays at generic, the pure-Go loops — bit-identical, only
// slower. dq reports AVX512DQ on a CPU that reached the AVX-512 rung.
func detectSIMD() (level SIMDLevel, dq bool) {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return SIMDGeneric, false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const fmaBit = 1 << 12
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
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
	const avx512fBit = 1 << 16
	const zmmState = 0xe0 // opmask (bit 5) + ZMM_Hi256 (bit 6) + Hi16_ZMM (bit 7)
	if ebx7&avx512fBit == 0 || xcr0&zmmState != zmmState {
		return SIMDAVX2, false
	}
	const avx512dqBit = 1 << 17
	return SIMDAVX512, ebx7&avx512dqBit != 0
}

// AVX2 kernels (axpy_avx2_amd64.s). All slice lengths are positive
// multiples of 8, guaranteed by the wrappers; the row update is one fused
// multiply-add per element, as fmaProduct is in the scalar paths.

// axpyRowAVX2Asm computes dst[j] += alpha·src[j].
//
//go:noescape
func axpyRowAVX2Asm(dst, src []float32, alpha float32)

// scaleRowAVX2Asm computes dst[j] = s·src[j].
//
//go:noescape
func scaleRowAVX2Asm(dst, src []float32, s float32)

// reluMaskAVX2Asm sets bit b of mask[w] where act[32w+b] > 0 and clears it
// elsewhere, and with zero ≠ 0 stores +0 over act — the ReLUMask pass.
// len(act) is a positive multiple of 32 and len(mask) ≥ len(act)/32.
//
//go:noescape
func reluMaskAVX2Asm(mask []int32, act []float32, zero int)

// reluBackwardMaskAVX2Asm computes dz[j] *= 1 where bit j of mask is set,
// else 0 — the ReLUBackward pass. len(dz) is a positive multiple of 32 and
// len(mask) ≥ len(dz)/32.
//
//go:noescape
func reluBackwardMaskAVX2Asm(dz []float32, mask []int32)

// addBiasReLUAVX2Asm computes row[j] = relu(row[j]+bias[j]) — the fused
// AddBiasReLU inner loop.
//
//go:noescape
func addBiasReLUAVX2Asm(row, bias []float32)

// rowMaxAVX2Asm returns the maximum element of src (len ≥ 8, multiple of 8).
//
//go:noescape
func rowMaxAVX2Asm(src []float32) float32

// subScalarAVX2Asm computes dst[j] = src[j] − s.
//
//go:noescape
func subScalarAVX2Asm(dst, src []float32, s float32)

// The row kernels: each is a Go loop around a per-element kernel with the loop
// moved inside the assembly. The exp and gather kernels are 256-bit forms that
// run at the avx2 and avx512 rungs alike; the aggregation kernel has a 512-bit
// form at avx512. None takes bounds on trust: the Go wrappers prove every
// extent (and every index) before the call.

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

// aggregateRowAVX512Asm is aggregateRowAVX2Asm on ZMM registers, up to 128
// columns per sweep of the edge list (aggregate_amd64.s), under the same
// preconditions. To prefetch eight edges ahead it also reads idx up to
// cap(idx); those entries need not be valid rows. It needs AVX512F.
//
//go:noescape
func aggregateRowAVX512Asm(out, h []float32, cols int, idx []int32, w []float32)

// gatherRowsAVX2Asm copies row idx[i] of src (cols floats per row, cols ≥ 8)
// to dst[i·cols:][:cols] for every i (gather_amd64.s). len(idx) ≥ 1,
// every idx[i]·cols + cols ≤ len(src) and len(idx)·cols ≤ len(dst).
//
//go:noescape
func gatherRowsAVX2Asm(dst, src []float32, cols int, idx []int32)

// normalRowAVX512Asm fills dst[j] = mean[j] + float32(n_j·std), n_j the
// Box–Muller variate whose u1 and u2 come from counter states
// state + (2j+1)·step and state + (2j+2)·step (normal_amd64.s). It returns
// false, having written nothing, if any of those u1 is 0. len(dst) ≥ 1 and
// len(mean) ≥ len(dst). It needs AVX512F and AVX512DQ.
//
//go:noescape
func normalRowAVX512Asm(dst, mean []float32, std float64, state, step uint64) (ok bool)

// rmatRowsAVX512Asm sets src[i] and dst[i] to the row and column bits of
// RMAT attempt i, whose level l reads counter state
// state + (i·levels + l + 1)·γ (rmat_amd64.s). len(src) ≥ 1 and len(dst) ≥
// len(src). It needs AVX512F and AVX512DQ.
//
//go:noescape
func rmatRowsAVX512Asm(src, dst []int32, levels int, t0, t1, t2, state uint64)

// The GEMM micro-kernel (gemm_amd64.s): each form adds
// Σ_t a[r·ars + t·aks] · b[t·ldb + j] over t in [0, kc) into c[r·n + j] — or,
// with zero ≠ 0, stores that sum started from +0 without reading c, which is
// how a product's first k-chunk spares C a clearing pass — for the rows ≤ 6
// rows and its columns of the tile that starts at c[0]: 16, 8 or w ≤ 8 of
// them in YMM registers, 32, 16 or w ≤ 16 in ZMM registers, holding the tile
// in registers throughout. They take no lengths: the caller proves the
// extents.
//
//go:noescape
func gemmTile16AVX2Asm(c, a, b []float32, n, ldb, ars, aks, kc, rows, zero int)

//go:noescape
func gemmTile8AVX2Asm(c, a, b []float32, n, ldb, ars, aks, kc, rows, zero int)

//go:noescape
func gemmTileMaskAVX2Asm(c, a, b []float32, n, ldb, ars, aks, kc, rows, zero, w int)

//go:noescape
func gemmTile32AVX512Asm(c, a, b []float32, n, ldb, ars, aks, kc, rows, zero int)

//go:noescape
func gemmTile16AVX512Asm(c, a, b []float32, n, ldb, ars, aks, kc, rows, zero int)

//go:noescape
func gemmTileMaskAVX512Asm(c, a, b []float32, n, ldb, ars, aks, kc, rows, zero, w int)

// gemmStripsAVX2 is gemmStrips in register tiles: the rows are swept
// gemmRows at a time, and each strip's w columns are covered by 16-wide
// tiles, then an 8-wide one, then a masked one for the last w mod 8
// (47 = 16 + 16 + 8 + 7), so no tile reads or writes a column past w. The
// three index expressions are the last elements any tile touches: an extent
// that does not fit its slice panics here, in Go, before the assembly runs.
func gemmStripsAVX2(c, a, b []float32, n, ldb, w, ars, aks, kc, rows, zero int) {
	_ = c[(rows-1)*n+w-1]
	_ = a[(rows-1)*ars+(kc-1)*aks]
	_ = b[(kc-1)*ldb+w-1]
	for i := 0; i < rows; i += gemmRows {
		r, ci, ai := min(gemmRows, rows-i), c[i*n:], a[i*ars:]
		j := 0
		for ; j+16 <= w; j += 16 {
			gemmTile16AVX2Asm(ci[j:], ai, b[j:], n, ldb, ars, aks, kc, r, zero)
		}
		if j+8 <= w {
			gemmTile8AVX2Asm(ci[j:], ai, b[j:], n, ldb, ars, aks, kc, r, zero)
			j += 8
		}
		if j < w {
			gemmTileMaskAVX2Asm(ci[j:], ai, b[j:], n, ldb, ars, aks, kc, r, zero, w-j)
		}
	}
}

// gemmStripsAVX512 is gemmStripsAVX2 at twice the width: 32-wide tiles, then
// a 16-wide one, then one of the last w mod 16 columns under an opmask
// (47 = 32 + 15, 172 = 5·32 + 12), behind the same three extent proofs.
func gemmStripsAVX512(c, a, b []float32, n, ldb, w, ars, aks, kc, rows, zero int) {
	_ = c[(rows-1)*n+w-1]
	_ = a[(rows-1)*ars+(kc-1)*aks]
	_ = b[(kc-1)*ldb+w-1]
	for i := 0; i < rows; i += gemmRows {
		r, ci, ai := min(gemmRows, rows-i), c[i*n:], a[i*ars:]
		j := 0
		for ; j+32 <= w; j += 32 {
			gemmTile32AVX512Asm(ci[j:], ai, b[j:], n, ldb, ars, aks, kc, r, zero)
		}
		if j+16 <= w {
			gemmTile16AVX512Asm(ci[j:], ai, b[j:], n, ldb, ars, aks, kc, r, zero)
			j += 16
		}
		if j < w {
			gemmTileMaskAVX512Asm(ci[j:], ai, b[j:], n, ldb, ars, aks, kc, r, zero, w-j)
		}
	}
}

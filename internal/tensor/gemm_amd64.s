// The GEMM micro-kernel: a 4-row C tile held in vector accumulators for a
// whole k-chunk. Each form loads its tile from C once — or, for the first
// chunk of a product (zero ≠ 0), starts it from zeroed registers, so C is
// write-only there and nobody clears it beforehand: "+0, then ascending k"
// either way — runs all kc steps inside the loop below — per step one row of
// the B panel is loaded and each C row's A element is broadcast and
// multiplied in — and stores the tile once, so C traffic is paid per chunk
// instead of per k step (the output-stationary order of the paper's update
// unit, §IV-C).
//
// A is addressed by two strides: row r of the tile reads a[r·ars + t·aks] at
// step t. MatMul passes (k, 1), TMatMul (1, m); the kernel cannot tell them
// apart. c and b start at the tile's first column and share the leading
// dimension n.
//
// One body, two register files, three widths each. TILE names its vectors
// V0..V11, their byte width VB, the zeroing idiom ZERO and the masked
// load/store LDM/STM; the assembler expands a macro body where it is used, so
// binding those names to YMM (AVX2) and then to ZMM (AVX-512F) registers
// instantiates the same text twice. Per register file the widths are two
// vectors per row (eight accumulators: 16 columns on YMM, 32 on ZMM), one
// vector per row, and w ≤ one vector of columns under a lane mask (masked-out
// lanes are neither read nor written, so nothing past column n is touched).
// A tile of fewer than four rows runs the same body with the missing rows' A
// pointers aliased to row 0 — the loads stay in bounds, the products land in
// accumulators that are never stored — and their C rows neither loaded nor
// stored.
//
// Multiply and add stay separate instructions at both widths, as
// axpy_avx2_amd64.s explains: every C element accumulates a·b products over
// ascending k with two roundings per step, exactly like the reference loops.

#include "textflag.h"

// Full-width vector load/store, and the switch that keeps or drops a row's
// second vector.
#define LDU(m, v) VMOVUPS m, v
#define STU(v, m) VMOVUPS v, m
#define WIDE(x) x
#define NARROW(x)

// acc += V10·bv, unfused.
#define MAC(bv, acc) \
	VMULPS bv, V10, V11; \
	VADDPS V11, acc, acc

// One tile row's share of a k step: broadcast its A element, accumulate.
#define ROWSTEP(ap, lo, hi, HI) \
	VBROADCASTSS (ap), V10; \
	MAC(V8, lo); \
	HI(MAC(V9, hi))

// Registers: DI R8 R9 R10 = C rows 0..3, AX BX CX DX = A rows 0..3, SI = B,
// R11 = aks bytes, R12 = n bytes, R13 = rows, then the k counter.
// V0..V7 = the tile (row r in V2r, V2r+1), V8 V9 = B, V10 V11 = scratch.
#define TILE(LD, ST, HI) \
	MOVQ c_base+0(FP), DI; \
	MOVQ a_base+24(FP), AX; \
	MOVQ b_base+48(FP), SI; \
	MOVQ n+72(FP), R12; \
	MOVQ ars+80(FP), R11; \
	MOVQ rows+104(FP), R13; \
	SHLQ $2, R12; \
	SHLQ $2, R11; \
	LEAQ (DI)(R12*1), R8; \
	LEAQ (DI)(R12*2), R9; \
	LEAQ (R9)(R12*1), R10; \
	LEAQ (AX)(R11*1), BX; \
	LEAQ (AX)(R11*2), CX; \
	LEAQ (CX)(R11*1), DX; \
	CMPQ R13, $4; \
	CMOVQLT AX, DX; \
	CMPQ R13, $3; \
	CMOVQLT AX, CX; \
	CMPQ R13, $2; \
	CMOVQLT AX, BX; \
	ZERO(V0); \
	ZERO(V1); \
	ZERO(V2); \
	ZERO(V3); \
	ZERO(V4); \
	ZERO(V5); \
	ZERO(V6); \
	ZERO(V7); \
	CMPQ zero+112(FP), $0; \
	JNE  loaded; \
	LD(0(DI), V0); \
	HI(LD(VB(DI), V1)); \
	CMPQ R13, $2; \
	JLT  loaded; \
	LD(0(R8), V2); \
	HI(LD(VB(R8), V3)); \
	CMPQ R13, $3; \
	JLT  loaded; \
	LD(0(R9), V4); \
	HI(LD(VB(R9), V5)); \
	CMPQ R13, $4; \
	JLT  loaded; \
	LD(0(R10), V6); \
	HI(LD(VB(R10), V7)); \
loaded: \
	MOVQ aks+88(FP), R11; \
	MOVQ kc+96(FP), R13; \
	SHLQ $2, R11; \
	TESTQ R13, R13; \
	JLE  done; \
kloop: \
	LD(0(SI), V8); \
	HI(LD(VB(SI), V9)); \
	ROWSTEP(AX, V0, V1, HI); \
	ROWSTEP(BX, V2, V3, HI); \
	ROWSTEP(CX, V4, V5, HI); \
	ROWSTEP(DX, V6, V7, HI); \
	ADDQ R11, AX; \
	ADDQ R11, BX; \
	ADDQ R11, CX; \
	ADDQ R11, DX; \
	ADDQ R12, SI; \
	DECQ R13; \
	JNZ  kloop; \
	MOVQ rows+104(FP), R13; \
	ST(V0, 0(DI)); \
	HI(ST(V1, VB(DI))); \
	CMPQ R13, $2; \
	JLT  done; \
	ST(V2, 0(R8)); \
	HI(ST(V3, VB(R8))); \
	CMPQ R13, $3; \
	JLT  done; \
	ST(V4, 0(R9)); \
	HI(ST(V5, VB(R9))); \
	CMPQ R13, $4; \
	JLT  done; \
	ST(V6, 0(R10)); \
	HI(ST(V7, VB(R10))); \
done: \
	VZEROUPPER; \
	RET

// ---- 256-bit instantiation (AVX2): 4×16, 4×8, 4×(w ≤ 8) ----

#define V0 Y0
#define V1 Y1
#define V2 Y2
#define V3 Y3
#define V4 Y4
#define V5 Y5
#define V6 Y6
#define V7 Y7
#define V8 Y8
#define V9 Y9
#define V10 Y10
#define V11 Y11
#define VB 32
#define ZERO(v) VXORPS v, v, v
// Lane mask in Y15.
#define LDM(m, v) VMASKMOVPS m, Y15, v
#define STM(v, m) VMASKMOVPS v, Y15, m

// Lane masks of the ≤ 8-wide form: the eight lanes that start at lane 8−w are
// w all-ones followed by 8−w zeros.
DATA tileMask<>+0(SB)/8, $0xffffffffffffffff
DATA tileMask<>+8(SB)/8, $0xffffffffffffffff
DATA tileMask<>+16(SB)/8, $0xffffffffffffffff
DATA tileMask<>+24(SB)/8, $0xffffffffffffffff
DATA tileMask<>+32(SB)/8, $0
DATA tileMask<>+40(SB)/8, $0
DATA tileMask<>+48(SB)/8, $0
DATA tileMask<>+56(SB)/8, $0
GLOBL tileMask<>(SB), RODATA|NOPTR, $64

// func gemmTile16AVX2Asm(c, a, b []float32, n, ars, aks, kc, rows, zero int)
TEXT ·gemmTile16AVX2Asm(SB), NOSPLIT, $0-120
	TILE(LDU, STU, WIDE)

// func gemmTile8AVX2Asm(c, a, b []float32, n, ars, aks, kc, rows, zero int)
TEXT ·gemmTile8AVX2Asm(SB), NOSPLIT, $0-120
	TILE(LDU, STU, NARROW)

// func gemmTileMaskAVX2Asm(c, a, b []float32, n, ars, aks, kc, rows, zero, w int)
// 1 ≤ w ≤ 8 columns.
TEXT ·gemmTileMaskAVX2Asm(SB), NOSPLIT, $0-128
	MOVQ    w+120(FP), R13
	LEAQ    tileMask<>+32(SB), R11
	SHLQ    $2, R13
	SUBQ    R13, R11
	VMOVDQU (R11), Y15
	TILE(LDM, STM, NARROW)

#undef V0
#undef V1
#undef V2
#undef V3
#undef V4
#undef V5
#undef V6
#undef V7
#undef V8
#undef V9
#undef V10
#undef V11
#undef VB
#undef ZERO
#undef LDM
#undef STM

// ---- 512-bit instantiation (AVX-512F only): 4×32, 4×16, 4×(w ≤ 16) ----
//
// Z0–Z15 only, so the closing VZEROUPPER covers every register touched.
// VPXORD because the ZMM form of VXORPS is AVX512DQ. The masked forms run
// under opmask K1: the load zeroes its dead lanes without touching their
// memory (fault-suppressed), the store skips them.

#define V0 Z0
#define V1 Z1
#define V2 Z2
#define V3 Z3
#define V4 Z4
#define V5 Z5
#define V6 Z6
#define V7 Z7
#define V8 Z8
#define V9 Z9
#define V10 Z10
#define V11 Z11
#define VB 64
#define ZERO(v) VPXORD v, v, v
#define LDM(m, v) VMOVUPS.Z m, K1, v
#define STM(v, m) VMOVUPS v, K1, m

// func gemmTile32AVX512Asm(c, a, b []float32, n, ars, aks, kc, rows, zero int)
TEXT ·gemmTile32AVX512Asm(SB), NOSPLIT, $0-120
	TILE(LDU, STU, WIDE)

// func gemmTile16AVX512Asm(c, a, b []float32, n, ars, aks, kc, rows, zero int)
TEXT ·gemmTile16AVX512Asm(SB), NOSPLIT, $0-120
	TILE(LDU, STU, NARROW)

// func gemmTileMaskAVX512Asm(c, a, b []float32, n, ars, aks, kc, rows, zero, w int)
// 1 ≤ w ≤ 16 columns: K1 = the low w lanes.
TEXT ·gemmTileMaskAVX512Asm(SB), NOSPLIT, $0-128
	MOVQ  w+120(FP), CX
	MOVL  $1, R13
	SHLL  CX, R13
	DECL  R13
	KMOVW R13, K1
	TILE(LDM, STM, NARROW)

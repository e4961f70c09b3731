// The GEMM micro-kernel: a 4-row C tile held in YMM accumulators for a whole
// k-chunk. Each form loads its tile from C once, runs all kc steps inside the
// loop below — per step one row of the B panel is loaded and each C row's A
// element is broadcast and multiplied in — and stores the tile once, so C
// traffic is paid per chunk instead of per k step (the output-stationary
// order of the paper's update unit, §IV-C).
//
// A is addressed by two strides: row r of the tile reads a[r·ars + t·aks] at
// step t. MatMul passes (k, 1), TMatMul (1, m); the kernel cannot tell them
// apart. c and b start at the tile's first column and share the leading
// dimension n.
//
// One body, three widths: 16 columns (two vectors per row, eight
// accumulators), 8 columns, and w ≤ 8 columns under a VMASKMOVPS lane mask
// (masked-out lanes are neither read nor written, so nothing past column n is
// touched). A tile of fewer than four rows runs the same body with the
// missing rows' A pointers aliased to row 0 — the loads stay in bounds, the
// products land in accumulators that are never stored — and their C rows
// neither loaded nor stored.
//
// Multiply and add stay separate instructions, as axpy_avx2_amd64.s explains:
// every C element accumulates a·b products over ascending k with two
// roundings per step, exactly like the reference loops.

#include "textflag.h"

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

// Vector load/store of the full-width forms and of the masked one (mask in
// Y15), and the switch that keeps or drops a row's second vector.
#define LDU(m, y) VMOVUPS m, y
#define STU(y, m) VMOVUPS y, m
#define LDM(m, y) VMASKMOVPS m, Y15, y
#define STM(y, m) VMASKMOVPS y, Y15, m
#define WIDE(x) x
#define NARROW(x)

// acc += Y10·bv, unfused.
#define MAC(bv, acc) \
	VMULPS bv, Y10, Y11; \
	VADDPS Y11, acc, acc

// One tile row's share of a k step: broadcast its A element, accumulate.
#define ROWSTEP(ap, lo, hi, HI) \
	VBROADCASTSS (ap), Y10; \
	MAC(Y8, lo); \
	HI(MAC(Y9, hi))

// Registers: DI R8 R9 R10 = C rows 0..3, AX BX CX DX = A rows 0..3, SI = B,
// R11 = aks bytes, R12 = n bytes, R13 = rows, then the k counter.
// Y0..Y7 = the tile (row r in Y2r, Y2r+1), Y8 Y9 = B, Y10 Y11 = scratch.
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
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7; \
	LD(0(DI), Y0); \
	HI(LD(32(DI), Y1)); \
	CMPQ R13, $2; \
	JLT  loaded; \
	LD(0(R8), Y2); \
	HI(LD(32(R8), Y3)); \
	CMPQ R13, $3; \
	JLT  loaded; \
	LD(0(R9), Y4); \
	HI(LD(32(R9), Y5)); \
	CMPQ R13, $4; \
	JLT  loaded; \
	LD(0(R10), Y6); \
	HI(LD(32(R10), Y7)); \
loaded: \
	MOVQ aks+88(FP), R11; \
	MOVQ kc+96(FP), R13; \
	SHLQ $2, R11; \
	TESTQ R13, R13; \
	JLE  done; \
kloop: \
	LD(0(SI), Y8); \
	HI(LD(32(SI), Y9)); \
	ROWSTEP(AX, Y0, Y1, HI); \
	ROWSTEP(BX, Y2, Y3, HI); \
	ROWSTEP(CX, Y4, Y5, HI); \
	ROWSTEP(DX, Y6, Y7, HI); \
	ADDQ R11, AX; \
	ADDQ R11, BX; \
	ADDQ R11, CX; \
	ADDQ R11, DX; \
	ADDQ R12, SI; \
	DECQ R13; \
	JNZ  kloop; \
	MOVQ rows+104(FP), R13; \
	ST(Y0, 0(DI)); \
	HI(ST(Y1, 32(DI))); \
	CMPQ R13, $2; \
	JLT  done; \
	ST(Y2, 0(R8)); \
	HI(ST(Y3, 32(R8))); \
	CMPQ R13, $3; \
	JLT  done; \
	ST(Y4, 0(R9)); \
	HI(ST(Y5, 32(R9))); \
	CMPQ R13, $4; \
	JLT  done; \
	ST(Y6, 0(R10)); \
	HI(ST(Y7, 32(R10))); \
done: \
	VZEROUPPER; \
	RET

// func gemmTile16AVX2Asm(c, a, b []float32, n, ars, aks, kc, rows int)
TEXT ·gemmTile16AVX2Asm(SB), NOSPLIT, $0-112
	TILE(LDU, STU, WIDE)

// func gemmTile8AVX2Asm(c, a, b []float32, n, ars, aks, kc, rows int)
TEXT ·gemmTile8AVX2Asm(SB), NOSPLIT, $0-112
	TILE(LDU, STU, NARROW)

// func gemmTileMaskAVX2Asm(c, a, b []float32, n, ars, aks, kc, rows, w int)
// 1 ≤ w ≤ 8 columns.
TEXT ·gemmTileMaskAVX2Asm(SB), NOSPLIT, $0-120
	MOVQ    w+112(FP), R13
	LEAQ    tileMask<>+32(SB), R11
	SHLQ    $2, R13
	SUBQ    R13, R11
	VMOVDQU (R11), Y15
	TILE(LDM, STM, NARROW)

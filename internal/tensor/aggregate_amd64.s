// The destination-stationary aggregation row kernel: one output row held in
// vector accumulators while its whole edge list streams past — the host twin
// of the accelerator's gather-PE accumulator (§IV-C) and of the GEMM tile's
// "keep C in registers" (gemm_amd64.s). A Go loop of AxpyRow calls loads and
// stores the output row once per edge and pays a dispatch, a call and a
// scalar tail each time; here the row is loaded once, every edge costs one
// index load, one weight broadcast and a multiply + add per vector, and the
// row is stored once.
//
// Exactness. out[j] receives w[e]·h[idx[e]·cols + j] for e = 0, 1, … in edge
// order, each step a VMULPS and a separate VADDPS (never FMA) with the operands
// in axpyRowAVX2Asm's order — product = row × weight, sum = product + out —
// so every element sees the arithmetic, the two roundings per edge and the
// NaN propagation of the AxpyRow loop it replaces. Lanes are independent
// output columns, so the column passes below (64, 32, 8 wide, then cols mod 8
// under a lane mask) reorder nothing: each pass walks the full edge list for
// its own columns. Masked-out lanes are neither loaded from nor stored to
// memory, so nothing past column cols is touched in out or in any h row.
//
// The kernel takes no bounds on trust: AggregateRow (axpy.go) checks every
// index against the row count, and the lengths of out and w, before the call.

#include "textflag.h"

// Lane masks of the tail pass: the eight lanes that start at lane 8−t are t
// all-ones followed by 8−t zeros.
DATA aggMask<>+0(SB)/8, $0xffffffffffffffff
DATA aggMask<>+8(SB)/8, $0xffffffffffffffff
DATA aggMask<>+16(SB)/8, $0xffffffffffffffff
DATA aggMask<>+24(SB)/8, $0xffffffffffffffff
DATA aggMask<>+32(SB)/8, $0
DATA aggMask<>+40(SB)/8, $0
DATA aggMask<>+48(SB)/8, $0
DATA aggMask<>+56(SB)/8, $0
GLOBL aggMask<>(SB), RODATA|NOPTR, $64

// Registers: DI = out at the pass's first column, R12 = h at the same column,
// R8 = row stride in bytes, R9 = idx, R10 = w, R11 = edge count, DX = columns
// left, CX = edge counter, AX = the edge's source row, Y8 = its weight.
#define EDGE \
	MOVL         (R9)(CX*4), AX; \
	IMULQ        R8, AX; \
	ADDQ         R12, AX; \
	VBROADCASTSS (R10)(CX*4), Y8

// acc += row[off:]·Y8, unfused, operands as in axpyRowAVX2Asm.
#define MAC(off, acc, tmp) \
	VMOVUPS off(AX), tmp; \
	VMULPS  Y8, tmp, tmp; \
	VADDPS  acc, tmp, acc

#define NEXT(label) \
	INCQ CX; \
	CMPQ CX, R11; \
	JLT  label

// func aggregateRowAVX2Asm(out, h []float32, cols int, idx []int32, w []float32)
TEXT ·aggregateRowAVX2Asm(SB), NOSPLIT, $0-104
	MOVQ out_base+0(FP), DI
	MOVQ h_base+24(FP), R12
	MOVQ cols+48(FP), DX
	MOVQ idx_base+56(FP), R9
	MOVQ idx_len+64(FP), R11
	MOVQ w_base+80(FP), R10
	MOVQ DX, R8
	SHLQ $2, R8

pass64:
	CMPQ    DX, $64
	JLT     pass32
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	XORQ    CX, CX

edge64:
	EDGE
	MAC(0, Y0, Y9)
	MAC(32, Y1, Y10)
	MAC(64, Y2, Y11)
	MAC(96, Y3, Y12)
	MAC(128, Y4, Y13)
	MAC(160, Y5, Y14)
	MAC(192, Y6, Y15)
	MAC(224, Y7, Y9)
	NEXT(edge64)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, R12
	SUBQ    $64, DX
	JMP     pass64

pass32:
	CMPQ    DX, $32
	JLT     pass8
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	XORQ    CX, CX

edge32:
	EDGE
	MAC(0, Y0, Y9)
	MAC(32, Y1, Y10)
	MAC(64, Y2, Y11)
	MAC(96, Y3, Y12)
	NEXT(edge32)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R12
	SUBQ    $32, DX

pass8:
	CMPQ    DX, $8
	JLT     tail
	VMOVUPS 0(DI), Y0
	XORQ    CX, CX

edge8:
	EDGE
	MAC(0, Y0, Y9)
	NEXT(edge8)
	VMOVUPS Y0, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, R12
	SUBQ    $8, DX
	JMP     pass8

tail:
	TESTQ      DX, DX
	JZ         done
	LEAQ       aggMask<>+32(SB), AX
	SHLQ       $2, DX
	SUBQ       DX, AX
	VMOVDQU    (AX), Y15
	VMASKMOVPS (DI), Y15, Y0
	XORQ       CX, CX

edgeTail:
	EDGE
	VMASKMOVPS (AX), Y15, Y9
	VMULPS     Y8, Y9, Y9
	VADDPS     Y0, Y9, Y0
	NEXT(edgeTail)
	VMASKMOVPS Y0, Y15, (DI)

done:
	VZEROUPPER
	RET

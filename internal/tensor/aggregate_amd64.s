// The destination-stationary aggregation row kernel: one output row held in
// vector accumulators while its whole edge list streams past — the host twin
// of the accelerator's gather-PE accumulator (§IV-C) and of the GEMM tile's
// "keep C in registers" (gemm_amd64.s). A Go loop of AxpyRow calls loads and
// stores the output row once per edge and pays a dispatch, a call and a
// scalar tail each time; here the row is loaded once, every edge costs one
// index load, one weight broadcast and a fused multiply-add per vector, and
// the row is stored once.
//
// Two forms, one per register file. Each column pass walks the full edge
// list. The 256-bit form holds at most 64 columns in its 16 YMM registers
// (passes of 64, 32, 8, then cols mod 8 under a lane mask); the 512-bit form
// holds 128 in eight ZMM accumulators, the pass's last vector under an
// opmask, so any row up to 128 columns is one sweep (f = 100 and 128: layer
// 0 of every dataset) and 256 is two. The 512-bit form also prefetches
// ahead (below), which is where its gain on a feature table read in place
// comes from.
//
// Exactness. out[j] receives w[e]·h[idx[e]·cols + j] for e = 0, 1, … in edge
// order, each step one VFMADD231PS (out = row × weight + out, rounded once),
// so every element sees the arithmetic and the one rounding per edge of the
// AxpyRow loop it replaces (fmaProduct in Go, a VFMADD213PS in
// axpyRowAVX2Asm); NaNs agree by class. Lanes are independent output
// columns, so the column passes reorder nothing: each pass walks the full
// edge list for its own columns. Masked-out lanes are neither loaded
// from nor stored to memory, so nothing past column cols is touched in out
// or in any h row.
//
// The kernels take no bounds on trust: AggregateRow (axpy.go) checks every
// index against the row count, and the lengths of out and w, before the call.

#include "textflag.h"

// ---- 256-bit form (AVX2) ----

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

// acc = row[off:]·Y8 + acc, rounded once, the row read straight from memory.
#define MAC(off, acc) VFMADD231PS off(AX), Y8, acc

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
	MAC(0, Y0)
	MAC(32, Y1)
	MAC(64, Y2)
	MAC(96, Y3)
	MAC(128, Y4)
	MAC(160, Y5)
	MAC(192, Y6)
	MAC(224, Y7)
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
	MAC(0, Y0)
	MAC(32, Y1)
	MAC(64, Y2)
	MAC(96, Y3)
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
	MAC(0, Y0)
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
	VMASKMOVPS  (AX), Y15, Y9
	VFMADD231PS Y9, Y8, Y0
	NEXT(edgeTail)
	VMASKMOVPS Y0, Y15, (DI)

done:
	VZEROUPPER
	RET

// ---- 512-bit form (AVX-512F only) ----
//
// Z0–Z15 only, so the closing VZEROUPPER covers every register touched, as
// in the GEMM tile. A pass of c = min(cols left, 128) columns holds
// v = ⌈c/16⌉ accumulators Z0…Z(v−1); the first v−1 are full vectors and the
// last runs under opmask K1 = its low c − 16(v−1) lanes (all sixteen on a
// full pass): the masked load zeroes its dead lanes without touching their
// memory, the masked store skips them. Registers as above, with Z8 the
// edge's weight and Z9–Z15 the products.
//
// Look-ahead. While edge e streams past, the pass prefetches its own columns
// of the row edge e+8 reads — every 64 bytes from the first, and the last
// byte (PREFETCHT0, as the gather kernel does). The look-ahead index is read
// up to cap(idx), not len(idx): gnn cuts each destination's edges out of one
// list for the whole block, so the first rows of the next destination are
// already on their way when this one ends (on a sampled gpu-lean layer 0, one
// worker of a 2-core AVX-512 Xeon, the look-ahead within the list took the
// kernel from 64 to 57 ns per edge, the look-ahead past its end to 49). Past
// cap(idx) it re-reads the last entry. An entry past len(idx) is only ever
// an address to prefetch, which cannot fault, so it need not be a valid row:
// AggregateRow checks only the indices it loads from. BX = the look-ahead
// row, R13 = cap(idx) − 1.

#define ZAHEAD \
	LEAQ    8(CX), BX; \
	CMPQ    BX, R13; \
	CMOVQGT R13, BX; \
	MOVL    (R9)(BX*4), BX; \
	IMULQ   R8, BX; \
	ADDQ    R12, BX

#define ZPF(off, acc, tmp) PREFETCHT0 off(BX)

#define ZEDGE \
	MOVL         (R9)(CX*4), AX; \
	IMULQ        R8, AX; \
	ADDQ         R12, AX; \
	VBROADCASTSS (R10)(CX*4), Z8

// One accumulator's share of a pass — its load, its step per edge (one
// VFMADD231PS, as in MAC) and its store — full width, then under K1, where
// the row is loaded first so its dead lanes are neither read nor faulted on.
#define ZLD(off, acc, tmp) VMOVUPS off(DI), acc
#define ZMAC(off, acc, tmp) VFMADD231PS off(AX), Z8, acc
#define ZST(off, acc, tmp) VMOVUPS acc, off(DI)
#define ZLDM(off, acc, tmp) VMOVUPS.Z off(DI), K1, acc
#define ZMACM(off, acc, tmp) \
	VMOVUPS.Z   off(AX), K1, tmp; \
	VFMADD231PS tmp, Z8, acc
#define ZSTM(off, acc, tmp) VMOVUPS acc, K1, off(DI)

// The full vectors in front of the masked one: FULLn(OP) applies OP to
// accumulators 0…n−1.
#define FULL0(OP)
#define FULL1(OP) OP(0, Z0, Z9)
#define FULL2(OP) FULL1(OP); OP(64, Z1, Z10)
#define FULL3(OP) FULL2(OP); OP(128, Z2, Z11)
#define FULL4(OP) FULL3(OP); OP(192, Z3, Z12)
#define FULL5(OP) FULL4(OP); OP(256, Z4, Z13)
#define FULL6(OP) FULL5(OP); OP(320, Z5, Z14)
#define FULL7(OP) FULL6(OP); OP(384, Z6, Z15)

// A pass of FULL full vectors and the masked vector (off, acc, tmp): load,
// sweep the edge list, store, then on to the next 128 columns.
#define ZPASS(FULL, off, acc, tmp, edges) \
	FULL(ZLD); \
	ZLDM(off, acc, tmp); \
	XORQ CX, CX; \
edges: \
	ZAHEAD; \
	FULL(ZPF); \
	PREFETCHT0 off(BX); \
	PREFETCHT0 off+63(BX); \
	ZEDGE; \
	FULL(ZMAC); \
	ZMACM(off, acc, tmp); \
	NEXT(edges); \
	FULL(ZST); \
	ZSTM(off, acc, tmp); \
	JMP  next

// func aggregateRowAVX512Asm(out, h []float32, cols int, idx []int32, w []float32)
TEXT ·aggregateRowAVX512Asm(SB), NOSPLIT, $0-104
	MOVQ out_base+0(FP), DI
	MOVQ h_base+24(FP), R12
	MOVQ cols+48(FP), DX
	MOVQ idx_base+56(FP), R9
	MOVQ idx_len+64(FP), R11
	MOVQ w_base+80(FP), R10
	MOVQ idx_cap+72(FP), R13
	DECQ R13
	MOVQ DX, R8
	SHLQ $2, R8

pass:
	// CX = c − 1 with c = min(DX, 128); BX = v − 1; K1 = the low
	// c − 16·(v−1) lanes.
	MOVQ    $128, CX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	DECQ    CX
	MOVQ    CX, BX
	SHRQ    $4, BX
	ANDL    $15, CX
	INCL    CX
	MOVL    $1, SI
	SHLL    CX, SI
	DECL    SI
	KMOVW   SI, K1
	CMPQ    BX, $4
	JGE     wide
	CMPQ    BX, $2
	JGT     v4
	JEQ     v3
	CMPQ    BX, $1
	JEQ     v2
	JMP     v1

wide:
	CMPQ BX, $6
	JGT  v8
	JEQ  v7
	CMPQ BX, $5
	JEQ  v6
	JMP  v5

v1:
	ZPASS(FULL0, 0, Z0, Z9, edges1)
v2:
	ZPASS(FULL1, 64, Z1, Z10, edges2)
v3:
	ZPASS(FULL2, 128, Z2, Z11, edges3)
v4:
	ZPASS(FULL3, 192, Z3, Z12, edges4)
v5:
	ZPASS(FULL4, 256, Z4, Z13, edges5)
v6:
	ZPASS(FULL5, 320, Z5, Z14, edges6)
v7:
	ZPASS(FULL6, 384, Z6, Z15, edges7)
v8:
	ZPASS(FULL7, 448, Z7, Z9, edges8)

next:
	ADDQ $512, DI
	ADDQ $512, R12
	SUBQ $128, DX
	JGT  pass
	VZEROUPPER
	RET

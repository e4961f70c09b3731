// The index-driven row gather: the feature loader of Fig. 4 on the host. A Go
// loop of per-row copies issues one cache-missing 400–512-byte copy at a time
// with nothing in flight behind it; this kernel walks the index list itself,
// so while it copies row idx[i] it has already asked for every cache line of
// row idx[i+8] (PREFETCHT0; ISSUE 22 swept the distance 0 / 2 / 8 / 16 / 32 on
// the gpu-lean training half — gather self time 0.83 / 0.71 / 0.63 / 0.77 /
// 0.76 s over 30 epochs — so 8 is a constant of the kernel, like the GEMM's
// chunk size, not a knob).
//
// Exactness is trivial — it is a copy — so what the kernel owes is extents:
// a row is moved in 128- and 32-byte blocks and then, if cols is not a
// multiple of 8, one more 32-byte move that ends exactly on the row's last
// float (it overlaps the block before it; cols ≥ 8 guarantees it starts inside
// the row). Nothing outside the destination rows is written and nothing
// outside a source row is read. A prefetch cannot fault, and the
// look-ahead index is only read when i+8 < len(idx). gatherRange (ops.go)
// checks every index against the row count and cuts both slices to size before
// the call.

#include "textflag.h"

// func gatherRowsAVX2Asm(dst, src []float32, cols int, idx []int32)
// Registers: DI = destination row, SI = src, R9 = row bytes (the stride of
// both), R10 = idx, R11 = len(idx), CX = i; AX BX DX are per-row cursors.
TEXT ·gatherRowsAVX2Asm(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ cols+48(FP), R9
	MOVQ idx_base+56(FP), R10
	MOVQ idx_len+64(FP), R11
	SHLQ $2, R9
	XORQ CX, CX

row:
	// Prefetch every line of row idx[i+8]: one touch per 64 bytes from its
	// first byte, and one on its last byte for a row that straddles a line.
	LEAQ  8(CX), AX
	CMPQ  AX, R11
	JGE   copy
	MOVL  (R10)(AX*4), AX
	IMULQ R9, AX
	ADDQ  SI, AX
	LEAQ  -1(AX)(R9*1), BX

ahead:
	PREFETCHT0 (AX)
	ADDQ       $64, AX
	CMPQ       AX, BX
	JLE        ahead
	PREFETCHT0 (BX)

copy:
	MOVL  (R10)(CX*4), AX
	IMULQ R9, AX
	ADDQ  SI, AX
	MOVQ  DI, BX
	MOVQ  R9, DX
	CMPQ  DX, $128
	JLT   copy32

copy128:
	VMOVUPS 0(AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVUPS 64(AX), Y2
	VMOVUPS 96(AX), Y3
	VMOVUPS Y0, 0(BX)
	VMOVUPS Y1, 32(BX)
	VMOVUPS Y2, 64(BX)
	VMOVUPS Y3, 96(BX)
	ADDQ    $128, AX
	ADDQ    $128, BX
	SUBQ    $128, DX
	CMPQ    DX, $128
	JGE     copy128

copy32:
	CMPQ    DX, $32
	JLT     last
	VMOVUPS (AX), Y0
	VMOVUPS Y0, (BX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	SUBQ    $32, DX
	JMP     copy32

last:
	TESTQ   DX, DX
	JZ      next
	VMOVUPS -32(AX)(DX*1), Y0
	VMOVUPS Y0, -32(BX)(DX*1)

next:
	ADDQ R9, DI
	INCQ CX
	CMPQ CX, R11
	JLT  row

	VZEROUPPER
	RET

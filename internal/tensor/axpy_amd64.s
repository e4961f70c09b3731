// The SSE row-update kernel. Multiply and add are deliberately separate
// instructions (MULPS + ADDPS, never FMA): a fused multiply-add rounds once
// where the reference kernels round twice, and the exact-equality property
// tests require bit-identical results. Lanes are independent output
// elements, so vectorising across the row preserves each element's
// accumulation order.

#include "textflag.h"

// func axpyRowAsm(dst, src []float32, alpha float32)
// dst[j] += alpha*src[j]; len is a positive multiple of 16.
TEXT ·axpyRowAsm(SB), NOSPLIT, $0-52
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  src_len+32(FP), CX
	MOVSS alpha+48(FP), X0
	SHUFPS $0x00, X0, X0

loop16:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI), X5
	ADDPS  X1, X5
	MOVUPS X5, (DI)
	MOVUPS 16(DI), X6
	ADDPS  X2, X6
	MOVUPS X6, 16(DI)
	MOVUPS 32(DI), X7
	ADDPS  X3, X7
	MOVUPS X7, 32(DI)
	MOVUPS 48(DI), X8
	ADDPS  X4, X8
	MOVUPS X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	JG     loop16
	RET

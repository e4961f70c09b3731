// AVX2 row-update and fused element-wise kernels. Multiply and add are
// deliberately separate instructions (VMULPS + VADDPS,
// never FMA): a fused multiply-add rounds once where the reference kernels
// round twice, and the exact-equality property tests require bit-identical
// results across every dispatch level. Lanes span independent output
// elements only, so no element's accumulation order changes. Every routine
// ends with VZEROUPPER to avoid AVX→SSE transition stalls in the scalar
// tails that follow.
//
// All lengths are positive multiples of 8, guaranteed by the Go wrappers.

#include "textflag.h"

// func axpyRowAVX2Asm(dst, src []float32, alpha float32)
// dst[j] += alpha*src[j].
TEXT ·axpyRowAVX2Asm(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSS alpha+48(FP), Y0

	CMPQ CX, $32
	JL   loop8

loop32:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	VADDPS  32(DI), Y2, Y2
	VMOVUPS Y2, 32(DI)
	VADDPS  64(DI), Y3, Y3
	VMOVUPS Y3, 64(DI)
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     loop32

	TESTQ CX, CX
	JZ    done

loop8:
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JG      loop8

done:
	VZEROUPPER
	RET

// func scaleRowAVX2Asm(dst, src []float32, s float32)
// dst[j] = s*src[j]: the aggregation kernel's scale-initialise pass.
TEXT ·scaleRowAVX2Asm(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSS s+48(FP), Y0

loop8:
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JG      loop8

	VZEROUPPER
	RET

// func reluBackwardAVX2Asm(dz, act []float32)
// dz[j] *= act[j] > 0 ? 1 : 0: the ReLU backward pass against the layer's
// post-activation output. The 0/1 factor is formed in-register — VCMPPS
// (ordered greater-than) AND'ed with a broadcast 1.0 — and multiplied in by
// the VMULPS, dz as the first source operand like the scalar loop's MULSS, so
// -0, ±Inf and NaN gradients give the bits a product with a stored mask gave.
TEXT ·reluBackwardAVX2Asm(SB), NOSPLIT, $0-48
	MOVQ dz_base+0(FP), DI
	MOVQ act_base+24(FP), SI
	MOVQ act_len+32(FP), CX

	VXORPS   Y0, Y0, Y0  // 0.0
	VPCMPEQD Y1, Y1, Y1  // all ones →
	VPSRLD   $25, Y1, Y1 // 0x0000007F per lane →
	VPSLLD   $23, Y1, Y1 // 0x3F800000 = 1.0f per lane

	CMPQ CX, $16
	JL   loop8

loop16:
	VMOVUPS (SI), Y2
	VMOVUPS 32(SI), Y3
	VCMPPS  $0x1E, Y0, Y2, Y2 // act > 0 (GT_OQ)
	VCMPPS  $0x1E, Y0, Y3, Y3
	VANDPS  Y1, Y2, Y2        // 1.0 where positive, else 0.0
	VANDPS  Y1, Y3, Y3
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMULPS  Y2, Y4, Y4
	VMULPS  Y3, Y5, Y5
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     loop16

	TESTQ CX, CX
	JZ    done

loop8:
	VMOVUPS (SI), Y2
	VCMPPS  $0x1E, Y0, Y2, Y2
	VANDPS  Y1, Y2, Y2
	VMOVUPS (DI), Y4
	VMULPS  Y2, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JG      loop8

done:
	VZEROUPPER
	RET

// func addBiasReLUAVX2Asm(row, bias []float32)
// v = row[j]+bias[j]; row[j] = v>0 ? v : 0. VCMPPS (ordered greater-than)
// AND'ed with the value — not VMAXPS — so v = -0.0 and v = NaN land exactly
// where the scalar branch puts them (+0.0).
TEXT ·addBiasReLUAVX2Asm(SB), NOSPLIT, $0-48
	MOVQ row_base+0(FP), DI
	MOVQ bias_base+24(FP), SI
	MOVQ row_len+8(FP), CX

	VXORPS Y0, Y0, Y0 // 0.0

loop8:
	VMOVUPS (DI), Y2
	VADDPS  (SI), Y2, Y2       // v = row + bias
	VCMPPS  $0x1E, Y0, Y2, Y3  // v > 0 (GT_OQ)
	VANDPS  Y3, Y2, Y2         // v where positive, else +0.0
	VMOVUPS Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JG      loop8

	VZEROUPPER
	RET

// func rowMaxAVX2Asm(src []float32) float32
// Returns max(src). Selection, not arithmetic: the maximum *value* is
// order-independent, and the Go wrapper canonicalises the returned bit
// pattern by re-reading the first row element that compares equal, so the
// -0.0/+0.0 tie-breaking of VMAXPS never leaks into results.
TEXT ·rowMaxAVX2Asm(SB), NOSPLIT, $0-28
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX

	VMOVUPS (SI), Y0
	ADDQ    $32, SI
	SUBQ    $8, CX
	JZ      reduce

loop8:
	VMAXPS  (SI), Y0, Y0
	ADDQ    $32, SI
	SUBQ    $8, CX
	JG      loop8

reduce:
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0x0E, X0, X1  // lanes 2,3 → 0,1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0x01, X0, X1  // lane 1 → 0
	VMAXPS       X1, X0, X0
	VZEROUPPER
	MOVSS        X0, ret+24(FP)
	RET

// func subScalarAVX2Asm(dst, src []float32, s float32)
// dst[j] = src[j] - s: the softmax shift pass.
TEXT ·subScalarAVX2Asm(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSS s+48(FP), Y0

loop8:
	VMOVUPS (SI), Y1
	VSUBPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JG      loop8

	VZEROUPPER
	RET

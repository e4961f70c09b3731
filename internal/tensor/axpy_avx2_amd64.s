// AVX2 row-update and fused element-wise kernels. The row update is one
// fused multiply-add per element (VFMADD213PS, one rounding), the step
// fmaProduct takes in the Go loops (axpy.go), so every dispatch level gives
// the same bits; the element-wise kernels reproduce their Go expressions
// operation by operation. Lanes span independent output elements only, so no
// element's accumulation order changes. Every routine ends with VZEROUPPER to
// avoid AVX→SSE transition stalls in the scalar tails that follow.
//
// All lengths are positive multiples of 8, guaranteed by the Go wrappers.

#include "textflag.h"

// func axpyRowAVX2Asm(dst, src []float32, alpha float32)
// dst[j] = src[j]·alpha + dst[j], rounded once.
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
	VFMADD213PS (DI), Y0, Y1
	VMOVUPS     Y1, (DI)
	VFMADD213PS 32(DI), Y0, Y2
	VMOVUPS     Y2, 32(DI)
	VFMADD213PS 64(DI), Y0, Y3
	VMOVUPS     Y3, 64(DI)
	VFMADD213PS 96(DI), Y0, Y4
	VMOVUPS     Y4, 96(DI)
	ADDQ        $128, SI
	ADDQ        $128, DI
	SUBQ        $32, CX
	CMPQ        CX, $32
	JGE         loop32

	TESTQ CX, CX
	JZ    done

loop8:
	VMOVUPS     (SI), Y1
	VFMADD213PS (DI), Y0, Y1
	VMOVUPS     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, CX
	JG          loop8

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

// func reluMaskAVX2Asm(mask []int32, act []float32, zero int)
// Bit b of mask[w] = act[32w+b] > 0: the ReLU derivative of a post-activation
// output, one bit per element. VCMPPS (ordered less-than, 0 < act, so NaN
// gives 0) and VMOVMSKPS pack eight lanes at a time, four of them per word.
// With zero ≠ 0 the pass also stores +0 over every act element it has read.
TEXT ·reluMaskAVX2Asm(SB), NOSPLIT, $0-56
	MOVQ mask_base+0(FP), DI
	MOVQ act_base+24(FP), SI
	MOVQ act_len+32(FP), CX
	MOVQ zero+48(FP), DX

	VXORPS Y0, Y0, Y0 // 0.0

loop32:
	VCMPPS    $0x11, (SI), Y0, Y1 // 0 < act (LT_OQ)
	VCMPPS    $0x11, 32(SI), Y0, Y2
	VCMPPS    $0x11, 64(SI), Y0, Y3
	VCMPPS    $0x11, 96(SI), Y0, Y4
	VMOVMSKPS Y1, AX
	VMOVMSKPS Y2, BX
	VMOVMSKPS Y3, R8
	VMOVMSKPS Y4, R9
	SHLL      $8, BX
	SHLL      $16, R8
	SHLL      $24, R9
	ORL       BX, AX
	ORL       R8, AX
	ORL       R9, AX
	MOVL      AX, (DI)
	TESTQ     DX, DX
	JZ        next
	VMOVUPS   Y0, (SI)
	VMOVUPS   Y0, 32(SI)
	VMOVUPS   Y0, 64(SI)
	VMOVUPS   Y0, 96(SI)

next:
	ADDQ $128, SI
	ADDQ $4, DI
	SUBQ $32, CX
	JG   loop32

	VZEROUPPER
	RET

// reluBit holds 1<<k in lane k: a word broadcast to every lane and AND'ed
// with it (shifted left by 8·g for the word's group g of eight elements)
// equals it exactly in the lanes whose bit is set.
DATA reluBit<>+0(SB)/4, $1
DATA reluBit<>+4(SB)/4, $2
DATA reluBit<>+8(SB)/4, $4
DATA reluBit<>+12(SB)/4, $8
DATA reluBit<>+16(SB)/4, $16
DATA reluBit<>+20(SB)/4, $32
DATA reluBit<>+24(SB)/4, $64
DATA reluBit<>+28(SB)/4, $128
GLOBL reluBit<>(SB), RODATA|NOPTR, $32

// func reluBackwardMaskAVX2Asm(dz []float32, mask []int32)
// dz[j] *= bit j of mask ? 1 : 0: the ReLU backward pass against the bits
// reluMaskAVX2Asm recorded. Each word is broadcast and expanded to a 0/1
// factor per lane (VPAND + VPCMPEQD against the lane's bit, AND'ed with a
// broadcast 1.0), multiplied in by the VMULPS with dz as the first source
// operand like the scalar loop's MULSS, so −0, ±Inf and NaN gradients give
// the bits a product with a stored 0/1 mask gave.
TEXT ·reluBackwardMaskAVX2Asm(SB), NOSPLIT, $0-48
	MOVQ dz_base+0(FP), DI
	MOVQ dz_len+8(FP), CX
	MOVQ mask_base+24(FP), SI

	VMOVDQU  reluBit<>(SB), Y8 // elements 0–7 of a word
	VPSLLD   $8, Y8, Y9        // 8–15
	VPSLLD   $16, Y8, Y10      // 16–23
	VPSLLD   $24, Y8, Y11      // 24–31
	VPCMPEQD Y1, Y1, Y1        // all ones →
	VPSRLD   $25, Y1, Y1       // 0x0000007F per lane →
	VPSLLD   $23, Y1, Y1       // 0x3F800000 = 1.0f per lane

loop32:
	VPBROADCASTD (SI), Y0
	VPAND        Y8, Y0, Y2
	VPAND        Y9, Y0, Y3
	VPAND        Y10, Y0, Y4
	VPAND        Y11, Y0, Y5
	VPCMPEQD     Y8, Y2, Y2
	VPCMPEQD     Y9, Y3, Y3
	VPCMPEQD     Y10, Y4, Y4
	VPCMPEQD     Y11, Y5, Y5
	VPAND        Y1, Y2, Y2 // 1.0 where the bit is set, else 0.0
	VPAND        Y1, Y3, Y3
	VPAND        Y1, Y4, Y4
	VPAND        Y1, Y5, Y5
	VMOVUPS      (DI), Y6
	VMOVUPS      32(DI), Y7
	VMOVUPS      64(DI), Y12
	VMOVUPS      96(DI), Y13
	VMULPS       Y2, Y6, Y6
	VMULPS       Y3, Y7, Y7
	VMULPS       Y4, Y12, Y12
	VMULPS       Y5, Y13, Y13
	VMOVUPS      Y6, (DI)
	VMOVUPS      Y7, 32(DI)
	VMOVUPS      Y12, 64(DI)
	VMOVUPS      Y13, 96(DI)
	ADDQ         $128, DI
	ADDQ         $4, SI
	SUBQ         $32, CX
	JG           loop32

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

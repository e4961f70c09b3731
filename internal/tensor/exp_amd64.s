// The two vector passes under SoftmaxCrossEntropy: the row of exponentials and
// the gradient sweep. The loss evaluates one exp per logit, and a Go loop
// around math.Exp pays a call, a range test and an ≈ 25-instruction dependent
// chain each time; here the loop is inside and four float64 lanes share every
// instruction.
//
// Exactness of expRowFMAAsm. It is package math's own amd64 Exp — the
// "avxfma" path of archExp in math/exp_amd64.s (N. Shibata, "Efficient
// evaluation methods of elementary functions suitable for SIMD computation",
// ISC'10, an algorithm designed to be run lane-parallel) — executed on YMM
// registers: the same constants, spelled as the same literals, in the same
// instructions in the same order, each scalar instruction replaced by its
// packed form. Every one of them (multiply, add, fused multiply-add, the two
// int conversions under the same MXCSR rounding mode) is correctly rounded
// per lane, so a lane computes what the scalar routine computes, bit for bit:
//
//	k = round(x·LOG2E)                  VMULPD, VCVTPD2DQ, VCVTDQ2PD
//	r = (x − k·LN2U − k·LN2L)·0.0625    two VFNMADD231PD, VMULPD
//	p = Taylor series in r, degree 8    seven VFMADD213PD
//	r = r·p; four times r·(r+2), the    VMULPD, then VADDPD + VMULPD ×3,
//	    last fused with the +1          VADDPD + VFMADD213PD
//	result = r · 2^k                    (k+1023)<<52, VMULPD
//
// archExp leaves that straight line for x that is NaN or ±Inf, x above its
// overflow threshold (709.78…) and results whose biased exponent k+1023 falls
// outside [1, 2046] (the denormal and overflow exits). For x in [−708, 709],
// k+1023 is in [2, 2046], so none of those exits is taken; a lane outside that
// interval (or NaN) clears the returned flag and the Go caller recomputes it
// with math.Exp. The FMAs here are the FMAs math.Exp already executes, and
// the kernel runs only where math takes that path (AVX + FMA, which the avx2
// rung requires: simd_amd64.go). If a Go
// release changes archExp, TestExpRowMatchesMathExpSIMD fails; the remedy is
// to re-derive or drop this kernel, never to re-record a golden.
//
// softmaxGradAVX2Asm is the loop `grad[j] = float32(exps[j]/sum)·inv` with
// VDIVPD / VCVTPD2PS / VMULPS: three correctly rounded operations per element
// in the scalar order, nothing fused, no accumulation.

#include "textflag.h"

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

// Scalars broadcast into registers once per call.
DATA expConst<>+0(SB)/8, $LOG2E
DATA expConst<>+8(SB)/8, $LN2U
DATA expConst<>+16(SB)/8, $LN2L
DATA expConst<>+24(SB)/8, $0.0625
DATA expConst<>+32(SB)/8, $2.0
DATA expConst<>+40(SB)/8, $1.0
DATA expConst<>+48(SB)/8, $-708.0
DATA expConst<>+56(SB)/8, $709.0
DATA expConst<>+64(SB)/8, $1023
GLOBL expConst<>(SB), RODATA|NOPTR, $72

// The Taylor coefficients 1/8! … 1/2!, four lanes each: they are the memory
// operands of the VFMADD213PD chain.
#define QUAD(off, v) \
	DATA expPoly<>+off+0(SB)/8, v; \
	DATA expPoly<>+off+8(SB)/8, v; \
	DATA expPoly<>+off+16(SB)/8, v; \
	DATA expPoly<>+off+24(SB)/8, v

QUAD(0, $2.4801587301587301587e-5)
QUAD(32, $1.9841269841269841270e-4)
QUAD(64, $1.3888888888888888889e-3)
QUAD(96, $8.3333333333333333333e-3)
QUAD(128, $4.1666666666666666667e-2)
QUAD(160, $1.6666666666666666667e-1)
QUAD(192, $0.5)
GLOBL expPoly<>(SB), RODATA|NOPTR, $224

// Y15 LOG2E, Y14 LN2U, Y13 LN2L, Y12 0.0625, Y11 2.0, Y10 1.0, Y9 −708,
// Y8 709, Y6 1023 (int64 lanes), Y7 = AND of every lane's in-range mask.
// x holds four arguments on entry and their exponentials on exit; p and k are
// scratch (kx is k's low half).
#define EXP4(x, p, kx, k) \
	VCMPPD       $0x1D, Y9, x, p; \
	VANDPD       p, Y7, Y7; \
	VCMPPD       $0x12, Y8, x, p; \
	VANDPD       p, Y7, Y7; \
	VMULPD       Y15, x, p; \
	VCVTPD2DQY   p, kx; \
	VCVTDQ2PD    kx, p; \
	VFNMADD231PD Y14, p, x; \
	VFNMADD231PD Y13, p, x; \
	VMULPD       Y12, x, x; \
	VMOVUPD      expPoly<>+0(SB), p; \
	VFMADD213PD  expPoly<>+32(SB), x, p; \
	VFMADD213PD  expPoly<>+64(SB), x, p; \
	VFMADD213PD  expPoly<>+96(SB), x, p; \
	VFMADD213PD  expPoly<>+128(SB), x, p; \
	VFMADD213PD  expPoly<>+160(SB), x, p; \
	VFMADD213PD  expPoly<>+192(SB), x, p; \
	VFMADD213PD  Y10, x, p; \
	VMULPD       p, x, x; \
	VADDPD       Y11, x, p; \
	VMULPD       p, x, x; \
	VADDPD       Y11, x, p; \
	VMULPD       p, x, x; \
	VADDPD       Y11, x, p; \
	VMULPD       p, x, x; \
	VADDPD       Y11, x, p; \
	VFMADD213PD  Y10, p, x; \
	VPMOVSXDQ    kx, k; \
	VPADDQ       Y6, k, k; \
	VPSLLQ       $52, k, k; \
	VMULPD       k, x, x

// func expRowFMAAsm(dst []float64, src []float32) (inRange bool)
// len(src) is a positive multiple of 4.
TEXT ·expRowFMAAsm(SB), NOSPLIT, $0-49
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX

	VBROADCASTSD expConst<>+0(SB), Y15
	VBROADCASTSD expConst<>+8(SB), Y14
	VBROADCASTSD expConst<>+16(SB), Y13
	VBROADCASTSD expConst<>+24(SB), Y12
	VBROADCASTSD expConst<>+32(SB), Y11
	VBROADCASTSD expConst<>+40(SB), Y10
	VBROADCASTSD expConst<>+48(SB), Y9
	VBROADCASTSD expConst<>+56(SB), Y8
	VBROADCASTSD expConst<>+64(SB), Y6
	VPCMPEQD     Y7, Y7, Y7

	CMPQ CX, $8
	JLT  last4

loop8:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y3
	EXP4(Y0, Y1, X2, Y2)
	EXP4(Y3, Y4, X5, Y5)
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y3, 32(DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	CMPQ      CX, $8
	JGE       loop8

	TESTQ CX, CX
	JZ    done

last4:
	VCVTPS2PD (SI), Y0
	EXP4(Y0, Y1, X2, Y2)
	VMOVUPD   Y0, (DI)

done:
	VMOVMSKPD Y7, AX
	VZEROUPPER
	CMPL      AX, $15
	SETEQ     inRange+48(FP)
	RET

// func softmaxGradAVX2Asm(grad []float32, exps []float64, sum float64, inv float32)
// grad[j] = float32(exps[j]/sum)·inv; len(exps) is a positive multiple of 4.
TEXT ·softmaxGradAVX2Asm(SB), NOSPLIT, $0-60
	MOVQ         grad_base+0(FP), DI
	MOVQ         exps_base+24(FP), SI
	MOVQ         exps_len+32(FP), CX
	VBROADCASTSD sum+48(FP), Y0
	VBROADCASTSS inv+56(FP), X1

loop4:
	VMOVUPD    (SI), Y2
	VDIVPD     Y0, Y2, Y2
	VCVTPD2PSY Y2, X2
	VMULPS     X1, X2, X2
	VMOVUPS    X2, (DI)
	ADDQ       $32, SI
	ADDQ       $16, DI
	SUBQ       $4, CX
	JG         loop4

	VZEROUPPER
	RET

// The Box–Muller row kernel: dst[j] = mean[j] + float32(n_j·std), where n_j
// is the j-th normal variate RNG.NormFloat64 would return, eight variates per
// pass on ZMM registers.
//
// Exactness. Lane j of a pass computes what NormFloat64 computes from its two
// draws, instruction for instruction, each scalar instruction replaced by its
// packed form; every one of them (integer ops, multiply, add, subtract,
// divide, square root, the conversions under the same MXCSR rounding mode) is
// exact or correctly rounded per lane, and nothing is fused:
//
//	draws     SplitMix64's finalizer on the lane's counter state (VPMULLQ
//	          is the 64-bit low multiply of the scalar IMULQ), then
//	          float64(z>>11)·2⁻⁵³ — exact, as is Float64's division by 2⁵³
//	log(u1)   math/log_amd64.s (archLog) step for step: the frexp by bit
//	          masks, the f1 ≤ √2/2 fold (archLog's CMPSD NLT with √2/2 as
//	          the first operand: the fold is taken at equality), s = f/(2+f),
//	          the two Horner chains t1 and t2 and the final
//	          k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f)
//	sqrt      VSQRTPD for math.Sqrt's SQRTSD
//	cos(2πu2) math.cos (sin.go) as the Go compiler emits it without FMA:
//	          j = trunc(x·4/π), the odd-octant shift, the three-part
//	          Cody–Waite reduction, both octant polynomials in math's
//	          association, the polynomial picked by j&2 and the sign
//	          flipped for octants 2 and 4 (x < 2π, so trigReduce's
//	          Payne–Hanek branch is never taken)
//	result    sqrt·cos, ·std, VCVTPD2PS, VADDPS with the mean
//
// The argument ranges rule out every special-case exit of archLog and cos:
// u1 ∈ [2⁻⁵³, 1) is a positive normal number and 2π·u2 ∈ [0, 2π) is finite.
// The one input outside them, u1 = 0, is NormFloat64's redraw, which this
// kernel does not reproduce: a first pass draws every u1 of the row, and if
// one is 0 the kernel returns false having written nothing. If a Go release
// changes archLog or cos, TestNormalRowMatchesScalar fails; the remedy is to
// re-derive or drop this kernel, never to re-record a golden. The amd64
// compiler fuses a multiply-add only where the source calls math.FMA, at
// every GOAMD64 level, so cos stays unfused under GOAMD64=v3 as well.
//
// Lane j of pass p reads its u1 from the counter state
// state + (16p + 2j + 1)·step and its u2 from the state one step on; with
// step = γ those are draws 2i+1 and 2i+2 after state for variate i = 8p + j,
// the draws NormFloat64 makes when no u1 is 0. The last pass of a row whose
// length is not a multiple of 8 runs under an opmask: its dead lanes compute
// garbage that is neither tested nor stored, and its mean loads and dst
// stores are fault-suppressed.

#include "textflag.h"

// Per-lane multipliers of step for a pass's first u1 states.
DATA oddLanes<>+0(SB)/8, $1
DATA oddLanes<>+8(SB)/8, $3
DATA oddLanes<>+16(SB)/8, $5
DATA oddLanes<>+24(SB)/8, $7
DATA oddLanes<>+32(SB)/8, $9
DATA oddLanes<>+40(SB)/8, $11
DATA oddLanes<>+48(SB)/8, $13
DATA oddLanes<>+56(SB)/8, $15
GLOBL oddLanes<>(SB), RODATA|NOPTR, $64

// Broadcast scalars, at the offsets the names below give. The floating-point
// ones are the bit patterns of package math's literals (archLog's #defines,
// cos's PI4A..C and its _sin/_cos tables) and of the constant expressions
// 2*math.Pi and 4/math.Pi.
DATA bmConst<>+0(SB)/8, $0xBF58476D1CE4E5B9   // SplitMix64 multipliers
DATA bmConst<>+8(SB)/8, $0x94D049BB133111EB
DATA bmConst<>+16(SB)/8, $0x3CA0000000000000  // 2⁻⁵³
DATA bmConst<>+24(SB)/8, $0x000FFFFFFFFFFFFF  // mantissa mask
DATA bmConst<>+32(SB)/8, $0x3FE0000000000000  // 0.5
DATA bmConst<>+40(SB)/8, $0x3FE6A09E667F3BCD  // HSqrt2
DATA bmConst<>+48(SB)/8, $0x4000000000000000  // 2.0
DATA bmConst<>+56(SB)/8, $0x3FE5555555555593  // L1
DATA bmConst<>+64(SB)/8, $0x3FD999999997FA04  // L2
DATA bmConst<>+72(SB)/8, $0x3FD2492494229359  // L3
DATA bmConst<>+80(SB)/8, $0x3FCC71C51D8E78AF  // L4
DATA bmConst<>+88(SB)/8, $0x3FC7466496CB03DE  // L5
DATA bmConst<>+96(SB)/8, $0x3FC39A09D078C69F  // L6
DATA bmConst<>+104(SB)/8, $0x3FC2F112DF3E5244 // L7
DATA bmConst<>+112(SB)/8, $0x3DEA39EF35793C76 // Ln2Lo
DATA bmConst<>+120(SB)/8, $0x3FE62E42FEE00000 // Ln2Hi
DATA bmConst<>+128(SB)/8, $0xC000000000000000 // −2.0
DATA bmConst<>+136(SB)/8, $0x401921FB54442D18 // 2π
DATA bmConst<>+144(SB)/8, $0x3FF45F306DC9C883 // 4/π
DATA bmConst<>+152(SB)/8, $0x3FE921FB40000000 // PI4A
DATA bmConst<>+160(SB)/8, $0x3E64442D00000000 // PI4B
DATA bmConst<>+168(SB)/8, $0x3CE8469898CC5170 // PI4C
DATA bmConst<>+176(SB)/8, $0x3DE5D8FD1FD19CCD // _sin[0..5]
DATA bmConst<>+184(SB)/8, $0xBE5AE5E5A9291F5D
DATA bmConst<>+192(SB)/8, $0x3EC71DE3567D48A1
DATA bmConst<>+200(SB)/8, $0xBF2A01A019BFDF03
DATA bmConst<>+208(SB)/8, $0x3F8111111110F7D0
DATA bmConst<>+216(SB)/8, $0xBFC5555555555548
DATA bmConst<>+224(SB)/8, $0xBDA8FA49A0861A9B // _cos[0..5]
DATA bmConst<>+232(SB)/8, $0x3E21EE9D7B4E3F05
DATA bmConst<>+240(SB)/8, $0xBE927E4F7EAC4BC6
DATA bmConst<>+248(SB)/8, $0x3EFA01A019C844F5
DATA bmConst<>+256(SB)/8, $0xBF56C16C16C14F91
DATA bmConst<>+264(SB)/8, $0x3FA555555555554B
DATA bmConst<>+272(SB)/8, $0x3FE                // frexp's exponent bias
DATA bmConst<>+280(SB)/8, $1                    // integer 1, 2, 4
DATA bmConst<>+288(SB)/8, $2
DATA bmConst<>+296(SB)/8, $4
DATA bmConst<>+304(SB)/8, $7                    // octant mask
DATA bmConst<>+312(SB)/8, $0x8000000000000000   // sign bit
GLOBL bmConst<>(SB), RODATA|NOPTR, $320

#define MIX1 bmConst<>+0(SB)
#define MIX2 bmConst<>+8(SB)
#define TWOM53 bmConst<>+16(SB)
#define MANT bmConst<>+24(SB)
#define HALF bmConst<>+32(SB)
#define HSQRT2 bmConst<>+40(SB)
#define TWO bmConst<>+48(SB)
#define L1 bmConst<>+56(SB)
#define L2 bmConst<>+64(SB)
#define L3 bmConst<>+72(SB)
#define L4 bmConst<>+80(SB)
#define L5 bmConst<>+88(SB)
#define L6 bmConst<>+96(SB)
#define L7 bmConst<>+104(SB)
#define LN2LO bmConst<>+112(SB)
#define LN2HI bmConst<>+120(SB)
#define MINUS2 bmConst<>+128(SB)
#define TWOPI bmConst<>+136(SB)
#define FOUROVERPI bmConst<>+144(SB)
#define PI4A bmConst<>+152(SB)
#define PI4B bmConst<>+160(SB)
#define PI4C bmConst<>+168(SB)
#define SIN0 bmConst<>+176(SB)
#define SIN1 bmConst<>+184(SB)
#define SIN2 bmConst<>+192(SB)
#define SIN3 bmConst<>+200(SB)
#define SIN4 bmConst<>+208(SB)
#define SIN5 bmConst<>+216(SB)
#define COS0 bmConst<>+224(SB)
#define COS1 bmConst<>+232(SB)
#define COS2 bmConst<>+240(SB)
#define COS3 bmConst<>+248(SB)
#define COS4 bmConst<>+256(SB)
#define COS5 bmConst<>+264(SB)
#define BIAS bmConst<>+272(SB)
#define INT1 bmConst<>+280(SB)
#define INT2 bmConst<>+288(SB)
#define INT4 bmConst<>+296(SB)
#define INT7 bmConst<>+304(SB)
#define SIGN bmConst<>+312(SB)

// z = the 64 bits SplitMix64 returns at counter state s; t is scratch.
#define MIX(s, z, t) \
	VPSRLQ       $30, s, t; \
	VPXORQ       s, t, z; \
	VPMULLQ.BCST MIX1, z, z; \
	VPSRLQ       $27, z, t; \
	VPXORQ       t, z, z; \
	VPMULLQ.BCST MIX2, z, z; \
	VPSRLQ       $31, z, t; \
	VPXORQ       t, z, z

// K1 = the low min(BX, 8) lanes (BX ≥ 1 remaining variates).
#define LANEMASK \
	MOVQ    $8, CX; \
	CMPQ    BX, CX; \
	CMOVQLT BX, CX; \
	MOVL    $1, AX; \
	SHLL    CX, AX; \
	DECL    AX; \
	KMOVW   AX, K1

// x = log(x) as archLog computes it (x a positive normal number); Z15 = 1.0.
// k, f, s, s2, s4, t are scratch.
#define LOG(x, k, f, s, s2, s4, t) \
	VPSRLQ         $52, x, k; \
	VPSUBQ.BCST    BIAS, k, k; \
	VCVTQQ2PD      k, k; \
	VPANDQ.BCST    MANT, x, f; \
	VPORQ.BCST     HALF, f, f; \
	VCMPPD.BCST    $2, HSQRT2, f, K2; \
	VMOVAPD.Z      Z15, K2, t; \
	VSUBPD         t, k, k; \
	VADDPD         Z15, t, t; \
	VMULPD         t, f, f; \
	VSUBPD         Z15, f, f; \
	VADDPD.BCST    TWO, f, t; \
	VDIVPD         t, f, s; \
	VMULPD         s, s, s2; \
	VMULPD         s2, s2, s4; \
	VMULPD.BCST    L7, s4, t; \
	VADDPD.BCST    L5, t, t; \
	VMULPD         s4, t, t; \
	VADDPD.BCST    L3, t, t; \
	VMULPD         s4, t, t; \
	VADDPD.BCST    L1, t, t; \
	VMULPD         t, s2, s2; \
	VMULPD.BCST    L6, s4, t; \
	VADDPD.BCST    L4, t, t; \
	VMULPD         s4, t, t; \
	VADDPD.BCST    L2, t, t; \
	VMULPD         t, s4, s4; \
	VADDPD         s4, s2, s2; \
	VMULPD.BCST    HALF, f, t; \
	VMULPD         f, t, t; \
	VADDPD         t, s2, s2; \
	VMULPD         s2, s, s; \
	VMULPD.BCST    LN2LO, k, s2; \
	VADDPD         s2, s, s; \
	VSUBPD         s, t, t; \
	VSUBPD         f, t, t; \
	VMULPD.BCST    LN2HI, k, k; \
	VSUBPD         t, k, x

// u = cos(2π·u) as math.Cos computes it (u ∈ [0, 1)); Z15 = 1.0.
// j, y, zz, p, t are scratch.
#define COS(u, j, y, zz, p, t) \
	VMULPD.BCST    TWOPI, u, u; \
	VMULPD.BCST    FOUROVERPI, u, t; \
	VCVTTPD2QQ     t, j; \
	VCVTQQ2PD      j, y; \
	VPTESTMQ.BCST  INT1, j, K2; \
	VPADDQ.BCST    INT1, j, K2, j; \
	VADDPD         Z15, y, K2, y; \
	VPANDQ.BCST    INT7, j, j; \
	VMULPD.BCST    PI4A, y, t; \
	VSUBPD         t, u, u; \
	VMULPD.BCST    PI4B, y, t; \
	VSUBPD         t, u, u; \
	VMULPD.BCST    PI4C, y, t; \
	VSUBPD         t, u, u; \
	VMULPD         u, u, zz; \
	VMULPD.BCST    SIN0, zz, p; \
	VADDPD.BCST    SIN1, p, p; \
	VMULPD         zz, p, p; \
	VADDPD.BCST    SIN2, p, p; \
	VMULPD         zz, p, p; \
	VADDPD.BCST    SIN3, p, p; \
	VMULPD         zz, p, p; \
	VADDPD.BCST    SIN4, p, p; \
	VMULPD         zz, p, p; \
	VADDPD.BCST    SIN5, p, p; \
	VMULPD         zz, u, t; \
	VMULPD         p, t, t; \
	VADDPD         t, u, y; \
	VMULPD.BCST    COS0, zz, p; \
	VADDPD.BCST    COS1, p, p; \
	VMULPD         zz, p, p; \
	VADDPD.BCST    COS2, p, p; \
	VMULPD         zz, p, p; \
	VADDPD.BCST    COS3, p, p; \
	VMULPD         zz, p, p; \
	VADDPD.BCST    COS4, p, p; \
	VMULPD         zz, p, p; \
	VADDPD.BCST    COS5, p, p; \
	VMULPD         zz, zz, t; \
	VMULPD         p, t, t; \
	VMULPD.BCST    HALF, zz, u; \
	VSUBPD         u, Z15, u; \
	VADDPD         t, u, u; \
	VPTESTMQ.BCST  INT2, j, K2; \
	VMOVAPD        y, K2, u; \
	VPADDQ.BCST    INT2, j, j; \
	VPTESTMQ.BCST  INT4, j, K2; \
	VPXORQ.BCST    SIGN, u, K2, u

// func normalRowAVX512Asm(dst, mean []float32, std float64, state, step uint64) (ok bool)
//
// len(dst) ≥ 1 and len(mean) ≥ len(dst), checked by the Go wrapper.
// Registers: DI = dst, SI = mean, R9 = len(dst), BX = variates left,
// Z15 = 1.0, Z14 = std, Z13 = step, Z12 = 16·step, Z11 = the pass's u1
// states, Z0..Z10 scratch.
TEXT ·normalRowAVX512Asm(SB), NOSPLIT, $0-73
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), R9
	MOVQ         mean_base+24(FP), SI
	VBROADCASTSD std+48(FP), Z14
	VPBROADCASTQ state+56(FP), Z0
	VPBROADCASTQ step+64(FP), Z13
	VPMULLQ      oddLanes<>(SB), Z13, Z11
	VPADDQ       Z0, Z11, Z11
	VPSLLQ       $4, Z13, Z12
	MOVQ         $0x3FF0000000000000, AX
	VPBROADCASTQ AX, Z15

	// First pass: refuse the row if any of its u1 is 0, before writing.
	MOVQ      R9, BX
	VMOVDQA64 Z11, Z0

check:
	LANEMASK
	MIX(Z0, Z1, Z2)
	VPSRLQ    $11, Z1, Z1
	VPTESTNMQ Z1, Z1, K1, K2
	KORTESTW  K2, K2
	JNE       zero
	VPADDQ    Z12, Z0, Z0
	SUBQ      $8, BX
	JGT       check

	MOVQ R9, BX

loop:
	LANEMASK
	MIX(Z11, Z0, Z2)
	VPADDQ       Z13, Z11, Z1
	MIX(Z1, Z1, Z2)
	VPSRLQ       $11, Z0, Z0
	VCVTQQ2PD    Z0, Z0
	VMULPD.BCST  TWOM53, Z0, Z0
	VPSRLQ       $11, Z1, Z1
	VCVTQQ2PD    Z1, Z1
	VMULPD.BCST  TWOM53, Z1, Z1
	LOG(Z0, Z2, Z3, Z4, Z5, Z6, Z7)
	VMULPD.BCST  MINUS2, Z0, Z0
	VSQRTPD      Z0, Z0
	COS(Z1, Z2, Z3, Z4, Z5, Z6)
	VMULPD       Z1, Z0, Z0
	VMULPD       Z14, Z0, Z0
	VCVTPD2PS    Z0, Y0
	VMOVUPS.Z    (SI), K1, Z1
	VADDPS       Z1, Z0, Z0
	VMOVUPS      Z0, K1, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	VPADDQ       Z12, Z11, Z11
	SUBQ         $8, BX
	JGT          loop

	VZEROUPPER
	MOVB $1, ok+72(FP)
	RET

zero:
	VZEROUPPER
	MOVB $0, ok+72(FP)
	RET

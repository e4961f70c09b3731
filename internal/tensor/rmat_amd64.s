// The RMAT attempt kernel: src[i] and dst[i] = the row and column bits of
// attempt i's quadrant path (RNG.FillRMAT), eight attempts per pass on ZMM
// registers.
//
// Lane j of pass p runs attempt i = 8p + j. Its level l reads the counter
// state state + (i·levels + l + 1)·γ, draw i·levels + l + 1 past state: the
// draw the scalar loop makes there. The lane computes SplitMix64's finalizer
// (VPMULLQ is the 64-bit low multiply of the scalar IMULQ), shifts it right
// by 11 and compares the result, an unsigned integer, with the three
// thresholds into opmasks. Each compare sets the level's bit,
// 1 << (levels−1−l), in its own accumulator by a masked OR. The row bits
// are the accumulator of u ≥ t1 and the column bits the XOR of all three,
// the parity of the thresholds u passed. Every step is an integer
// operation, so each lane equals the scalar loop exactly.
//
// The last pass of a call whose length is not a multiple of 8 runs under an
// opmask: its dead lanes compute values that are not stored, and its stores
// are masked. A call with levels = 0 runs no level and writes zeros.

#include "textflag.h"

// Per-lane attempt numbers within a pass.
DATA laneIota<>+0(SB)/8, $0
DATA laneIota<>+8(SB)/8, $1
DATA laneIota<>+16(SB)/8, $2
DATA laneIota<>+24(SB)/8, $3
DATA laneIota<>+32(SB)/8, $4
DATA laneIota<>+40(SB)/8, $5
DATA laneIota<>+48(SB)/8, $6
DATA laneIota<>+56(SB)/8, $7
GLOBL laneIota<>(SB), RODATA|NOPTR, $64

// func rmatRowsAVX512Asm(src, dst []int32, levels int, t0, t1, t2, state uint64)
//
// len(src) ≥ 1 and len(dst) ≥ len(src), checked by the Go wrapper.
// Registers: DI = src, SI = dst, DX = levels, BX = attempts left,
// Z20..Z22 = t0..t2, Z23 = γ, Z24 = 8·levels·γ, Z25 = the pass's
// level-0 states, Z26 = the first level's bit, Z27 and Z28 = SplitMix64's
// multipliers, Z0..Z6 scratch.
TEXT ·rmatRowsAVX512Asm(SB), NOSPLIT, $0-88
	MOVQ         src_base+0(FP), DI
	MOVQ         src_len+8(FP), BX
	MOVQ         dst_base+24(FP), SI
	MOVQ         levels+48(FP), DX
	VPBROADCASTQ t0+56(FP), Z20
	VPBROADCASTQ t1+64(FP), Z21
	VPBROADCASTQ t2+72(FP), Z22
	MOVQ         $0x9E3779B97F4A7C15, R8 // SplitMix64's γ
	VPBROADCASTQ R8, Z23
	MOVQ         $0xBF58476D1CE4E5B9, AX
	VPBROADCASTQ AX, Z27
	MOVQ         $0x94D049BB133111EB, AX
	VPBROADCASTQ AX, Z28
	LEAQ         -1(DX), CX
	MOVQ         $1, AX
	SHLQ         CX, AX
	VPBROADCASTQ AX, Z26

	// Z25 = state + γ + j·levels·γ; Z24 = 8·levels·γ.
	MOVQ         R8, AX
	IMULQ        DX, AX
	VPBROADCASTQ AX, Z0
	VPMULLQ      laneIota<>(SB), Z0, Z25
	SHLQ         $3, AX
	VPBROADCASTQ AX, Z24
	MOVQ         state+80(FP), AX
	ADDQ         R8, AX
	VPBROADCASTQ AX, Z0
	VPADDQ       Z0, Z25, Z25

pass:
	// K1 = the low min(BX, 8) lanes.
	MOVQ    $8, CX
	CMPQ    BX, CX
	CMOVQLT BX, CX
	MOVL    $1, AX
	SHLL    CX, AX
	DECL    AX
	KMOVW   AX, K1

	VPXORQ    Z1, Z1, Z1 // bits of the levels with u ≥ t0
	VPXORQ    Z2, Z2, Z2 // u ≥ t1: the row bits
	VPXORQ    Z5, Z5, Z5 // u ≥ t2
	VMOVDQA64 Z26, Z6    // the level's bit
	VMOVDQA64 Z25, Z0    // the level's states
	MOVQ      DX, CX
	TESTQ     CX, CX
	JZ        store

level:
	VPSRLQ   $30, Z0, Z3
	VPXORQ   Z0, Z3, Z3
	VPMULLQ  Z27, Z3, Z3
	VPSRLQ   $27, Z3, Z4
	VPXORQ   Z4, Z3, Z3
	VPMULLQ  Z28, Z3, Z3
	VPSRLQ   $31, Z3, Z4
	VPXORQ   Z4, Z3, Z3
	VPSRLQ   $11, Z3, Z3
	VPCMPUQ  $5, Z20, Z3, K2 // 5: not less than
	VPCMPUQ  $5, Z21, Z3, K3
	VPCMPUQ  $5, Z22, Z3, K4
	VPORQ    Z6, Z1, K2, Z1
	VPORQ    Z6, Z2, K3, Z2
	VPORQ    Z6, Z5, K4, Z5
	VPSRLQ   $1, Z6, Z6
	VPADDQ   Z23, Z0, Z0
	DECQ     CX
	JNZ      level

store:
	VPTERNLOGQ $0x96, Z5, Z2, Z1 // Z1 ^= Z2 ^ Z5: the column bits
	VPMOVQD    Z2, K1, (DI)
	VPMOVQD    Z1, K1, (SI)
	ADDQ       $32, DI
	ADDQ       $32, SI
	VPADDQ     Z24, Z25, Z25
	SUBQ       $8, BX
	JGT        pass

	VZEROUPPER
	RET

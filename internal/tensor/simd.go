package tensor

// Runtime SIMD dispatch. The kernels come in up to three forms — pure Go
// ("generic"), 256-bit AVX2 and 512-bit AVX-512 — selected once per call
// through an atomic level variable. The top rung adds four things. The GEMM
// register tile (gemm_amd64.s) runs on ZMM registers, 4×32 instead of 4×16.
// The aggregation row kernel (aggregate_amd64.s) holds up to 128 output
// columns in ZMM accumulators instead of 64 in YMM ones, so layer 0
// (f = 100 or 128) sweeps each destination's edge list once, and it
// prefetches the row eight edges ahead, past the end of the destination's
// own list. Where the CPU also has AVX512DQ, RNG.FillNormal draws eight
// Box–Muller variates per pass (normal_amd64.s) and RNG.FillRMAT eight RMAT
// attempts (rmat_amd64.s). Only those four use it; the exp and gather row
// kernels and the fused element-wise kernels keep their AVX2 form at that
// level (the exp and gather kernels measured equal at both widths). The
// CPU's capabilities are probed once at init (CPUID on amd64; see
// simd_amd64.go) and fix the ceiling: SetSIMDLevel can lower the active level
// (forcing the fallback paths for tests) but never raise it above what the
// hardware supports. The TENSOR_SIMD environment variable is the one way a
// program sets the level: init applies it at process start, clamped to the
// detected ceiling so a CI matrix can request "avx512" on any runner and get
// "as wide as available".
//
// Every level computes bit-identical results: every c += a·b is one fused
// multiply-add, rounded once — a VFMADD lane in the GEMM tile, the
// aggregation row and the row update, fmaProduct in the Go loops they stand
// in for (axpy.go) — and the kernels vectorise only across independent output
// elements, so no element's accumulation order changes. The exp under the
// loss fuses where math.Exp itself does (exp_amd64.s), and the other
// element-wise kernels reproduce their Go expressions operation by operation.
// The property tests in simd_test.go pin exact equality across all levels.

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// SIMDLevel identifies one rung of the dispatch ladder. Higher levels
// strictly extend lower ones; a level is usable only when the hardware
// supports it.
type SIMDLevel int32

const (
	// SIMDGeneric runs the pure-Go kernels everywhere (every CPU's floor).
	SIMDGeneric SIMDLevel = iota
	// SIMDAVX2 uses the 256-bit AVX2 kernels (amd64 with AVX2, FMA3 and OS
	// YMM state support).
	SIMDAVX2
	// SIMDAVX512 additionally runs the GEMM register tile and the
	// aggregation row kernel on 512-bit registers (amd64 with AVX512F + OS
	// opmask/ZMM state support), and the Box–Muller row and RMAT attempt
	// kernels where the CPU also has AVX512DQ.
	SIMDAVX512
)

// String returns the level's TENSOR_SIMD spelling.
func (l SIMDLevel) String() string {
	switch l {
	case SIMDGeneric:
		return "generic"
	case SIMDAVX2:
		return "avx2"
	case SIMDAVX512:
		return "avx512"
	}
	return fmt.Sprintf("SIMDLevel(%d)", int32(l))
}

// detectedSIMD is the hardware ceiling, fixed at init by the per-arch probe,
// and cpuDQ whether an AVX-512 CPU has the DQ subset, which only the
// Box–Muller row and RMAT attempt kernels use (RNG.FillNormal,
// RNG.FillRMAT).
var detectedSIMD, cpuDQ = detectSIMD()

// activeSIMD is the level the kernels dispatch on (atomic: hot paths read it
// lock-free while tests flip it).
var activeSIMD int32 = int32(detectedSIMD)

func init() {
	// A spelling ParseSIMDLevel rejects leaves the detected ceiling: init
	// cannot fail, so a program checks the variable itself (hyscale does,
	// before any work starts) and a test matrix runs TestEnvSIMDApplied.
	if l, err := ParseSIMDLevel(os.Getenv("TENSOR_SIMD")); err == nil {
		SetSIMDLevel(min(l, detectedSIMD)) // clamp: "as wide as available"
	}
}

// DetectedSIMDLevel reports the widest level this CPU supports.
func DetectedSIMDLevel() SIMDLevel { return detectedSIMD }

// ActiveSIMDLevel reports the level the kernels currently dispatch on.
func ActiveSIMDLevel() SIMDLevel { return SIMDLevel(atomic.LoadInt32(&activeSIMD)) }

// SetSIMDLevel sets the dispatch level and returns the previous one. Levels
// above the detected hardware ceiling are rejected — the caller asked for
// instructions this CPU cannot execute.
func SetSIMDLevel(l SIMDLevel) (SIMDLevel, error) {
	if l < SIMDGeneric || l > SIMDAVX512 {
		return ActiveSIMDLevel(), fmt.Errorf("tensor: unknown SIMD level %d", int32(l))
	}
	if l > detectedSIMD {
		return ActiveSIMDLevel(), fmt.Errorf("tensor: SIMD level %v not supported (CPU ceiling is %v)", l, detectedSIMD)
	}
	return SIMDLevel(atomic.SwapInt32(&activeSIMD, int32(l))), nil
}

// ParseSIMDLevel parses a level name as spelled in the TENSOR_SIMD
// environment variable. "auto" and "" mean the detected ceiling.
func ParseSIMDLevel(s string) (SIMDLevel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto", "":
		return detectedSIMD, nil
	case "generic":
		return SIMDGeneric, nil
	case "avx2":
		return SIMDAVX2, nil
	case "avx512":
		return SIMDAVX512, nil
	}
	return SIMDGeneric, fmt.Errorf("tensor: unknown SIMD level %q (want auto, generic, avx2 or avx512)", s)
}

// simdAtLeast reports whether the active level includes l — the dispatch
// predicate on every kernel's hot path (a plain load on amd64).
func simdAtLeast(l SIMDLevel) bool {
	return atomic.LoadInt32(&activeSIMD) >= int32(l)
}

package tensor

// Runtime SIMD dispatch. The kernels come in up to three forms — pure Go
// ("generic"), 256-bit AVX2 and 512-bit AVX-512 — selected once per call
// through an atomic level variable. The top rung adds one thing:
// the GEMM register tile (gemm_amd64.s) runs on ZMM registers, 4×32 instead
// of 4×16. Only the tile uses it — it is the one compute-bound kernel; the
// row kernels (exp, aggregation, gather) and the fused element-wise kernels
// keep their AVX2 form at that level (the row kernels measured equal at both
// widths). The CPU's capabilities are probed once at init
// (CPUID on amd64; see simd_amd64.go) and fix the ceiling: SetSIMDLevel can
// lower the active level (forcing the fallback paths for tests and the -simd
// flag) but never raise it above what the hardware supports. The TENSOR_SIMD
// environment variable applies the same override at process start, clamped to
// the detected ceiling so a CI matrix can request "avx512" on any runner and
// get "as wide as available".
//
// Every level computes bit-identical results: the vector kernels keep
// multiply and add unfused (VMULPS + VADDPS, never FMA — fusing rounds once
// where the scalar reference rounds twice) and vectorise only across
// independent output elements, so no element's accumulation order changes.
// The one kernel that fuses is the exp under the loss, which reproduces the
// FMAs math.Exp itself executes (exp_amd64.s).
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
	// SIMDAVX2 uses the 256-bit AVX2 kernels (amd64 with AVX2 + OS YMM
	// state support).
	SIMDAVX2
	// SIMDAVX512 additionally runs the GEMM register tile on 512-bit
	// registers (amd64 with AVX512F + OS opmask/ZMM state support).
	SIMDAVX512
)

// String returns the level's flag spelling ("generic", "avx2", "avx512").
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

// detectedSIMD is the hardware ceiling, fixed at init by the per-arch probe;
// cpuFMA says whether that CPU also fuses multiply-adds, which only the exp
// kernel uses (expRow in ops.go).
var detectedSIMD, cpuFMA = detectSIMD()

// activeSIMD is the level the kernels dispatch on (atomic: hot paths read it
// lock-free while tests and the CLI flip it).
var activeSIMD int32 = int32(detectedSIMD)

func init() {
	if env := os.Getenv("TENSOR_SIMD"); env != "" {
		if l, err := ParseSIMDLevel(env); err == nil {
			if l > detectedSIMD {
				l = detectedSIMD // clamp: "as wide as available"
			}
			atomic.StoreInt32(&activeSIMD, int32(l))
		}
		// Unknown values are ignored rather than fatal: a misspelled env var
		// must not take down training; the -simd flag is the checked path.
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

// ParseSIMDLevel parses a level name as spelled on the -simd flag and the
// TENSOR_SIMD environment variable. "auto" means the detected ceiling.
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

//go:build !amd64

package tensor

// Non-amd64 builds have no SIMD kernels: the ceiling is the pure-Go level
// and the stubs below are unreachable (haveAVX2Asm = false dead-codes every
// call site).
const haveAVX2Asm = false

func detectSIMD() (SIMDLevel, bool) { return SIMDGeneric, false }

func axpyRowAVX2Asm(dst, src []float32, alpha float32) {
	panic("tensor: axpyRowAVX2Asm without assembly support")
}

func gemmStripAVX2(c, a, b []float32, n, ars, aks, kc, rows, zero int) {
	panic("tensor: gemmStripAVX2 without assembly support")
}

func gemmStripAVX512(c, a, b []float32, n, ars, aks, kc, rows, zero int) {
	panic("tensor: gemmStripAVX512 without assembly support")
}

func scaleRowAVX2Asm(dst, src []float32, s float32) {
	panic("tensor: scaleRowAVX2Asm without assembly support")
}

func reluMaskAVX2Asm(mask []int32, act []float32, zero int) {
	panic("tensor: reluMaskAVX2Asm without assembly support")
}

func reluBackwardMaskAVX2Asm(dz []float32, mask []int32) {
	panic("tensor: reluBackwardMaskAVX2Asm without assembly support")
}

func addBiasReLUAVX2Asm(row, bias []float32) {
	panic("tensor: addBiasReLUAVX2Asm without assembly support")
}

func expRowFMAAsm(dst []float64, src []float32) bool {
	panic("tensor: expRowFMAAsm without assembly support")
}

func softmaxGradAVX2Asm(grad []float32, exps []float64, sum float64, inv float32) {
	panic("tensor: softmaxGradAVX2Asm without assembly support")
}

func aggregateRowAVX2Asm(out, h []float32, cols int, idx []int32, w []float32) {
	panic("tensor: aggregateRowAVX2Asm without assembly support")
}

func aggregateRowAVX512Asm(out, h []float32, cols int, idx []int32, w []float32) {
	panic("tensor: aggregateRowAVX512Asm without assembly support")
}

func gatherRowsAVX2Asm(dst, src []float32, cols int, idx []int32) {
	panic("tensor: gatherRowsAVX2Asm without assembly support")
}

func rowMaxAVX2Asm(src []float32) float32 {
	panic("tensor: rowMaxAVX2Asm without assembly support")
}

func subScalarAVX2Asm(dst, src []float32, s float32) {
	panic("tensor: subScalarAVX2Asm without assembly support")
}

func normalRowAVX512Asm(dst, mean []float32, std float64, state, step uint64) bool {
	panic("tensor: normalRowAVX512Asm without assembly support")
}

func rmatRowsAVX512Asm(src, dst []int32, levels int, t0, t1, t2, state uint64) {
	panic("tensor: rmatRowsAVX512Asm without assembly support")
}

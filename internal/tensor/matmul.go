// Dense matrix-multiply kernels. The three GEMM variants the GNN hot path
// needs (C = A·B for the dense update, C = A·Bᵀ for its input gradient,
// C = Aᵀ·B for the weight gradient) are one kernel: gemmRange, a row-parallel
// sweep of 4-row strips of C over chunks of the shared k dimension. What
// tells the variants apart is how A is addressed — element (i, t) lives at
// a[i·ars + t·aks], so MatMul passes strides (k, 1) and TMatMul (1, m) —
// and MatMulT packs Bᵀ once (a weight-sized transpose) to become a MatMul.
//
// From AVX2 up a strip is swept in register tiles (gemm_amd64.s): a block of
// four C rows stays in eight vector accumulators while a whole k-chunk
// streams past — one B row load and four A broadcasts per step — and touches
// memory once per chunk, the output-stationary order of the paper's update
// unit (§IV-C). The tile is one assembly body instantiated at the two widths
// the dispatch ladder detects: 4×16 on YMM registers at the avx2 level, 4×32
// on ZMM registers at avx512. Below AVX2, and off amd64, a strip is row
// updates through AxpyRow.
//
// Chunking keeps the streamed operands cache-resident while every strip of a
// worker's range sweeps them: MatMul consumes mmKC rows of B at a time,
// TMatMul tmKC rows of A and B. Between chunks the tile goes back to C (the
// first chunk starts it from zeroed registers, so C needs no clearing pass), so
// every kernel still accumulates each output element over k in ascending
// order starting from +0 — exactly the order of the reference triple loops
// kept test-side in oracle_test.go — and the results are bit-identical to
// them (float32 addition is not associative; preserving the order is what
// makes the exact-equality property tests possible and keeps every execution
// backend in the repository numerically in lock-step). SIMD lanes span the
// row (j) dimension, which never reorders a single element's accumulation,
// and multiply and add are never fused (see axpy.go).
//
// No level skips zeros of A. It would change nothing for finite B — an
// accumulator that starts at +0 can never become −0 under round-to-nearest,
// so adding a·b = ±0 leaves it as it was — and for a non-finite B element
// 0·b is NaN in the reference loops, so only the kernel that does not skip
// equals them on every input. Nor would a skip pay: at row granularity it
// measured 6–15 % on a half-zero post-ReLU A, against 2–4× from keeping the
// tile in registers, whose k loop has no room for a branch.
package tensor

import (
	"fmt"
	"sync"
)

// mmKC is MatMul's k-chunk: B rows are consumed mmKC at a time so the chunk
// (mmKC·n floats) stays L2-resident while every strip of the worker's range
// sweeps it, and a strip's four A rows (4·mmKC floats) stay in L1 across its
// column tiles.
const mmKC = 1024

// tmKC is TMatMul's k-chunk. Its A is walked down a column, a cache line per
// step of which one tile uses 16 bytes, so the chunk is sized for those lines
// (tmKC·64 bytes) to stay in L1 until the neighbouring strips have used the
// rest of them, next to an L2-resident tmKC·n slab of B.
const tmKC = 256

// packPool recycles MatMulT's Bᵀ scratch so steady-state callers (the
// zero-allocation training and serving loops) never allocate.
var packPool = sync.Pool{New: func() any { return new([]float32) }}

func getPack(n int) (*[]float32, []float32) {
	pp := packPool.Get().(*[]float32)
	if cap(*pp) < n {
		*pp = make([]float32, n)
	}
	return pp, (*pp)[:n]
}

// MatMul computes C = A·B. A is m×k, B is k×n, C is m×n. C must be
// pre-allocated; it is overwritten. The result is bit-identical to
// the reference triple loop for every input (see the package comment on
// ordering).
func MatMul(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shapes %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	gemm(c, a.Data, a.Cols, 1, b.Data, a.Cols, mmKC)
}

// MatMulT computes C = A·Bᵀ. A is m×k, B is n×k, C is m×n. B is transposed
// once into a pooled scratch panel (B is weight-sized on every call site —
// far smaller than the m×k·n work) and the shared kernel does the rest.
// Bit-identical to its reference triple loop: both accumulate each element
// over the shared dimension in ascending order.
func MatMulT(c, a, b *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT shapes %dx%d · (%dx%d)T -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	k, n := a.Cols, b.Rows
	pp, buf := getPack(k * n)
	for j := 0; j < n; j++ {
		brow := b.Data[j*k : (j+1)*k]
		for t, v := range brow {
			buf[t*n+j] = v
		}
	}
	gemm(c, a.Data, k, 1, buf, k, mmKC)
	packPool.Put(pp)
}

// TMatMul computes C = Aᵀ·B. A is R×m, B is R×n, C is m×n. Used for weight
// gradients (C = Xᵀ·dY), where R (the batch extent) dwarfs m and n. Each
// worker owns a contiguous range of C rows and streams A and B top to
// bottom once per chunk; C is at most weight-sized and is read and written
// once per chunk. Bit-identical to its reference triple loop: each element
// still accumulates over the shared (row) index in ascending order.
func TMatMul(c, a, b *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMatMul shapes (%dx%d)T · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	gemm(c, a.Data, 1, a.Cols, b.Data, a.Rows, tmKC)
}

// gemm computes C[i][j] = Σ_t a[i·ars + t·aks] · b[t·n + j] over t in [0, k),
// fanning C's rows out by the work a row costs (shapes already validated).
func gemm(c *Matrix, a []float32, ars, aks int, b []float32, k, chunk int) {
	// The row-range body is a named function and the closure literal sits on
	// the fan-out branch only: a kernel that runs on the caller (every one
	// the zero-allocation gates cover) never materialises a heap closure.
	work := k * c.Cols
	if FanOut(c.Rows, work) <= 1 {
		gemmRange(c, a, ars, aks, b, k, chunk, 0, c.Rows)
		return
	}
	ParallelRows(c.Rows, work, func(lo, hi int) { gemmRange(c, a, ars, aks, b, k, chunk, lo, hi) })
}

// gemmRange computes rows [lo, hi) of gemm's C. From AVX2 up nobody clears C:
// the first k-chunk's tiles start from zeroed registers and overwrite it, the
// later ones load what the chunk before stored. The portable strip accumulates
// into C at every chunk, so there — and for an empty k, which runs no chunk —
// the range is cleared first.
func gemmRange(c *Matrix, a []float32, ars, aks int, b []float32, k, chunk, lo, hi int) {
	n := c.Cols
	if n == 0 {
		return
	}
	level := ActiveSIMDLevel()
	if !haveAVX2Asm || level < SIMDAVX2 || k == 0 {
		clear(c.Data[lo*n : hi*n])
	}
	for k0 := 0; k0 < k; k0 += chunk {
		kc := min(chunk, k-k0)
		zero := 0
		if k0 == 0 {
			zero = 1
		}
		bk := b[k0*n : (k0+kc)*n]
		for i := lo; i < hi; i += 4 {
			rows := min(4, hi-i)
			gemmStrip(level, c.Data[i*n:(i+rows)*n], a[i*ars+k0*aks:], bk, n, ars, aks, kc, rows, zero)
		}
	}
}

// gemmStrip computes one k-chunk's share of a strip of rows ≤ 4 rows of C at
// the given dispatch level: c[r·n + j] += Σ_t a[r·ars + t·aks] · b[t·n + j]
// over t in [0, kc), where zero ≠ 0 (the tiled levels' first chunk) makes the
// += an = onto +0. c, a and b start at the strip's first row, the chunk's
// first k and column 0.
func gemmStrip(level SIMDLevel, c, a, b []float32, n, ars, aks, kc, rows, zero int) {
	if haveAVX2Asm {
		switch {
		case level >= SIMDAVX512:
			gemmStripAVX512(c, a, b, n, ars, aks, kc, rows, zero)
			return
		case level >= SIMDAVX2:
			gemmStripAVX2(c, a, b, n, ars, aks, kc, rows, zero)
			return
		}
	}
	for r := 0; r < rows; r++ {
		cr := c[r*n : r*n+n]
		for t := 0; t < kc; t++ {
			AxpyRow(cr, b[t*n:t*n+n], a[r*ars+t*aks])
		}
	}
}

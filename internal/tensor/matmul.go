// Dense matrix-multiply kernels. The three GEMM variants the GNN hot path
// needs (C = A·B for the dense update, C = A·Bᵀ for its input gradient,
// C = Aᵀ·B for the weight gradient) are one kernel: gemmRange, a row-parallel
// sweep of 4-row strips of C over chunks of the shared k dimension. What
// tells the variants apart is how A is addressed — element (i, t) lives at
// a[i·ars + t·aks], so MatMul passes strides (k, 1) and TMatMul (1, m) —
// and MatMulT packs Bᵀ once (a weight-sized transpose) to become a MatMul.
// MatMulCat and TMatMulCat are MatMul and TMatMul over a left operand
// [A1′ | A2] they never form — GraphSAGE's [self ‖ mean] — each half one
// run of the same kernel.
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
// backend in the repository numerically in lock-step). A chunk boundary is
// exact wherever it falls — the tile is float32 in registers and float32 in
// C — which is what lets MatMulCat and TMatMulCat read a left operand in two
// pieces: each piece is one more chunk. SIMD lanes span the
// row (j) dimension, which never reorders a single element's accumulation,
// and each step is one fused multiply-add at every level, the reference
// loops' included (fmaProduct, axpy.go).
//
// No level skips zeros of A. Adding a·b = ±0 leaves a nonzero accumulator
// as it was, but not a −0 one — which a fused step can produce from +0, when
// a negative product too small for float32 rounds to −0 in one go — and for
// a non-finite B element 0·b is NaN in the reference loops, so only the
// kernel that does not skip equals them on every input. Nor would a skip
// pay: at row granularity it measured 6–15 % on a half-zero post-ReLU A,
// against 2–4× from keeping the tile in registers, whose k loop has no room
// for a branch.
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
	gemm(c.Data, c.Rows, c.Cols, a.Data, a.Cols, 1, b.Data, a.Cols, mmKC, false)
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
	gemm(c.Data, c.Rows, n, a.Data, k, 1, buf, k, mmKC, false)
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
	gemm(c.Data, c.Rows, c.Cols, a.Data, 1, a.Cols, b.Data, a.Rows, tmKC, false)
}

// catPanel is the rows of A1′ a MatMulCat worker stages at a time when
// rows1 maps them: a 32-row panel (at most 32 KiB at f = 256) is filled by
// the gather kernel, which prefetches eight rows ahead, and stays in L1 while
// the block's eight strips read it. Copying a strip's four rows at a time
// leaves each row's cache misses exposed.
const catPanel = 32

// catRound is the rows of A1′ TMatMulCat gathers per round when rows1 maps
// them: two of its tmKC chunks, so a round is where a chunk boundary already
// was, and a panel of at most 512 KiB (f = 256) whatever the batch.
const catRound = 2 * tmKC

// MatMulCat computes C = [A1′ | A2]·B without forming the concatenation: A1′
// is rows rows1 of A1 (rows1 nil: A1's first m rows), A2 is m×k2, B is
// (k1+k2)×n and C is m×n, overwritten. Each strip of C runs the A1′ columns
// as one k-chunk and the A2 columns as the next, so the result is bit-identical
// to MatMul over the materialised [A1′ | A2] (see the package comment on
// chunk boundaries). Mapped rows are staged catPanel at a time in a
// worker-private panel; unmapped ones are read where they live.
func MatMulCat(c, a1 *Matrix, rows1 []int32, a2, b *Matrix) {
	m, k1, k2 := c.Rows, a1.Cols, a2.Cols
	if b.Rows != k1+k2 || c.Cols != b.Cols || a2.Rows != m || !catRowsFit(a1, rows1, m) {
		panic(fmt.Sprintf("tensor: MatMulCat shapes [%dx%d (%d mapped) | %dx%d] · %dx%d -> %dx%d",
			a1.Rows, k1, len(rows1), a2.Rows, k2, b.Rows, b.Cols, m, c.Cols))
	}
	work := (k1 + k2) * c.Cols
	if FanOut(m, work) <= 1 {
		matMulCatRange(c, a1, rows1, a2, b, 0, m)
		return
	}
	ParallelRows(m, work, func(lo, hi int) { matMulCatRange(c, a1, rows1, a2, b, lo, hi) })
}

// catRowsFit reports whether A1′ has m rows: rows1 has one per row, or A1
// (unmapped) has at least m.
func catRowsFit(a1 *Matrix, rows1 []int32, m int) bool {
	if rows1 == nil {
		return a1.Rows >= m
	}
	return len(rows1) == m
}

// matMulCatRange computes rows [lo, hi) of MatMulCat's C, a block of catPanel
// rows at a time: the A1′ half starts the block's tiles from +0, the A2 half
// adds onto them.
func matMulCatRange(c, a1 *Matrix, rows1 []int32, a2, b *Matrix, lo, hi int) {
	n, k1, k2 := c.Cols, a1.Cols, a2.Cols
	if n == 0 || lo >= hi {
		return
	}
	var pp *[]float32
	var panel []float32
	if rows1 != nil {
		pp, panel = getPack(min(catPanel, hi-lo) * k1)
	}
	bSelf, bMean := b.Data[:k1*n], b.Data[k1*n:]
	for i := lo; i < hi; i += catPanel {
		r := min(catPanel, hi-i)
		ci := c.Data[i*n : (i+r)*n]
		var self []float32
		if rows1 != nil {
			self = panel[:r*k1]
			gatherRange(self, a1, rows1[i:i+r], 0, r)
		} else {
			self = a1.Data[i*k1:]
		}
		gemmRange(ci, n, self, k1, 1, bSelf, k1, mmKC, false, 0, r)
		gemmRange(ci, n, a2.Data[i*k2:], k2, 1, bMean, k2, mmKC, true, 0, r)
	}
	if pp != nil {
		packPool.Put(pp)
	}
}

// TMatMulCat computes C = [A1′ | A2]ᵀ·B without forming the concatenation:
// A1′ is rows rows1 of A1 (rows1 nil: A1's first R rows), A2 is R×k2, B is
// R×n and C is (k1+k2)×n, overwritten. Row r of C reads only column r of the
// left operand, so C's first k1 rows are A1′ᵀ·B and the rest A2ᵀ·B, each a
// TMatMul bit for bit. Mapped rows are gathered catRound at a time, and each
// round's product is added onto the one before.
func TMatMulCat(c, a1 *Matrix, rows1 []int32, a2, b *Matrix) {
	R, n, k1, k2 := b.Rows, b.Cols, a1.Cols, a2.Cols
	if c.Rows != k1+k2 || c.Cols != n || a2.Rows != R || !catRowsFit(a1, rows1, R) {
		panic(fmt.Sprintf("tensor: TMatMulCat shapes [%dx%d (%d mapped) | %dx%d]T · %dx%d -> %dx%d",
			a1.Rows, k1, len(rows1), a2.Rows, k2, b.Rows, n, c.Rows, c.Cols))
	}
	top := c.Data[:k1*n]
	gemm(c.Data[k1*n:(k1+k2)*n], k2, n, a2.Data, 1, k2, b.Data, R, tmKC, false)
	if rows1 == nil || R == 0 { // an empty batch gathers no round; this clears C's top rows
		gemm(top, k1, n, a1.Data, 1, k1, b.Data, R, tmKC, false)
		return
	}
	pp, panel := getPack(min(catRound, R) * k1)
	for r0 := 0; r0 < R; r0 += catRound {
		rr := min(catRound, R-r0)
		gatherRows(panel[:rr*k1], a1, rows1[r0:r0+rr])
		gemm(top, k1, n, panel, 1, k1, b.Data[r0*n:(r0+rr)*n], rr, tmKC, r0 > 0)
	}
	packPool.Put(pp)
}

// gemm computes C[i][j] = Σ_t a[i·ars + t·aks] · b[t·n + j] over t in [0, k)
// for the m×n C at c — added onto what C holds when acc is set — fanning C's
// rows out by the work a row costs (shapes already validated). It takes
// slices, not matrix headers, so a caller's header for part of a matrix never
// escapes into the fan-out closure.
func gemm(c []float32, m, n int, a []float32, ars, aks int, b []float32, k, chunk int, acc bool) {
	// The row-range body is a named function and the closure literal sits on
	// the fan-out branch only: a kernel that runs on the caller (every one
	// the zero-allocation gates cover) never materialises a heap closure.
	work := k * n
	if FanOut(m, work) <= 1 {
		gemmRange(c, n, a, ars, aks, b, k, chunk, acc, 0, m)
		return
	}
	ParallelRows(m, work, func(lo, hi int) { gemmRange(c, n, a, ars, aks, b, k, chunk, acc, lo, hi) })
}

// gemmRange computes rows [lo, hi) of gemm's C (n columns). From AVX2 up
// nobody clears C: the first k-chunk's tiles start from zeroed registers and
// overwrite it, the later ones load what the chunk before stored. The
// portable strip accumulates into C at every chunk, so there — and for an
// empty k, which runs no chunk — the range is cleared first. With acc every
// chunk loads, at every level, and nothing is cleared.
func gemmRange(c []float32, n int, a []float32, ars, aks int, b []float32, k, chunk int, acc bool, lo, hi int) {
	if n == 0 {
		return
	}
	level := ActiveSIMDLevel()
	if !acc && (!haveAVX2Asm || level < SIMDAVX2 || k == 0) {
		clear(c[lo*n : hi*n])
	}
	for k0 := 0; k0 < k; k0 += chunk {
		kc := min(chunk, k-k0)
		zero := 0
		if k0 == 0 && !acc {
			zero = 1
		}
		bk := b[k0*n : (k0+kc)*n]
		for i := lo; i < hi; i += 4 {
			rows := min(4, hi-i)
			gemmStrip(level, c[i*n:(i+rows)*n], a[i*ars+k0*aks:], bk, n, ars, aks, kc, rows, zero)
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

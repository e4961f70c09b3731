// Dense matrix-multiply kernels. The three GEMM variants the GNN hot path
// needs (C = A·B for the dense update, C = A·Bᵀ for its input gradient,
// C = Aᵀ·B for the weight gradient) are one kernel: gemmRange, a row-parallel
// sweep of 6-row strips of C over chunks of the shared k dimension. What
// tells the variants apart is how A is addressed — element (i, t) lives at
// a[i·ars + t·aks], so MatMul passes strides (k, 1) and TMatMul (1, m) —
// and MatMulT transposes B once (a weight-sized copy) to become a MatMul.
// MatMulCat and TMatMulCat are MatMul and TMatMul over a left operand
// [A1′ | A2] they never form — GraphSAGE's [self ‖ mean] — each half one
// run of the same kernel.
//
// From AVX2 up a strip is swept in register tiles (gemm_amd64.s): a block of
// six C rows stays in twelve vector accumulators while a whole k-chunk
// streams past — one B row load and six A broadcasts per step — and touches
// memory once per chunk, the output-stationary order of the paper's update
// unit (§IV-C). The tile is one assembly body instantiated at the two widths
// the dispatch ladder detects: 6×16 on YMM registers at the avx2 level, 6×32
// on ZMM registers at avx512. Below AVX2, and off amd64, a strip is row
// updates through AxpyRow.
//
// A weight operand read by a long range of rows (MatMul, MatMulCat, MatMulT
// past packMinRows rows, n > gemmPanel) is first laid out as contiguous
// panels gemmPanel columns wide (Goto & van de Geijn's packed micro-panel,
// ACM TOMS 34(3), 2008), and a block of gemmBlock rows sweeps one panel at a
// time, so the tiles read B from L1 instead of at stride n. Packing moves
// where B is stored, not the order of any sum.
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
// sweeps it, and a strip's six A rows (6·mmKC floats) stay in L1 across its
// column tiles.
const mmKC = 1024

// tmKC is TMatMul's k-chunk. Its A is walked down a column, a cache line per
// step of which one tile uses 24 bytes, so the chunk is sized for those lines
// (tmKC·64 bytes) to stay in L1 until the neighbouring strips have used the
// rest of them, next to an L2-resident tmKC·n slab of B.
const tmKC = 256

// packPool recycles the GEMMs' scratch — MatMulT's Bᵀ, a range's packed
// panels, MatMulCat's staged rows — so steady-state callers (the
// zero-allocation training and serving loops) never allocate. A call takes
// at most one buffer per worker.
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
	gemm(c.Data, c.Rows, c.Cols, a.Data, a.Cols, 1, b.Data, c.Cols, a.Cols, mmKC, false)
}

// MatMulT computes C = A·Bᵀ. A is m×k, B is n×k, C is m×n. B is transposed
// once into a pooled scratch (B is weight-sized on every call site — far
// smaller than the m×k·n work), straight into packed panels where packing
// pays (packs), and the shared kernel does the rest. Bit-identical to its
// reference triple loop: both accumulate each element over the shared
// dimension in ascending order.
func MatMulT(c, a, b *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT shapes %dx%d · (%dx%d)T -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	k, n := a.Cols, b.Rows
	pw := n
	if packs(n, c.Rows) {
		pw = gemmPanel
	}
	pp, buf := getPack(k * n)
	for j := 0; j < n; j++ {
		// Column j of Bᵀ is column j−j0 of the panel that starts at column j0.
		j0 := j - j%pw
		at, w := j0*k+j-j0, min(pw, n-j0)
		for t, v := range b.Data[j*k : (j+1)*k] {
			buf[at+t*w] = v
		}
	}
	gemm(c.Data, c.Rows, n, a.Data, k, 1, buf, pw, k, mmKC, false)
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
	gemm(c.Data, c.Rows, c.Cols, a.Data, 1, a.Cols, b.Data, c.Cols, a.Rows, tmKC, false)
}

// catPanel is the rows of A1′ a MatMulCat worker stages at a time when
// rows1 maps them, and the block of rows both halves run before the next
// block: a whole number of strips, and one packed sweep's block (gemmBlock).
// The panel (at most 48 KiB at f = 256) is filled by the gather kernel, which
// prefetches eight rows ahead, and stays in L1 while the block's eight strips
// read it. Copying a strip's rows at a time leaves each row's cache misses
// exposed.
const catPanel = gemmBlock

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
	strips, work := (m+gemmRows-1)/gemmRows, gemmRows*(k1+k2)*c.Cols
	if FanOut(strips, work) <= 1 {
		matMulCatRange(c, a1, rows1, a2, b, 0, m)
		return
	}
	ParallelRows(strips, work, func(lo, hi int) {
		matMulCatRange(c, a1, rows1, a2, b, lo*gemmRows, min(hi*gemmRows, m))
	})
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
// adds onto them. Where packing pays (packs) each half of B is packed once
// for the range. Staged rows and packed halves share one scratch.
func matMulCatRange(c, a1 *Matrix, rows1 []int32, a2, b *Matrix, lo, hi int) {
	n, k1, k2 := c.Cols, a1.Cols, a2.Cols
	if n == 0 || lo >= hi {
		return
	}
	staged, pw := 0, n
	if rows1 != nil {
		staged = min(catPanel, hi-lo) * k1
	}
	packed := packs(n, hi-lo)
	scratch := staged
	if packed {
		pw = gemmPanel
		scratch += (k1 + k2) * n
	}
	var pp *[]float32
	var buf []float32
	if scratch > 0 {
		pp, buf = getPack(scratch)
	}
	bSelf, bMean := b.Data[:k1*n], b.Data[k1*n:]
	if packed {
		bp := buf[staged:]
		packPanels(bp[:k1*n], bSelf, k1, n)
		packPanels(bp[k1*n:], bMean, k2, n)
		bSelf, bMean = bp[:k1*n], bp[k1*n:]
	}
	for i := lo; i < hi; i += catPanel {
		r := min(catPanel, hi-i)
		ci := c.Data[i*n : (i+r)*n]
		var self []float32
		if rows1 != nil {
			self = buf[:r*k1]
			gatherRange(self, a1, rows1[i:i+r], 0, r)
		} else {
			self = a1.Data[i*k1:]
		}
		gemmPanels(ci, n, self, k1, 1, bSelf, pw, k1, mmKC, false, 0, r)
		gemmPanels(ci, n, a2.Data[i*k2:], k2, 1, bMean, pw, k2, mmKC, true, 0, r)
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
	gemm(c.Data[k1*n:(k1+k2)*n], k2, n, a2.Data, 1, k2, b.Data, n, R, tmKC, false)
	if rows1 == nil || R == 0 { // an empty batch gathers no round; this clears C's top rows
		gemm(top, k1, n, a1.Data, 1, k1, b.Data, n, R, tmKC, false)
		return
	}
	pp, panel := getPack(min(catRound, R) * k1)
	for r0 := 0; r0 < R; r0 += catRound {
		rr := min(catRound, R-r0)
		gatherRows(panel[:rr*k1], a1, rows1[r0:r0+rr])
		gemm(top, k1, n, panel, 1, k1, b.Data[r0*n:(r0+rr)*n], n, rr, tmKC, r0 > 0)
	}
	packPool.Put(pp)
}

// gemm computes C[i][j] = Σ_t a[i·ars + t·aks] · b(t, j) over t in [0, k)
// for the m×n C at c — added onto what C holds when acc is set — fanning C's
// rows out by the work a row costs (shapes already validated), in whole
// strips, so only the last range ends in a short one. b holds B in panels pw
// columns wide (gemmPanels); pw = n is B row-major. It takes slices, not
// matrix headers, so a caller's header for part of a matrix never escapes
// into the fan-out closure.
func gemm(c []float32, m, n int, a []float32, ars, aks int, b []float32, pw, k, chunk int, acc bool) {
	// The row-range body is a named function and the closure literal sits on
	// the fan-out branch only: a kernel that runs on the caller (every one
	// the zero-allocation gates cover) never materialises a heap closure.
	strips, work := (m+gemmRows-1)/gemmRows, gemmRows*k*n
	if FanOut(strips, work) <= 1 {
		gemmRange(c, n, a, ars, aks, b, pw, k, chunk, acc, 0, m)
		return
	}
	ParallelRows(strips, work, func(lo, hi int) {
		gemmRange(c, n, a, ars, aks, b, pw, k, chunk, acc, lo*gemmRows, min(hi*gemmRows, m))
	})
}

// gemmRows is the height of the register tile (gemm_amd64.s) and of the
// portable strip: C is swept gemmRows rows at a time.
const gemmRows = 6

// gemmPanel is the width of a packed panel of B: one 32-wide AVX-512 tile,
// two 16-wide AVX2 ones.
const gemmPanel = 32

// packMinRows is the least row range over which packing a row-major B
// (packPanels) pays for the copy, and gemmBlock the rows of C swept under
// one panel before the next panel is taken. Read at stride n, a tile's B rows
// map onto few L1 sets (at n = 256 a 1 KiB stride uses 8 of 64), so every B
// row comes from L2; packed, a panel is contiguous (12.8 KB at k = 100) and
// stays in L1 while the block's eight strips read it, next to the block's A
// rows (48·k floats). Below packMinRows rows, or at n ≤ gemmPanel, where B
// already is one panel, the copy costs more than it saves (README, "Six-row
// tile and packed panels").
const (
	packMinRows = 1024
	gemmBlock   = 48
)

// packs reports whether a product over rows rows of C with an n-column
// weight operand runs on packed panels of it.
func packs(n, rows int) bool { return n > gemmPanel && rows >= packMinRows }

// packPanels lays the k×n row-major b out in dst (k·n floats) as ⌈n/gemmPanel⌉
// panels, each its columns' k rows back to back: the panel of columns
// [j0, j0+w), w = min(gemmPanel, n−j0), starts at dst[j0·k] and holds row t
// at dst[j0·k + t·w:][:w].
func packPanels(dst, b []float32, k, n int) {
	for j0 := 0; j0 < n; j0 += gemmPanel {
		w := min(gemmPanel, n-j0)
		panel := dst[j0*k : j0*k+k*w]
		for t := 0; t < k; t++ {
			copy(panel[t*w:t*w+w], b[t*n+j0:t*n+j0+w])
		}
	}
}

// gemmRange computes rows [lo, hi) of gemm's C (n columns). A row-major B
// (pw = n) under MatMul's addressing (aks = 1) is first packed into the
// worker's own scratch when the range is worth it (packs). TMatMul's B, the
// streamed gradient, is read once per chunk and never packed.
func gemmRange(c []float32, n int, a []float32, ars, aks int, b []float32, pw, k, chunk int, acc bool, lo, hi int) {
	if pw < n || aks != 1 || !packs(n, hi-lo) {
		gemmPanels(c, n, a, ars, aks, b, pw, k, chunk, acc, lo, hi)
		return
	}
	pp, bp := getPack(k * n)
	packPanels(bp, b, k, n)
	gemmPanels(c, n, a, ars, aks, bp, gemmPanel, k, chunk, acc, lo, hi)
	packPool.Put(pp)
}

// gemmPanels computes rows [lo, hi) of gemm's C from B in panels pw columns
// wide (packPanels' layout; pw ≥ n is one panel, B row-major). Packed, the
// rows go a block of gemmBlock at a time, and each panel in turn is swept by
// all of the block's strips; row-major, each strip sweeps all n columns.
// From AVX2 up nobody clears C: the first k-chunk's tiles start from zeroed
// registers and overwrite it, the later ones load what the chunk before
// stored. The portable strip accumulates into C at every chunk, so there —
// and for an empty k, which runs no chunk — the range is cleared first. With
// acc every chunk loads, at every level, and nothing is cleared.
func gemmPanels(c []float32, n int, a []float32, ars, aks int, b []float32, pw, k, chunk int, acc bool, lo, hi int) {
	if n == 0 || lo >= hi {
		return
	}
	level := ActiveSIMDLevel()
	if !acc && (!haveAVX2Asm || level < SIMDAVX2 || k == 0) {
		clear(c[lo*n : hi*n])
	}
	block := gemmBlock
	if pw >= n {
		block, pw = hi-lo, n
	}
	for k0 := 0; k0 < k; k0 += chunk {
		kc := min(chunk, k-k0)
		zero := 0
		if k0 == 0 && !acc {
			zero = 1
		}
		for i := lo; i < hi; i += block {
			rows := min(block, hi-i)
			for j0 := 0; j0 < n; j0 += pw {
				w := min(pw, n-j0)
				gemmStrips(level, c[i*n+j0:], a[i*ars+k0*aks:], b[j0*k+k0*w:], n, w, w, ars, aks, kc, rows, zero)
			}
		}
	}
}

// gemmStrips computes one k-chunk's share of rows rows and w columns of C at
// the given dispatch level, gemmRows rows at a time: c[r·n + j] +=
// Σ_t a[r·ars + t·aks] · b[t·ldb + j] over t in [0, kc) and j in [0, w),
// where zero ≠ 0 (the tiled levels' first chunk) makes the += an = onto +0.
// c, a and b start at the first row and column and the chunk's first k.
func gemmStrips(level SIMDLevel, c, a, b []float32, n, ldb, w, ars, aks, kc, rows, zero int) {
	if haveAVX2Asm {
		switch {
		case level >= SIMDAVX512:
			gemmStripsAVX512(c, a, b, n, ldb, w, ars, aks, kc, rows, zero)
			return
		case level >= SIMDAVX2:
			gemmStripsAVX2(c, a, b, n, ldb, w, ars, aks, kc, rows, zero)
			return
		}
	}
	for r := 0; r < rows; r++ {
		cr := c[r*n : r*n+w]
		for t := 0; t < kc; t++ {
			AxpyRow(cr, b[t*ldb:t*ldb+w], a[r*ars+t*aks])
		}
	}
}

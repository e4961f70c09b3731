// Dense matrix-multiply kernels. The three GEMM variants the GNN hot path
// needs (C = A·B for the dense update, C = A·Bᵀ for its input gradient,
// C = Aᵀ·B for the weight gradient) share one cache-blocked core: a
// row-parallel sweep of 4-row register tiles whose inner loop is the SIMD
// row update axpyRow4 (one load of a B row feeds four C rows), with the
// shared k dimension processed in L2-sized chunks so B stays cache-resident
// and C rows stay in L1 across the sweep. MatMulT packs Bᵀ once (a
// weight-sized transpose) and reuses the same core; the pre-blocking kernel
// re-read all of B once per output row.
//
// Every kernel accumulates each output element over k in ascending order
// starting from zero — exactly the order of the reference triple loops kept
// test-side in oracle_test.go — so the blocked results are bit-identical to
// them (float32 addition is not associative; preserving the order is what
// makes the exact-equality property tests possible and keeps every
// execution backend in the repository numerically in lock-step with the
// pre-blocking kernels). The SIMD lanes span the row (j) dimension, which
// never reorders a single element's accumulation.
package tensor

import (
	"fmt"
	"sync"
)

// mmKC is the k-chunk: B rows are consumed mmKC at a time so the chunk
// (mmKC·n floats) stays L2-resident while every 4-row tile of the worker's
// range sweeps it. C accumulates in memory across chunks, which keeps the
// per-element k order intact.
const mmKC = 1024

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
	matMulCore(c, a, b)
}

// matMulCore runs the blocked C = A·B sweep (shapes already validated).
//
// Sparsity: the pre-blocking kernel skipped zero elements of A with a
// per-element branch, which pessimized dense inputs — the branch mispredicts
// on ~50%-zero ReLU activations and costs more than the multiply it saves.
// The blocked structure moves that decision to row-update granularity: one
// predictable compare per (4-row, B-row) tile step, amortized over the full
// row width, taking the fused 4-row SIMD update when all four A values are
// live (the overwhelmingly common dense case) and skipping or issuing
// single-row updates otherwise. Dense inputs pay ~1 compare per 2n flops;
// genuinely sparse inputs still skip their zero rows.
func matMulCore(c, a, b *Matrix) {
	if b.Rows == 0 {
		c.Zero()
		return
	}
	// The row-range body is a named function and the closure literal sits on
	// the fan-out branch only: a kernel that runs on the caller (every one
	// the zero-allocation gates cover) never materialises a heap closure.
	work := b.Rows * b.Cols
	if FanOut(a.Rows, work) <= 1 {
		matMulRange(c, a, b, 0, a.Rows)
		return
	}
	ParallelRows(a.Rows, work, func(lo, hi int) { matMulRange(c, a, b, lo, hi) })
}

// matMulRange computes rows [lo, hi) of C = A·B.
func matMulRange(c, a, b *Matrix, lo, hi int) {
	k, n := b.Rows, b.Cols
	for i := lo; i < hi; i++ {
		ci := c.Data[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
	}
	for kk0 := 0; kk0 < k; kk0 += mmKC {
		kc := k - kk0
		if kc > mmKC {
			kc = mmKC
		}
		i := lo
		for ; i+4 <= hi; i += 4 {
			c0 := c.Data[i*n : i*n+n]
			c1 := c.Data[(i+1)*n : (i+2)*n][:n]
			c2 := c.Data[(i+2)*n : (i+3)*n][:n]
			c3 := c.Data[(i+3)*n : (i+4)*n][:n]
			a0 := a.Data[i*k+kk0 : i*k+kk0+kc]
			a1 := a.Data[(i+1)*k+kk0 : (i+1)*k+kk0+kc][:kc]
			a2 := a.Data[(i+2)*k+kk0 : (i+2)*k+kk0+kc][:kc]
			a3 := a.Data[(i+3)*k+kk0 : (i+3)*k+kk0+kc][:kc]
			for t := 0; t < kc; t++ {
				brow := b.Data[(kk0+t)*n : (kk0+t)*n+n]
				av0, av1, av2, av3 := a0[t], a1[t], a2[t], a3[t]
				if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
					axpyRow4(c0, c1, c2, c3, brow, av0, av1, av2, av3)
					continue
				}
				if av0 != 0 {
					AxpyRow(c0, brow, av0)
				}
				if av1 != 0 {
					AxpyRow(c1, brow, av1)
				}
				if av2 != 0 {
					AxpyRow(c2, brow, av2)
				}
				if av3 != 0 {
					AxpyRow(c3, brow, av3)
				}
			}
		}
		for ; i < hi; i++ {
			ci := c.Data[i*n : i*n+n]
			ai := a.Data[i*k+kk0 : i*k+kk0+kc]
			for t, av := range ai {
				if av == 0 {
					continue
				}
				AxpyRow(ci, b.Data[(kk0+t)*n:(kk0+t)*n+n], av)
			}
		}
	}
}

// MatMulT computes C = A·Bᵀ. A is m×k, B is n×k, C is m×n. B is transposed
// once into a pooled scratch panel (B is weight-sized on every call site —
// far smaller than the m×k·n work) and the blocked core does the rest.
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
	// Below the fan-out grain the range kernel is called directly with a
	// stack-scoped header; only the fan-out branch builds a header that
	// escapes into the worker closure.
	if FanOut(a.Rows, k*n) <= 1 {
		bt := Matrix{Rows: k, Cols: n, Data: buf}
		matMulRange(c, a, &bt, 0, a.Rows)
	} else {
		matMulCore(c, a, &Matrix{Rows: k, Cols: n, Data: buf})
	}
	packPool.Put(pp)
}

// TMatMul computes C = Aᵀ·B. A is R×m, B is R×n, C is m×n. Used for weight
// gradients (C = Xᵀ·dY), where R (the batch extent) dwarfs m and n. Each
// worker owns a contiguous range of C rows — which stay cache-resident, C
// being at most weight-sized — and streams A and B top to bottom exactly
// once, four C rows per loaded B row. The pre-blocking kernel instead
// re-read all of A and B for every C row. Bit-identical to its reference
// triple loop: each element still accumulates over the shared (row) index in
// ascending order.
// A here is a post-ReLU activation matrix on the training path, so the
// row-granular zero skip (see matMulCore) pays off.
func TMatMul(c, a, b *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMatMul shapes (%dx%d)T · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	work := a.Rows * b.Cols
	if FanOut(c.Rows, work) <= 1 {
		tMatMulRange(c, a, b, 0, c.Rows)
		return
	}
	ParallelRows(c.Rows, work, func(lo, hi int) { tMatMulRange(c, a, b, lo, hi) })
}

// tMatMulRange computes rows [lo, hi) of C = Aᵀ·B.
func tMatMulRange(c, a, b *Matrix, lo, hi int) {
	m, n, rows := a.Cols, b.Cols, a.Rows
	for i := lo; i < hi; i++ {
		ci := c.Data[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
	}
	for kk := 0; kk < rows; kk++ {
		arow := a.Data[kk*m+lo : kk*m+hi]
		brow := b.Data[kk*n : kk*n+n]
		i := 0
		for ; i+4 <= len(arow); i += 4 {
			av0, av1, av2, av3 := arow[i], arow[i+1], arow[i+2], arow[i+3]
			base := (lo + i) * n
			if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
				axpyRow4(c.Data[base:base+n], c.Data[base+n:base+2*n],
					c.Data[base+2*n:base+3*n], c.Data[base+3*n:base+4*n],
					brow, av0, av1, av2, av3)
				continue
			}
			if av0 != 0 {
				AxpyRow(c.Data[base:base+n], brow, av0)
			}
			if av1 != 0 {
				AxpyRow(c.Data[base+n:base+2*n], brow, av1)
			}
			if av2 != 0 {
				AxpyRow(c.Data[base+2*n:base+3*n], brow, av2)
			}
			if av3 != 0 {
				AxpyRow(c.Data[base+3*n:base+4*n], brow, av3)
			}
		}
		for ; i < len(arow); i++ {
			if av := arow[i]; av != 0 {
				AxpyRow(c.Data[(lo+i)*n:(lo+i+1)*n], brow, av)
			}
		}
	}
}

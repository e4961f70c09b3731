// The pre-blocking triple loops and the single-threaded gather: the
// correctness oracles the exact-equality property tests pin the shipped
// kernels against. They live test-side because no shipped code calls them.
package tensor

import (
	"fmt"
	"math"
)

// reluMaskOracle is ReLU as it stood while the forward pass stored a backward
// mask: it clamps m in place and returns 1 where the input was positive, else
// 0 — the factor ReLUBackward now reads off the clamped output.
func reluMaskOracle(m *Matrix) *Matrix {
	mask := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v > 0 {
			mask.Data[i] = 1
		} else {
			m.Data[i] = 0
		}
	}
	return mask
}

// MatMulRef is the reference C = A·B: the naive (i, k, j) triple loop with
// no blocking, no SIMD and no sparsity skip. Each step of every reference
// product is the scalar fused step fma32, as in the shipped kernels.
func MatMulRef(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulRef shapes %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	n := b.Cols
	ParallelRows(a.Rows, a.Cols*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c.Data[i*n : (i+1)*n]
			for j := range ci {
				ci[j] = 0
			}
			ai := a.Data[i*a.Cols : (i+1)*a.Cols]
			for kk, av := range ai {
				bk := b.Data[kk*n : (kk+1)*n]
				for j, bv := range bk {
					ci[j] = fma32(av, bv, ci[j])
				}
			}
		}
	})
}

// MatMulTRef is the reference C = A·Bᵀ: one inner product per element.
func MatMulTRef(c, a, b *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTRef shapes %dx%d · (%dx%d)T -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	k := a.Cols
	ParallelRows(a.Rows, k*b.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.Data[i*k : (i+1)*k]
			ci := c.Data[i*c.Cols : (i+1)*c.Cols]
			for j := 0; j < b.Rows; j++ {
				bj := b.Data[j*k : (j+1)*k]
				var sum float32
				for t, av := range ai {
					sum = fma32(av, bj[t], sum)
				}
				ci[j] = sum
			}
		}
	})
}

// TMatMulRef is the reference C = Aᵀ·B: per C row, a full sweep of A's
// column and all of B.
func TMatMulRef(c, a, b *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMatMulRef shapes (%dx%d)T · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	n := b.Cols
	ParallelRows(c.Rows, a.Rows*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c.Data[i*n : (i+1)*n]
			for j := range ci {
				ci[j] = 0
			}
			for kk := 0; kk < a.Rows; kk++ {
				av := a.Data[kk*a.Cols+i]
				bk := b.Data[kk*n : (kk+1)*n]
				for j, bv := range bk {
					ci[j] = fma32(av, bv, ci[j])
				}
			}
		}
	})
}

// Transpose returns Aᵀ as a new matrix.
func Transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	return out
}

// GatherRowsSerial is the single-threaded reference gather — a plain loop of
// row copies, the oracle the parallel GatherRows and its index-driven kernel
// are pinned against bitwise. Destination rows are disjoint, so the worker
// split cannot change a bit; the regression test keeps that true as the
// kernel evolves.
func GatherRowsSerial(dst, src *Matrix, idx []int32) {
	if dst.Rows != len(idx) || dst.Cols != src.Cols {
		panic("tensor: GatherRowsSerial shape mismatch")
	}
	for i, s := range idx {
		copy(dst.Row(i), src.Row(int(s)))
	}
}

// softmaxCrossEntropyRef is the reference loss and gradient: per row a scalar
// max scan and shift, and every exponential evaluated where it is used — once
// for the sum and once more for the gradient.
func softmaxCrossEntropyRef(grad, logits *Matrix, labels []int32) (loss float64, correct int) {
	n := logits.Rows
	inv := float32(1.0 / float64(n))
	for i := 0; i < n; i++ {
		row, grow := logits.Row(i), grad.Row(i)
		maxv, argmax := row[0], 0
		for j, v := range row {
			if v > maxv {
				maxv, argmax = v, j
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		lbl := int(labels[i])
		loss += math.Log(sum) - float64(row[lbl]-maxv)
		if argmax == lbl {
			correct++
		}
		for j, v := range row {
			p := float32(math.Exp(float64(v-maxv)) / sum)
			if j == lbl {
				p -= 1
			}
			grow[j] = p * inv
		}
	}
	return loss / float64(n), correct
}

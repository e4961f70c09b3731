package tensor

import (
	"fmt"
	"math"
)

// Scale multiplies every element of m by s in place.
func Scale(m *Matrix, s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Axpy computes y += alpha·x element-wise (shapes must match).
func Axpy(y *Matrix, alpha float32, x *Matrix) {
	if y.Rows != x.Rows || y.Cols != x.Cols {
		panic("tensor: Axpy shape mismatch")
	}
	for i, v := range x.Data {
		y.Data[i] += alpha * v
	}
}

// AddBias adds a 1×n bias row to every row of m (m is r×n).
func AddBias(m *Matrix, bias *Matrix) {
	if bias.Rows != 1 || bias.Cols != m.Cols {
		panic("tensor: AddBias wants 1xN bias matching m.Cols")
	}
	if FanOut(m.Rows, m.Cols) <= 1 {
		addBiasRange(m, bias, 0, m.Rows)
		return
	}
	ParallelRows(m.Rows, m.Cols, func(lo, hi int) { addBiasRange(m, bias, lo, hi) })
}

func addBiasRange(m, bias *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.Row(i)
		for j, bv := range bias.Data {
			row[j] += bv
		}
	}
}

// BiasGrad accumulates the column sums of dY into a 1×n gradient.
func BiasGrad(grad, dy *Matrix) {
	if grad.Rows != 1 || grad.Cols != dy.Cols {
		panic("tensor: BiasGrad shape mismatch")
	}
	// 1·v is exact, so this is the plain column sum in row order at the
	// active SIMD level.
	for i := 0; i < dy.Rows; i++ {
		AxpyRow(grad.Data, dy.Row(i), 1)
	}
}

// ReLUInto applies max(0, x) to m in place. It keeps no backward mask: the
// mask is a pure function of the output (out > 0 exactly where the input was
// — a NaN or −0 input writes +0), and ReLUBackward reads it off that.
func ReLUInto(m *Matrix) {
	n := len(m.Data)
	q := 0
	if haveAVX2Asm && n >= 8 && simdAtLeast(SIMDAVX2) {
		// The matrix is contiguous, so the whole tensor is one flat pass.
		q = n &^ 7
		reluAVX2Asm(m.Data[:q])
	}
	// The AVX2 kernel mirrors this branch exactly (compare, then AND):
	// v = -0.0 and v = NaN write +0.0 on both paths.
	for i, v := range m.Data[q:] {
		if !(v > 0) {
			m.Data[q+i] = 0
		}
	}
}

// AddBiasReLU fuses AddBias + ReLUInto into one pass over m: every row gets
// the 1×n bias added and is clamped at zero in place. One memory pass instead
// of the three the unfused sequence (matmul store, bias read-modify-write,
// relu read-modify-write) costs, and — like ReLUInto — no mask stream.
func AddBiasReLU(m, bias *Matrix) {
	if bias.Rows != 1 || bias.Cols != m.Cols {
		panic("tensor: AddBiasReLU wants 1xN bias matching m.Cols")
	}
	if FanOut(m.Rows, m.Cols) <= 1 {
		addBiasReLURange(m, bias, 0, m.Rows)
		return
	}
	ParallelRows(m.Rows, m.Cols, func(lo, hi int) { addBiasReLURange(m, bias, lo, hi) })
}

func addBiasReLURange(m, bias *Matrix, lo, hi int) {
	bd := bias.Data
	n := len(bd)
	q := 0
	if haveAVX2Asm && n >= 8 && simdAtLeast(SIMDAVX2) {
		q = n &^ 7
	}
	for i := lo; i < hi; i++ {
		row := m.Row(i)
		if q > 0 {
			addBiasReLUAVX2Asm(row[:q], bd[:q])
		}
		for j := q; j < n; j++ {
			v := row[j] + bd[j]
			if !(v > 0) {
				v = 0
			}
			row[j] = v
		}
	}
}

// ReLUBackward multiplies dz in place by the ReLU derivative at act, the
// layer's post-activation output: dz[i] *= 1 where act[i] > 0, else 0. The
// factor is the value the forward pass used to store as a mask, so −0, ±Inf
// and NaN gradients give the same product bits (−x·0 = −0, ±Inf·0 = NaN).
func ReLUBackward(dz, act *Matrix) {
	if dz.Rows != act.Rows || dz.Cols != act.Cols {
		panic("tensor: ReLUBackward shape mismatch")
	}
	// The matrices are contiguous, so the whole tensor is one flat pass; an
	// IEEE product is the same at any vector width.
	d, a := dz.Data, act.Data[:len(dz.Data)]
	q := 0
	if haveAVX2Asm && len(d) >= 8 && simdAtLeast(SIMDAVX2) {
		q = len(d) &^ 7
		reluBackwardAVX2Asm(d[:q], a[:q])
	}
	for i := q; i < len(d); i++ {
		var mask float32
		if a[i] > 0 {
			mask = 1
		}
		d[i] *= mask
	}
}

// softmaxStage is the widest logits row SoftmaxCrossEntropy stages on its
// stack.
const softmaxStage = 192

// SoftmaxCrossEntropy computes mean softmax cross-entropy loss over rows of
// logits against integer labels, and writes dLogits = (softmax − onehot)/rows
// into grad (same shape as logits, pre-allocated). It returns the loss and
// the number of correct argmax predictions.
func SoftmaxCrossEntropy(grad, logits *Matrix, labels []int32) (loss float64, correct int) {
	if len(labels) != logits.Rows {
		panic(fmt.Sprintf("tensor: SoftmaxCrossEntropy %d labels for %d rows", len(labels), logits.Rows))
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic("tensor: SoftmaxCrossEntropy grad shape mismatch")
	}
	n := logits.Rows
	if n == 0 {
		return 0, 0
	}
	inv := float32(1.0 / float64(n))
	// Each row's exponentials are evaluated once, for the sum, and staged
	// here for the gradient pass. The class counts this repo trains (47, 172)
	// fit the stack array, so steady-state training allocates nothing.
	var stage [softmaxStage]float64
	exps := stage[:]
	if logits.Cols > len(stage) {
		exps = make([]float64, logits.Cols)
	}
	exps = exps[:logits.Cols]
	var totalLoss float64
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		grow := grad.Row(i)
		// Numerically stable softmax. The row max, the shift and the
		// exponentials go through SIMD (selection and a single float32
		// subtract are exact at any width; expRow is math.Exp lane by lane);
		// the float64 sum stays a scalar loop in ascending j — its order is
		// part of the result — and so does the log.
		maxv, argmax := rowMax(row)
		// Stage the shifted logits v−maxv into the grad row: it is scratch
		// until the final pass overwrites it in place, so the wide shift
		// costs no extra buffer.
		subScalarInto(grow, row, maxv)
		expRow(exps, grow)
		var sum float64
		for _, e := range exps {
			sum += e
		}
		logSum := math.Log(sum)
		lbl := int(labels[i])
		if lbl < 0 || lbl >= logits.Cols {
			panic(fmt.Sprintf("tensor: label %d out of range [0,%d)", lbl, logits.Cols))
		}
		totalLoss += logSum - float64(grow[lbl])
		if argmax == lbl {
			correct++
		}
		// grow[j] = float32(e/sum)·inv in one sweep; the label's element,
		// the only one with the −1, is patched by the scalar expression.
		softmaxGradRow(grow, exps, sum, inv)
		grow[lbl] = (float32(exps[lbl]/sum) - 1) * inv
	}
	return totalLoss / float64(n), correct
}

// expLo and expHi bound the arguments expRowFMAAsm evaluates itself: inside
// them math.Exp runs straight through its polynomial path; outside (or on
// NaN) it branches to its denormal, overflow and non-finite exits, which the
// kernel leaves to math.Exp.
const (
	expLo = -708
	expHi = 709
)

// expRow computes dst[j] = math.Exp(float64(src[j])) over len(src) elements,
// bit for bit at every level: from AVX2 up, on a CPU with FMA — where
// math.Exp itself is the fused routine — expRowFMAAsm runs the same routine
// four lanes at a time; everywhere else this is the scalar loop.
func expRow(dst []float64, src []float32) {
	n := len(src)
	dst = dst[:n]
	q := 0
	if haveAVX2Asm && cpuFMA && n >= 4 && simdAtLeast(SIMDAVX2) {
		q = n &^ 3
		if !expRowFMAAsm(dst[:q], src[:q]) {
			for j, v := range src[:q] {
				if !(v >= expLo && v <= expHi) {
					dst[j] = math.Exp(float64(v))
				}
			}
		}
	}
	for j := q; j < n; j++ {
		dst[j] = math.Exp(float64(src[j]))
	}
}

// softmaxGradRow computes grad[j] = float32(exps[j]/sum)·inv over len(exps)
// elements: divide, narrow, multiply, each correctly rounded at any width.
func softmaxGradRow(grad []float32, exps []float64, sum float64, inv float32) {
	n := len(exps)
	grad = grad[:n]
	q := 0
	if haveAVX2Asm && n >= 4 && simdAtLeast(SIMDAVX2) {
		q = n &^ 3
		softmaxGradAVX2Asm(grad[:q], exps[:q], sum, inv)
	}
	for j := q; j < n; j++ {
		grad[j] = float32(exps[j]/sum) * inv
	}
}

// rowMax returns the maximum of row (len ≥ 1) and the index of its first
// occurrence — the argmax the scalar first-strict-improvement scan picks.
// The SIMD reduction only finds the maximum *value* (order-independent); the
// index scan then re-reads row[argmax] so the returned bit pattern is the
// element the scalar loop would have kept (VMAXPS's -0.0/+0.0 tie-breaking
// never leaks out).
func rowMax(row []float32) (maxv float32, argmax int) {
	n := len(row)
	maxv = row[0]
	q := 0
	if haveAVX2Asm && n >= 8 && simdAtLeast(SIMDAVX2) {
		q = n &^ 7
		maxv = rowMaxAVX2Asm(row[:q])
	}
	for _, v := range row[q:] {
		if v > maxv {
			maxv = v
		}
	}
	for j, v := range row {
		if v == maxv {
			return row[j], j
		}
	}
	// Unreachable for any row that contains its own maximum; NaN-only rows
	// fall back to the scalar semantics (keep element 0).
	return maxv, 0
}

// subScalarInto computes dst[j] = src[j] − s over len(src) elements.
func subScalarInto(dst, src []float32, s float32) {
	n := len(src)
	dst = dst[:n]
	q := 0
	if haveAVX2Asm && n >= 8 && simdAtLeast(SIMDAVX2) {
		q = n &^ 7
		subScalarAVX2Asm(dst[:q], src[:q], s)
	}
	for j := q; j < n; j++ {
		dst[j] = src[j] - s
	}
}

// ConcatCols writes [a | b] into dst. dst must be r×(a.Cols+b.Cols).
func ConcatCols(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Rows || dst.Cols != a.Cols+b.Cols {
		panic("tensor: ConcatCols shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i)[:a.Cols], a.Row(i))
		copy(dst.Row(i)[a.Cols:], b.Row(i))
	}
}

// SplitCols splits dst = [a | b] back into its halves (inverse of ConcatCols),
// copying columns [0,a.Cols) of src into a and the rest into b.
func SplitCols(a, b, src *Matrix) {
	if a.Rows != b.Rows || src.Rows != a.Rows || src.Cols != a.Cols+b.Cols {
		panic("tensor: SplitCols shape mismatch")
	}
	for i := 0; i < src.Rows; i++ {
		copy(a.Row(i), src.Row(i)[:a.Cols])
		copy(b.Row(i), src.Row(i)[a.Cols:])
	}
}

// gatherWork prices one gathered float in the element-operations FanOut
// counts: a row copied from a random offset of a feature table misses the
// cache and costs about four in-cache multiply-adds per float. Without it
// the training-sized gathers (1–2 M floats) run on the caller and the traced
// tensor.gather_ms_per_iter reads ≈ 50 % higher.
const gatherWork = 4

// GatherRows copies rows idx of src into dst (dst is len(idx)×src.Cols).
// Rows split across ParallelRows workers, each one call into the gather
// kernel for its range. The runtime stages features this way only where the
// copy is what a device sees — an accelerator share under QuantizeTransfer;
// every other layer 0 reads the feature table in place.
func GatherRows(dst, src *Matrix, idx []int32) {
	if dst.Rows != len(idx) || dst.Cols != src.Cols {
		panic("tensor: GatherRows shape mismatch")
	}
	if FanOut(len(idx), gatherWork*src.Cols) <= 1 {
		gatherRange(dst, 0, src, idx, 0, len(idx))
		return
	}
	ParallelRows(len(idx), gatherWork*src.Cols, func(lo, hi int) { gatherRange(dst, 0, src, idx, lo, hi) })
}

// GatherRowsAt copies rows idx of src into the column band
// [dstCol, dstCol+src.Cols) of dst — the fused gather-into-concat the SAGE
// layer uses to build its [self ‖ mean] dense input without a separate self
// matrix and ConcatCols pass.
func GatherRowsAt(dst *Matrix, dstCol int, src *Matrix, idx []int32) {
	if dst.Rows != len(idx) || dstCol < 0 || dstCol+src.Cols > dst.Cols {
		panic("tensor: GatherRowsAt shape mismatch")
	}
	if FanOut(len(idx), gatherWork*src.Cols) <= 1 {
		gatherRange(dst, dstCol, src, idx, 0, len(idx))
		return
	}
	ParallelRows(len(idx), gatherWork*src.Cols, func(lo, hi int) { gatherRange(dst, dstCol, src, idx, lo, hi) })
}

// gatherRange copies rows idx[lo:hi] of src into the column band
// [dstCol, dstCol+src.Cols) of rows [lo, hi) of dst. From AVX2 up it is one
// call into gatherRowsAVX2Asm, which walks the index list itself and
// prefetches eight rows ahead of the one it copies (gather_amd64.s); the
// kernel trusts its extents, so every index is checked against src.Rows and
// both matrices are re-sliced to what it will touch first. Rows narrower than
// one vector, the lower levels and other architectures copy row by row.
func gatherRange(dst *Matrix, dstCol int, src *Matrix, idx []int32, lo, hi int) {
	w := src.Cols
	if haveAVX2Asm && w >= 8 && lo < hi && simdAtLeast(SIMDAVX2) {
		part := idx[lo:hi]
		checkRowIndices("gather", part, src.Rows)
		band := dst.Data[lo*dst.Cols+dstCol : (hi-1)*dst.Cols+dstCol+w]
		gatherRowsAVX2Asm(band, dst.Cols, src.Data[:src.Rows*w], w, part)
		return
	}
	for i := lo; i < hi; i++ {
		copy(dst.Row(i)[dstCol:dstCol+w], src.Row(int(idx[i])))
	}
}

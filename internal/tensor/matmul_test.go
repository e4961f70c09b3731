package tensor

import "testing"

// randomOperands draws a trial's shapes and operands, sprinkling exact zeros
// into a (exercising the row-granular sparsity skip) and covering every
// remainder-tile case (rows % 4, cols % SIMD width).
func randomOperands(rng *RNG) (a, b *Matrix) {
	return operands(rng, 1+rng.Intn(37), 1+rng.Intn(70), 1+rng.Intn(37))
}

func operands(rng *RNG, m, k, n int) (a, b *Matrix) {
	a = New(m, k)
	NormalInit(a, 1, rng)
	b = New(k, n)
	NormalInit(b, 1, rng)
	for i := range a.Data {
		if rng.Intn(3) == 0 {
			a.Data[i] = 0
		}
	}
	return a, b
}

// TestBlockedMatMulExactlyMatchesReference is the property test pinning the
// blocked kernels to the reference triple loops: because every kernel
// accumulates each output element over the shared dimension in ascending
// order (SIMD lanes span independent output elements), the results must be
// bit-identical — not merely close — across random ragged shapes, sparsity
// patterns, and both serial and parallel execution. The small trials all run
// on the caller whatever the parallelism; the last two of each parallel leg
// are sized above the fan-out grain, so parallelism 3 and 4 really chunk.
func TestBlockedMatMulExactlyMatchesReference(t *testing.T) {
	for _, par := range []int{1, 3, 4} {
		prev := SetParallelism(par)
		rng := NewRNG(42)
		trials := 300
		if par > 1 {
			trials += 2
		}
		for trial := 0; trial < trials; trial++ {
			var a, b *Matrix
			if trial < 300 {
				a, b = randomOperands(rng)
			} else {
				a, b = operands(rng, 600+rng.Intn(37), 100+rng.Intn(70), 100+rng.Intn(37))
				requireFanOut(t, "MatMul/MatMulT/TMatMul", a.Rows, a.Cols*b.Cols)
			}
			m, n := a.Rows, b.Cols
			got, want := New(m, n), New(m, n)

			MatMul(got, a, b)
			MatMulRef(want, a, b)
			if !got.Equal(want) {
				t.Fatalf("par=%d trial %d: MatMul differs from MatMulRef (%dx%d·%dx%d), max diff %g",
					par, trial, m, a.Cols, b.Rows, n, got.MaxAbsDiff(want))
			}

			bt := Transpose(b)
			MatMulT(got, a, bt)
			MatMulTRef(want, a, bt)
			if !got.Equal(want) {
				t.Fatalf("par=%d trial %d: MatMulT differs from MatMulTRef, max diff %g",
					par, trial, got.MaxAbsDiff(want))
			}

			at := Transpose(a)
			TMatMul(got, at, b)
			TMatMulRef(want, at, b)
			if !got.Equal(want) {
				t.Fatalf("par=%d trial %d: TMatMul differs from TMatMulRef, max diff %g",
					par, trial, got.MaxAbsDiff(want))
			}
		}
		SetParallelism(prev)
	}
}

// TestMatMulLayerShapes covers the paper's dense-update shapes (wide batch
// extents, k chunking) rather than the small random trials above.
func TestMatMulLayerShapes(t *testing.T) {
	rng := NewRNG(7)
	for _, sh := range [][3]int{{1024, 128, 128}, {513, 256, 16}, {37, 2048, 8}, {4, 3, 2}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k)
		NormalInit(a, 1, rng)
		b := New(k, n)
		NormalInit(b, 1, rng)
		got, want := New(m, n), New(m, n)
		MatMul(got, a, b)
		MatMulRef(want, a, b)
		if !got.Equal(want) {
			t.Fatalf("MatMul %dx%dx%d differs from reference", m, k, n)
		}
	}
}

func TestMatMulZeroK(t *testing.T) {
	a, b := New(3, 0), New(0, 4)
	c := New(3, 4)
	c.Fill(9)
	MatMul(c, a, b)
	for _, v := range c.Data {
		if v != 0 {
			t.Fatalf("MatMul with k=0 should zero C, got %v", c.Data)
		}
	}
}

func TestAxpyRowMatchesScalar(t *testing.T) {
	rng := NewRNG(11)
	for _, n := range []int{0, 1, 7, 8, 15, 16, 17, 64, 129} {
		src := make([]float32, n)
		dst := make([]float32, n)
		want := make([]float32, n)
		for i := 0; i < n; i++ {
			src[i] = float32(rng.NormFloat64())
			dst[i] = float32(rng.NormFloat64())
			want[i] = dst[i]
		}
		alpha := float32(rng.NormFloat64())
		AxpyRow(dst, src, alpha)
		for i := 0; i < n; i++ {
			want[i] = fma32(src[i], alpha, want[i])
			if dst[i] != want[i] {
				t.Fatalf("n=%d: AxpyRow[%d]=%v, scalar %v", n, i, dst[i], want[i])
			}
		}
	}
}

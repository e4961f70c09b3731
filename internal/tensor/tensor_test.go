package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// Set assigns element (i, j): the fixture and finite-difference tests'
// writer; no shipped code writes single elements.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v, want 5", m.At(1, 2))
	}
	if m.Row(1)[2] != 5 {
		t.Fatalf("Row view broken")
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

// A NaN on exactly one side is an unbounded difference — |NaN − x| compares
// below any maximum, which read as agreement — while NaNs at the same
// position on both sides are equal and leave the finite differences counted.
func TestMaxAbsDiffNaN(t *testing.T) {
	nan := float32(math.NaN())
	a := FromSlice(1, 3, []float32{1, 2, 3})
	if d := a.MaxAbsDiff(FromSlice(1, 3, []float32{1, nan, 3})); !math.IsInf(d, 1) {
		t.Fatalf("NaN on the right: %v, want +Inf", d)
	}
	if d := FromSlice(1, 3, []float32{1, nan, 3}).MaxAbsDiff(a); !math.IsInf(d, 1) {
		t.Fatalf("NaN on the left: %v, want +Inf", d)
	}
	if d := FromSlice(1, 3, []float32{nan, 2, 3}).MaxAbsDiff(FromSlice(1, 3, []float32{nan, 2, 3.5})); d != 0.5 {
		t.Fatalf("NaN on both sides: %v, want the finite difference 0.5", d)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("Equal(clone) false")
	}
}

// naiveMatMul is the reference O(mnk) triple loop in float64.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			c.Set(i, j, float32(s))
		}
	}
	return c
}

func randomMatrix(rows, cols int, rng *RNG) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {64, 32, 16}, {2, 100, 3}} {
		a := randomMatrix(dims[0], dims[1], rng)
		b := randomMatrix(dims[1], dims[2], rng)
		c := New(dims[0], dims[2])
		MatMul(c, a, b)
		want := naiveMatMul(a, b)
		if !c.allClose(want, 1e-3) {
			t.Fatalf("MatMul mismatch at dims %v: maxdiff %g", dims, c.MaxAbsDiff(want))
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(2)
	const m, k, n = 1037, 119, 111 // 6.5 fan-out grains: 6 uneven chunks at parallelism 8
	a := randomMatrix(m, k, rng)
	b := randomMatrix(k, n, rng)
	c1 := New(m, n)
	c2 := New(m, n)
	old := SetParallelism(1)
	defer SetParallelism(old)
	MatMul(c1, a, b)
	SetParallelism(8)
	requireFanOut(t, "MatMul", m, k*n)
	MatMul(c2, a, b)
	if !c1.Equal(c2) {
		t.Fatal("parallel MatMul differs from serial")
	}
}

func TestMatMulT(t *testing.T) {
	rng := NewRNG(3)
	a := randomMatrix(7, 5, rng)
	b := randomMatrix(9, 5, rng)
	c := New(7, 9)
	MatMulT(c, a, b)
	want := naiveMatMul(a, Transpose(b))
	if !c.allClose(want, 1e-3) {
		t.Fatalf("MatMulT mismatch: %g", c.MaxAbsDiff(want))
	}
}

func TestTMatMul(t *testing.T) {
	rng := NewRNG(4)
	a := randomMatrix(6, 8, rng)
	b := randomMatrix(6, 3, rng)
	c := New(8, 3)
	TMatMul(c, a, b)
	want := naiveMatMul(Transpose(a), b)
	if !c.allClose(want, 1e-3) {
		t.Fatalf("TMatMul mismatch: %g", c.MaxAbsDiff(want))
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		m := randomMatrix(rows, cols, rng)
		return Transpose(Transpose(m)).Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScaleAxpy(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := FromSlice(2, 2, []float32{10, 20, 30, 40})
	dst := b.Clone()
	Axpy(dst, -1, a)
	if dst.At(0, 0) != 9 || dst.At(1, 1) != 36 {
		t.Fatalf("Axpy b−a: %v", dst)
	}
	Scale(dst, 2)
	if dst.At(0, 0) != 18 {
		t.Fatalf("Scale: %v", dst)
	}
	Axpy(dst, -1, dst.Clone())
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatalf("Axpy self-cancel: %v", dst)
		}
	}
}

func TestAddBiasAndBiasGrad(t *testing.T) {
	m := New(3, 2)
	bias := FromSlice(1, 2, []float32{1, -1})
	AddBias(m, bias)
	for i := 0; i < 3; i++ {
		if m.At(i, 0) != 1 || m.At(i, 1) != -1 {
			t.Fatalf("AddBias row %d: %v", i, m.Row(i))
		}
	}
	grad := New(1, 2)
	BiasGrad(grad, m)
	if grad.At(0, 0) != 3 || grad.At(0, 1) != -3 {
		t.Fatalf("BiasGrad: %v", grad)
	}
}

func TestReLUAndBackward(t *testing.T) {
	m := FromSlice(1, 4, []float32{-1, 0, 2, -3})
	ReLUInto(m)
	want := []float32{0, 0, 2, 0}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("ReLU: %v", m.Data)
		}
	}
	dy := FromSlice(1, 4, []float32{5, 5, 5, 5})
	bits := make([]int32, 1)
	ReLUMask(bits, m, m.Rows)
	ReLUBackward(dy, bits)
	wantDy := []float32{0, 0, 5, 0}
	for i, v := range wantDy {
		if dy.Data[i] != v {
			t.Fatalf("ReLUBackward: %v", dy.Data)
		}
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over k classes: loss = ln(k), grad = (1/k - onehot)/n.
	logits := New(2, 4)
	grad := New(2, 4)
	loss, correct := SoftmaxCrossEntropy(grad, logits, []int32{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	if correct != 1 { // argmax of uniform row is index 0; row1 label 3 wrong
		t.Fatalf("correct = %d, want 1", correct)
	}
	if math.Abs(float64(grad.At(0, 0))-(0.25-1)/2) > 1e-6 {
		t.Fatalf("grad(0,0) = %v", grad.At(0, 0))
	}
	if math.Abs(float64(grad.At(0, 1))-0.25/2) > 1e-6 {
		t.Fatalf("grad(0,1) = %v", grad.At(0, 1))
	}
}

func TestSoftmaxCrossEntropyGradientSumsToZero(t *testing.T) {
	rng := NewRNG(7)
	logits := randomMatrix(5, 6, rng)
	grad := New(5, 6)
	labels := []int32{0, 1, 2, 3, 4}
	SoftmaxCrossEntropy(grad, logits, labels)
	for i := 0; i < 5; i++ {
		var sum float64
		for _, v := range grad.Row(i) {
			sum += float64(v)
		}
		if math.Abs(sum) > 1e-5 {
			t.Fatalf("row %d grad sum = %v, want 0", i, sum)
		}
	}
}

func TestSoftmaxCrossEntropyFiniteDifference(t *testing.T) {
	rng := NewRNG(8)
	logits := randomMatrix(3, 4, rng)
	labels := []int32{2, 0, 1}
	grad := New(3, 4)
	loss0, _ := SoftmaxCrossEntropy(grad, logits, labels)
	const eps = 1e-3
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			pert := logits.Clone()
			pert.Set(i, j, pert.At(i, j)+eps)
			g2 := New(3, 4)
			loss1, _ := SoftmaxCrossEntropy(g2, pert, labels)
			numeric := (loss1 - loss0) / eps
			analytic := float64(grad.At(i, j))
			if math.Abs(numeric-analytic) > 1e-2 {
				t.Fatalf("grad(%d,%d): numeric %v analytic %v", i, j, numeric, analytic)
			}
		}
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := NewRNG(9)
	a := randomMatrix(4, 3, rng)
	b := randomMatrix(4, 5, rng)
	dst := catMaterialised(a, nil, b)
	a2, b2 := New(4, 3), New(4, 5)
	SplitCols(a2, b2, dst)
	if !a.Equal(a2) || !b.Equal(b2) {
		t.Fatal("Concat/Split round trip failed")
	}
}

func TestGatherScatterRows(t *testing.T) {
	src := FromSlice(3, 2, []float32{1, 1, 2, 2, 3, 3})
	dst := New(2, 2)
	GatherRows(dst, src, []int32{2, 0})
	if dst.At(0, 0) != 3 || dst.At(1, 0) != 1 {
		t.Fatalf("GatherRows: %v", dst)
	}
	// The scatter-add back through the same indices, row by row as the GNN
	// backward pass does it (AxpyRow).
	acc := New(3, 2)
	for i := 0; i < dst.Rows; i++ {
		AxpyRow(acc.Row(1), dst.Row(i), 1)
	}
	if acc.At(1, 0) != 4 {
		t.Fatalf("scatter-add: %v", acc)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds produce correlated streams")
	}
}

// Skip(n) is n Uint64 calls; the counter wraps with the 2⁶⁴ period, so
// skipping 2⁶⁴−1 draws and then 2 more lands one draw on.
func TestRNGSkipMatchesDraws(t *testing.T) {
	for _, n := range []uint64{0, 1, 1000} {
		skipped, drawn := NewRNG(17), NewRNG(17)
		skipped.Skip(n)
		for i := uint64(0); i < n; i++ {
			drawn.Uint64()
		}
		if *skipped != *drawn || skipped.Uint64() != drawn.Uint64() {
			t.Fatalf("Skip(%d) is not %d draws", n, n)
		}
	}
	wrapped, drawn := NewRNG(17), NewRNG(17)
	wrapped.Skip(^uint64(0))
	wrapped.Skip(2)
	drawn.Uint64()
	if wrapped.Uint64() != drawn.Uint64() {
		t.Fatal("Skip(2⁶⁴−1) then Skip(2) is not one draw")
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(200)
		p := rng.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := rng.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestXavierInitBounds(t *testing.T) {
	m := New(100, 50)
	XavierInit(m, NewRNG(12))
	limit := math.Sqrt(6.0 / 150.0)
	for _, v := range m.Data {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("Xavier value %v exceeds limit %v", v, limit)
		}
	}
	if m.Equal(New(100, 50)) {
		t.Fatal("Xavier init left matrix zero")
	}
}

func TestSetParallelismClamps(t *testing.T) {
	old := SetParallelism(-5)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism = %d, want 1", Parallelism())
	}
	SetParallelism(old)
}

// BenchmarkMatMul reports the GEMM kernels' rate (GFLOP/s at two flops per
// multiply-add) at each level this CPU has, at SetParallelism 1 and 2, on the
// workloads' GEMM shapes (products ÷ 40): MatMul on a serving batch's layer 0,
// a training batch's layer 0 and its layer 1 (f = 200 / 256 / 47 before
// SAGE's concatenation doubles the input width); SAGE's training layer 0 as
// it runs — the forward MatMulCat (self half through a row map), the
// weight-gradient TMatMulCat and the input-gradient MatMulT; GCN's two
// layers; and a serving batch's last layer. README's kernel tables are read
// with
//
//	go test -run '^$' -bench MatMul ./internal/tensor/
func BenchmarkMatMul(b *testing.B) {
	defer SetParallelism(Parallelism())
	rng := NewRNG(1)
	rows := make([]int32, 9000)
	for i := range rows {
		rows[i] = int32(rng.Intn(20000))
	}
	self, agg, dz := randomMatrix(20000, 100, rng), randomMatrix(9000, 100, rng), randomMatrix(9000, 256, rng)
	w, z, dw, dx := randomMatrix(200, 256, rng), New(9000, 256), New(200, 256), New(9000, 200)
	// matMul runs MatMul on fresh m×k·k×n operands.
	matMul := func(m, k, n int) func() {
		a, w, out := randomMatrix(m, k, rng), randomMatrix(k, n, rng), New(m, n)
		return func() { MatMul(out, a, w) }
	}
	shapes := []struct {
		name    string
		m, k, n int
		run     func()
	}{
		{"serve-l0-192x200x128", 192, 200, 128, matMul(192, 200, 128)},
		{"train-l0-10000x200x256", 10000, 200, 256, matMul(10000, 200, 256)},
		{"train-l1-1024x512x47", 1024, 512, 47, matMul(1024, 512, 47)},
		{"sage-fwd-cat-9000x200x256", 9000, 200, 256, func() { MatMulCat(z, self, rows, agg, w) }},
		{"sage-dw-tcat-9000x200x256", 9000, 200, 256, func() { TMatMulCat(dw, self, rows, agg, dz) }},
		{"sage-dx-t-9000x256x200", 9000, 256, 200, func() { MatMulT(dx, dz, w) }},
		{"gcn-l0-9000x128x32", 9000, 128, 32, matMul(9000, 128, 32)},
		{"gcn-l1-1016x32x172", 1016, 32, 172, matMul(1016, 32, 172)},
		{"serve-l1-16x512x47", 16, 512, 47, matMul(16, 512, 47)},
	}
	for _, l := range availableLevels() {
		for _, par := range []int{1, 2} {
			for _, sh := range shapes {
				b.Run(fmt.Sprintf("%v/par%d/%s", l, par, sh.name), func(b *testing.B) {
					prev, err := SetSIMDLevel(l)
					if err != nil {
						b.Fatal(err)
					}
					defer SetSIMDLevel(prev)
					SetParallelism(par)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sh.run()
					}
					b.ReportMetric(2*float64(sh.m*sh.k*sh.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}

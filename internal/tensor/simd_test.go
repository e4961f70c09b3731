package tensor

import (
	"math"
	"os"
	"testing"
)

// withSIMD runs fn at a forced dispatch level, restoring the previous level
// afterwards. Kernel parallelism is pinned to 1 so the comparison isolates
// the SIMD path (the cross-parallelism exactness is pinned elsewhere).
func withSIMD(t *testing.T, l SIMDLevel, fn func()) {
	t.Helper()
	prev, err := SetSIMDLevel(l)
	if err != nil {
		t.Fatalf("SetSIMDLevel(%v): %v", l, err)
	}
	defer SetSIMDLevel(prev)
	fn()
}

// availableLevels returns every dispatch level this CPU can execute,
// generic first.
func availableLevels() []SIMDLevel {
	var out []SIMDLevel
	for l := SIMDGeneric; l <= DetectedSIMDLevel(); l++ {
		out = append(out, l)
	}
	return out
}

// ragged covers vector bodies plus scalar tails at every dispatch width:
// below 8 (all-scalar everywhere), 8..15 (AVX2 body + scalar tail), exact
// multiples, and wide-with-tail.
var raggedLens = []int{1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 64, 100, 128, 129, 255}

func randSlice(rng *RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func TestAxpyRowExactAcrossSIMDLevels(t *testing.T) {
	prevPar := SetParallelism(1)
	defer SetParallelism(prevPar)
	rng := NewRNG(11)
	for _, n := range raggedLens {
		src := randSlice(rng, n)
		dst0 := randSlice(rng, n)
		alpha := float32(rng.NormFloat64())
		want := append([]float32(nil), dst0...)
		for j := range want {
			want[j] = fma32(src[j], alpha, want[j])
		}
		for _, l := range availableLevels() {
			withSIMD(t, l, func() {
				got := append([]float32(nil), dst0...)
				AxpyRow(got, src, alpha)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("AxpyRow n=%d level=%v: got[%d]=%x want %x", n, l, j, got[j], want[j])
					}
				}
			})
		}
	}
}

func TestScaleRowIntoExactAcrossSIMDLevels(t *testing.T) {
	prevPar := SetParallelism(1)
	defer SetParallelism(prevPar)
	rng := NewRNG(13)
	for _, n := range raggedLens {
		src := randSlice(rng, n)
		s := float32(rng.NormFloat64())
		want := make([]float32, n)
		for j := range want {
			want[j] = s * src[j]
		}
		for _, l := range availableLevels() {
			withSIMD(t, l, func() {
				got := make([]float32, n)
				ScaleRowInto(got, src, s)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("ScaleRowInto n=%d level=%v: got[%d]=%x want %x", n, l, j, got[j], want[j])
					}
				}
			})
		}
	}
}

// reluEdgeValues exercises the sign-boundary cases the AVX2 compare+AND
// masking must reproduce exactly: negative zero stays a zero output with a
// zero mask, as in the scalar branch.
func reluEdgeValues(rng *RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		switch i % 5 {
		case 0:
			s[i] = float32(rng.NormFloat64())
		case 1:
			s[i] = 0
		case 2:
			s[i] = float32(negZero())
		case 3:
			s[i] = -float32(rng.NormFloat64() * rng.NormFloat64())
		default:
			s[i] = float32(rng.NormFloat64() * 1e-3)
		}
	}
	return s
}

func negZero() float64 { return math.Copysign(0, -1) } // a constant −0.0 is +0 in Go

func TestReLUIntoExactAcrossSIMDLevels(t *testing.T) {
	prevPar := SetParallelism(1)
	defer SetParallelism(prevPar)
	rng := NewRNG(15)
	for _, n := range raggedLens {
		m0 := FromSlice(3, n, reluEdgeValues(rng, 3*n))
		want := m0.Clone()
		reluMaskOracle(want)
		for _, l := range availableLevels() {
			withSIMD(t, l, func() {
				m := m0.Clone()
				ReLUInto(m)
				if i, ok := sameBits(m.Data, want.Data); !ok {
					t.Fatalf("ReLUInto n=%d level=%v: element %d is %x, the scalar clamp gives %x", n, l, i,
						math.Float32bits(m.Data[i]), math.Float32bits(want.Data[i]))
				}
			})
		}
	}
}

func TestAddBiasReLUExactAcrossSIMDLevels(t *testing.T) {
	prevPar := SetParallelism(1)
	defer SetParallelism(prevPar)
	rng := NewRNG(16)
	for _, n := range raggedLens {
		m0 := FromSlice(4, n, reluEdgeValues(rng, 4*n))
		bias := FromSlice(1, n, randSlice(rng, n))
		want := m0.Clone()
		AddBias(want, bias)
		reluMaskOracle(want)
		for _, l := range availableLevels() {
			withSIMD(t, l, func() {
				m := m0.Clone()
				AddBiasReLU(m, bias)
				if i, ok := sameBits(m.Data, want.Data); !ok {
					t.Fatalf("AddBiasReLU n=%d level=%v: element %d is %x, add-then-clamp gives %x", n, l, i,
						math.Float32bits(m.Data[i]), math.Float32bits(want.Data[i]))
				}
			})
		}
	}
}

// specials are the values a kernel must carry through every vector width
// exactly as the scalar loops do: ±Inf, NaN and both zeros.
var specials = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), float32(negZero()), 0}

// specialValues overwrites about a quarter of n ordinary values with specials.
func specialValues(rng *RNG, n int) []float32 {
	s := randSlice(rng, n)
	for i := range s {
		if rng.Intn(4) == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		}
	}
	return s
}

// TestReLUBackwardExactAcrossSIMDLevels pins the bit-mask backward pass —
// ReLUMask off the activation, then ReLUBackward — to the product with a
// stored float mask it replaced, strictly bit for bit (NaN payloads and the
// sign of a zero product included): the activation is what the forward pass
// leaves (the clamp of a pre-activation drawn from a pool with ±0, ±Inf, NaN
// and denormals — its mask is the oracle's) and, second, raw pool values no
// forward pass produces, whose mask is act > 0 by definition. Lengths cover
// every vector body and tail.
func TestReLUBackwardExactAcrossSIMDLevels(t *testing.T) {
	denorm := math.Float32frombits(1)
	pool := append([]float32{denorm, -denorm, math.Float32frombits(0x007fffff), 1, -1, 3e38, -3e38}, specials...)
	draw := func(rng *RNG, n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = pool[rng.Intn(len(pool))]
		}
		return s
	}
	rng := NewRNG(24)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 47, 256} {
		for _, clamped := range []bool{true, false} {
			dz0 := FromSlice(1, n, draw(rng, n))
			act := FromSlice(1, n, draw(rng, n))
			var mask *Matrix
			if clamped {
				mask = reluMaskOracle(act)
			} else {
				mask = New(1, n)
				for i, v := range act.Data {
					if v > 0 {
						mask.Data[i] = 1
					}
				}
			}
			want := make([]float32, n)
			for i := range want {
				want[i] = dz0.Data[i] * mask.Data[i]
			}
			forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
				dz, bits := dz0.Clone(), make([]int32, (n+31)/32)
				ReLUMask(bits, act, act.Rows) // zeroes no row
				ReLUBackward(dz, bits)
				for i := range want {
					if math.Float32bits(dz.Data[i]) != math.Float32bits(want[i]) {
						t.Fatalf("ReLUBackward n=%d clamped=%v level=%v par=%d: dz=%x act=%x gives %x, dz·mask is %x",
							n, clamped, l, par, math.Float32bits(dz0.Data[i]), math.Float32bits(act.Data[i]),
							math.Float32bits(dz.Data[i]), math.Float32bits(want[i]))
					}
				}
			})
		}
	}
}

func TestBiasGradExactAcrossSIMDLevels(t *testing.T) {
	prevPar := SetParallelism(1)
	defer SetParallelism(prevPar)
	rng := NewRNG(25)
	for _, n := range raggedLens {
		dy := FromSlice(5, n, specialValues(rng, 5*n))
		dy.Data[0] = float32(negZero()) // −0 + −0 must stay −0
		grad0 := FromSlice(1, n, randSlice(rng, n))
		grad0.Data[0] = float32(negZero())
		want := append([]float32(nil), grad0.Data...)
		for i := 0; i < dy.Rows; i++ {
			for j, v := range dy.Row(i) {
				want[j] += v
			}
		}
		for _, l := range availableLevels() {
			withSIMD(t, l, func() {
				grad := grad0.Clone()
				BiasGrad(grad, dy)
				if j, ok := sameBits(grad.Data, want); !ok {
					t.Fatalf("BiasGrad n=%d level=%v: got[%d]=%x want %x", n, l, j,
						math.Float32bits(grad.Data[j]), math.Float32bits(want[j]))
				}
			})
		}
	}
}

func TestSoftmaxCrossEntropyExactAcrossSIMDLevels(t *testing.T) {
	prevPar := SetParallelism(1)
	defer SetParallelism(prevPar)
	rng := NewRNG(18)
	for _, n := range []int{2, 5, 7, 8, 9, 16, 47, 100} {
		rows := 9
		logits := FromSlice(rows, n, randSlice(rng, rows*n))
		// Duplicate the max of one row so argmax tie-breaking is exercised.
		logits.Set(2, 0, logits.At(2, n-1))
		labels := make([]int32, rows)
		for i := range labels {
			labels[i] = int32(rng.Intn(n))
		}
		var wantLoss float64
		var wantCorrect int
		var wantGrad *Matrix
		for _, l := range availableLevels() {
			withSIMD(t, l, func() {
				grad := New(rows, n)
				loss, correct := SoftmaxCrossEntropy(grad, logits, labels)
				if wantGrad == nil {
					wantLoss, wantCorrect, wantGrad = loss, correct, grad
					return
				}
				if loss != wantLoss || correct != wantCorrect || !grad.Equal(wantGrad) {
					t.Fatalf("SoftmaxCrossEntropy n=%d level=%v diverges from generic (loss %v vs %v, correct %d vs %d)",
						n, l, loss, wantLoss, correct, wantCorrect)
				}
			})
		}
	}
}

// TestSoftmaxCrossEntropyMatchesReference pins the staged exponentials to the
// evaluate-twice reference bit for bit, at the class counts the repo trains
// and on both sides of the stack stage's length (above it the stage is a
// per-call slice).
func TestSoftmaxCrossEntropyMatchesReference(t *testing.T) {
	rng := NewRNG(26)
	for _, n := range []int{1, 47, 172, softmaxStage, softmaxStage + 1, 300} {
		rows := 6
		logits := FromSlice(rows, n, randSlice(rng, rows*n))
		labels := make([]int32, rows)
		for i := range labels {
			labels[i] = int32(rng.Intn(n))
		}
		want := New(rows, n)
		wantLoss, wantCorrect := softmaxCrossEntropyRef(want, logits, labels)
		got := New(rows, n)
		loss, correct := SoftmaxCrossEntropy(got, logits, labels)
		if i, ok := sameBits(got.Data, want.Data); !ok || loss != wantLoss || correct != wantCorrect {
			t.Fatalf("SoftmaxCrossEntropy n=%d: loss %v vs %v, correct %d vs %d, grad[%d] %x vs %x", n,
				loss, wantLoss, correct, wantCorrect, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// TestMatMulExactAcrossSIMDLevels pins the whole blocked-GEMM stack against
// the *Ref oracles at every dispatch level (the per-kernel tests above pin
// the row updates; this pins their composition under blocking).
func TestMatMulExactAcrossSIMDLevels(t *testing.T) {
	prevPar := SetParallelism(1)
	defer SetParallelism(prevPar)
	rng := NewRNG(19)
	m, k, n := 33, 70, 47
	a := New(m, k)
	NormalInit(a, 1, rng)
	b := New(k, n)
	NormalInit(b, 1, rng)
	bT := Transpose(b)

	wantMM := New(m, n)
	MatMulRef(wantMM, a, b)
	wantMMT := New(m, n)
	MatMulTRef(wantMMT, a, bT)
	wantTMM := New(k, n)
	TMatMulRef(wantTMM, a, wantMM) // aᵀ·(a·b)

	for _, l := range availableLevels() {
		withSIMD(t, l, func() {
			got := New(m, n)
			MatMul(got, a, b)
			if !got.Equal(wantMM) {
				t.Fatalf("MatMul level=%v diverges from MatMulRef", l)
			}
			got = New(m, n)
			MatMulT(got, a, bT)
			if !got.Equal(wantMMT) {
				t.Fatalf("MatMulT level=%v diverges from MatMulTRef", l)
			}
			got = New(k, n)
			TMatMul(got, a, wantMM)
			if !got.Equal(wantTMM) {
				t.Fatalf("TMatMul level=%v diverges from TMatMulRef", l)
			}
		})
	}
}

func TestSetSIMDLevelValidation(t *testing.T) {
	if _, err := SetSIMDLevel(SIMDLevel(99)); err == nil {
		t.Fatal("SetSIMDLevel(99) should fail")
	}
	if _, err := SetSIMDLevel(SIMDLevel(-1)); err == nil {
		t.Fatal("SetSIMDLevel(-1) should fail")
	}
	if above := DetectedSIMDLevel() + 1; above <= SIMDAVX512 {
		if _, err := SetSIMDLevel(above); err == nil {
			t.Fatalf("SetSIMDLevel(%v), one above the hardware ceiling, should fail", above)
		}
	}
	prev, err := SetSIMDLevel(SIMDGeneric)
	if err != nil {
		t.Fatalf("SetSIMDLevel(generic): %v", err)
	}
	if ActiveSIMDLevel() != SIMDGeneric {
		t.Fatalf("active level %v after forcing generic", ActiveSIMDLevel())
	}
	if _, err := SetSIMDLevel(prev); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

func TestParseSIMDLevel(t *testing.T) {
	cases := []struct {
		in   string
		want SIMDLevel
		ok   bool
	}{
		{"auto", DetectedSIMDLevel(), true},
		{"", DetectedSIMDLevel(), true},
		{"generic", SIMDGeneric, true},
		{" avx2 ", SIMDAVX2, true},
		{"AVX512", SIMDAVX512, true},
		{"fast", 0, false},
		{"sse", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSIMDLevel(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("ParseSIMDLevel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Fatalf("ParseSIMDLevel(%q) should fail", c.in)
		}
	}
	for _, l := range []SIMDLevel{SIMDGeneric, SIMDAVX2, SIMDAVX512} {
		back, err := ParseSIMDLevel(l.String())
		if err != nil || back != l {
			t.Fatalf("round-trip %v: got %v, %v", l, back, err)
		}
	}
}

// startSIMD is the level the package dispatched on once init had read
// TENSOR_SIMD, before any test could change it. It is set by an init, not a
// variable initialiser: those run before every init, simd.go's included.
var startSIMD SIMDLevel

func init() { startSIMD = ActiveSIMDLevel() }

// TestEnvSIMDApplied fails a run whose TENSOR_SIMD does not take effect:
// init ignores a spelling it cannot parse, so without this check a stale
// matrix leg would quietly re-test the detected ceiling. A set value must
// parse, and the level at package start must be min(parsed, detected).
func TestEnvSIMDApplied(t *testing.T) {
	env := os.Getenv("TENSOR_SIMD")
	if env == "" {
		t.Skip("TENSOR_SIMD not set")
	}
	want, err := ParseSIMDLevel(env)
	if err != nil {
		t.Fatalf("TENSOR_SIMD=%q: %v", env, err)
	}
	want = min(want, DetectedSIMDLevel())
	if startSIMD != want {
		t.Fatalf("TENSOR_SIMD=%q started the package at %v, want %v (CPU ceiling %v)", env, startSIMD, want, DetectedSIMDLevel())
	}
}

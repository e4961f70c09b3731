package tensor

import (
	"math"
	"testing"
)

// reluPool is what the ReLU mask tests draw both operands from: both zeros,
// both infinities, NaNs of either sign, the smallest and largest subnormals
// of either sign, and ordinary values.
var reluPool = []float32{0, float32(negZero()), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xffc12345), math.Float32frombits(1),
	math.Float32frombits(0x8000_0001), math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	1, -1, 0.5, -3e38, 3e38}

// reluMaskCheck runs the mask pass and the backward pass through their seams
// on copies of act and dz, zeroing act from element zeroFrom, and compares
// both with the scalar loops they replace: the mask is act > 0 bit for bit
// (bits past the last element clear), act keeps its bits below zeroFrom and
// holds +0 from it on, and dz is d·(act > 0 ? 1 : 0), bit for bit with NaN
// compared by class. It returns the levels of the two kernels that ran.
func reluMaskCheck(t *testing.T, what string, act, dz []float32, zeroFrom int) (SIMDLevel, SIMDLevel) {
	t.Helper()
	n := len(act)
	const guard = int32(-0x21524111) // 0xdeadbeef
	mask := make([]int32, (n+31)/32+1)
	for i := range mask {
		mask[i] = guard
	}
	a, d := append([]float32(nil), act...), append([]float32(nil), dz...)
	ranMask := reluMask(mask, a, zeroFrom)
	ranBack := reluBackward(d, mask)
	if mask[len(mask)-1] != guard {
		t.Fatalf("%s: the mask pass wrote past its %d words", what, len(mask)-1)
	}
	for w := 0; w < len(mask)-1; w++ {
		var want uint32
		for b := 0; b < 32 && 32*w+b < n; b++ {
			if act[32*w+b] > 0 {
				want |= 1 << b
			}
		}
		if uint32(mask[w]) != want {
			t.Fatalf("%s: mask word %d is %#08x, act > 0 gives %#08x", what, w, uint32(mask[w]), want)
		}
	}
	for i, v := range a {
		want := act[i]
		if i >= zeroFrom {
			want = 0
		}
		if math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("%s: act[%d] is %#x after the pass, want %#x", what, i, math.Float32bits(v), math.Float32bits(want))
		}
	}
	for i, v := range d {
		var f float32
		if act[i] > 0 {
			f = 1
		}
		want := dz[i] * f
		if math.Float32bits(v) != math.Float32bits(want) && !(v != v && want != want) {
			t.Fatalf("%s: dz[%d] = %#x·(act %#x) gives %#x, the scalar loop %#x", what, i,
				math.Float32bits(dz[i]), math.Float32bits(act[i]), math.Float32bits(v), math.Float32bits(want))
		}
	}
	return ranMask, ranBack
}

// reluKernelLevel is the level whose mask kernels must run on n elements at
// level l: the AVX2 pair from avx2 up, on at least one whole word.
func reluKernelLevel(l SIMDLevel, n int) SIMDLevel {
	if haveAVX2Asm && l >= SIMDAVX2 && n >= 32 {
		return SIMDAVX2
	}
	return SIMDGeneric
}

// TestReLUBackwardMaskMatchesScalarSIMD pins the bit-mask ReLU backward —
// ReLUMask's extract-and-zero pass, then ReLUBackward's expand-and-multiply —
// to the scalar d *= act > 0 ? 1 : 0 loop at every level this CPU has, on
// every length 0–70 (every whole-word body and every tail) and one large odd
// one, with −0, +0, ±Inf, NaN and subnormals in both operands, and zeroing
// starts on and off word boundaries (SAGE zeroes from row |Dst|, wherever
// that falls). At a level that has the vector kernels the test fails, rather
// than passes on the scalar loops, if they did not run.
func TestReLUBackwardMaskMatchesScalarSIMD(t *testing.T) {
	lengths := make([]int, 0, 72)
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4099)
	forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
		rng := NewRNG(46)
		for _, n := range lengths {
			act, dz := make([]float32, n), make([]float32, n)
			for i := range act {
				act[i], dz[i] = reluPool[rng.Intn(len(reluPool))], reluPool[rng.Intn(len(reluPool))]
			}
			for _, zeroFrom := range []int{0, 1, 7, 31, 32, 33, 63, 64, 65, n / 2, n - 1, n} {
				if zeroFrom < 0 || zeroFrom > n {
					continue
				}
				ranMask, ranBack := reluMaskCheck(t, l.String(), act, dz, zeroFrom)
				if want := reluKernelLevel(l, n); ranMask != want || ranBack != want {
					t.Fatalf("level %v n=%d: the %v mask and %v backward kernels ran, want %v",
						l, n, ranMask, ranBack, want)
				}
			}
		}
	})
}

// FuzzReLUBackwardMask runs reluMaskCheck at every level this CPU has on
// fuzzer-chosen bits: act and dz are the two byte strings read four bytes per
// float (the shorter one sets the length), so any bit pattern — every NaN
// payload, subnormal and signed zero — can land in any lane, and zeroFrom is
// any start in [0, n].
func FuzzReLUBackwardMask(f *testing.F) {
	for _, n := range []int{0, 1, 31, 32, 33, 64, 70, 129} {
		b := make([]byte, 4*n)
		for i := range b {
			b[i] = byte(i * 37)
		}
		f.Add(b, b[:len(b)/4*4], uint16(n/3))
	}
	floats := func(b []byte) []float32 {
		s := make([]float32, len(b)/4)
		for i := range s {
			s[i] = math.Float32frombits(uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24)
		}
		return s
	}
	f.Fuzz(func(t *testing.T, actBytes, dzBytes []byte, zero uint16) {
		act, dz := floats(actBytes), floats(dzBytes)
		n := min(len(act), len(dz))
		act, dz = act[:n], dz[:n]
		zeroFrom := int(zero) % (n + 1)
		for _, l := range availableLevels() {
			withSIMD(t, l, func() {
				ranMask, ranBack := reluMaskCheck(t, l.String(), act, dz, zeroFrom)
				if want := reluKernelLevel(l, n); ranMask != want || ranBack != want {
					t.Fatalf("level %v n=%d: the %v mask and %v backward kernels ran, want %v",
						l, n, ranMask, ranBack, want)
				}
			})
		}
	})
}

// TestReLUMaskPanicsOnShortMask: the kernels take their extents on trust, so
// the wrappers must refuse a mask too short for the matrix, and a zeroing
// row outside it, before anything is read or written.
func TestReLUMaskPanicsOnShortMask(t *testing.T) {
	m := New(3, 11) // 33 elements: two words
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"ReLUMask short", func() { ReLUMask(make([]int32, 1), m, 0) }},
		{"ReLUMask row -1", func() { ReLUMask(make([]int32, 2), m, -1) }},
		{"ReLUMask row 4", func() { ReLUMask(make([]int32, 2), m, 4) }},
		{"ReLUBackward short", func() { ReLUBackward(m, make([]int32, 1)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.run()
		}()
	}
}

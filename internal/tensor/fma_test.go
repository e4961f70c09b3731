package tensor

import (
	"math"
	"math/big"
	"testing"
)

// fma32 is the fused step as the tests and the reference kernels spell it:
// a·b + c rounded once to float32.
func fma32(a, b, c float32) float32 { return fmaProduct(float64(a)*float64(b), c) }

// fmaBig is the oracle of the fused step: a·b + c computed exactly in
// math/big and rounded once to float32 (to nearest, ties to even; Float32
// rounds to the precision a subnormal has). A non-finite operand gives a
// non-finite result, which float64 arithmetic states exactly. 512 bits hold
// any finite sum exactly: it spans 2¹²⁸ down to 2⁻²⁹⁸ at most.
func fmaBig(a, b, c float32) float32 {
	fa, fb, fc := float64(a), float64(b), float64(c)
	if math.IsInf(fa, 0) || math.IsInf(fb, 0) || math.IsInf(fc, 0) || a != a || b != b || c != c {
		return float32(fa*fb + fc)
	}
	x := new(big.Float).SetPrec(512).SetFloat64(fa)
	x.Mul(x, new(big.Float).SetFloat64(fb))
	x.Add(x, new(big.Float).SetFloat64(fc))
	r, _ := x.Float32()
	if r == 0 { // big.Float signs an exact zero sum as IEEE does only for two zeros
		if fa*fb == 0 && fc == 0 {
			return float32(fa*fb + fc)
		}
		if x.Sign() == 0 {
			return 0
		}
	}
	return r
}

// sameFloat is bit equality, NaN by class.
func sameFloat(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

func f32(bits uint32) float32 { return math.Float32frombits(bits) }

func TestFMA32(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	u := float32(1.0 / (1 << 20))
	cases := []struct {
		name    string
		a, b, c float32
		want    uint32 // checked beside the oracle; NaN results by class
	}{
		// a·b = 2⁻²⁴(1 − 2⁻⁴⁰) puts the float64 sum on the midpoint 1 + 3·2⁻²⁴,
		// which ties to even upwards; the exact sum lies below it.
		{"double rounding", (1 + u) / 4096, (1 - u) / 4096, 1 + 1.0/(1<<23), 0x3f800001},
		{"double rounding, negated", -(1 + u) / 4096, (1 - u) / 4096, -(1 + 1.0/(1<<23)), 0xbf800001},
		// The same below 2⁻¹²⁶: the largest subnormal plus half its ulp, less
		// 2⁻¹⁹⁰, must not round up to the smallest normal.
		{"double rounding, subnormal", (1 + u) / (1 << 75), (1 - u) / (1 << 75), f32(0x007fffff), 0x007fffff},
		{"subnormal product", 1.0 / (1 << 74), 1.0 / (1 << 74), 0, 0x00000002},
		{"subnormal tie to even", 1.0 / (1 << 75), 1.0 / (1 << 75), 0, 0},
		{"subnormal above the tie", (1 + 2*u/8) / (1 << 75), 1.0 / (1 << 75), 0, 0x00000001},
		{"subnormal sum", f32(0x00000003), 1, f32(0x80000001), 0x00000002},
		{"underflow to −0", 1.0 / (1 << 100), -1.0 / (1 << 100), 0, 0x80000000},
		{"+0 + −0", 0, 1, negZero, 0},
		{"−0 + −0", negZero, 1, negZero, 0x80000000},
		{"−0·−0 + −0", negZero, negZero, negZero, 0},
		{"exact cancellation", -1, 1, 1, 0},
		{"no intermediate overflow", math.MaxFloat32, 2, -math.MaxFloat32, 0x7f7fffff},
		{"overflow", math.MaxFloat32, 2, 0, 0x7f800000},
		{"overflow tie", math.MaxFloat32, 1, 1 << 103, 0x7f800000},
		{"below the overflow tie", math.MaxFloat32, 1, (1 << 103) * (1 - 1.0/(1<<24)), 0x7f7fffff},
		{"∞·0", inf, 0, 1, 0x7fc00000},
		{"∞ − ∞", inf, 1, -inf, 0x7fc00000},
		{"∞·2 + 1", inf, 2, 1, 0x7f800000},
		{"1 − ∞", 1, 1, -inf, 0xff800000},
		{"NaN·1", nan, 1, 1, 0x7fc00000},
		{"1 + NaN", 1, 1, nan, 0x7fc00000},
		{"0·NaN", 0, nan, 0, 0x7fc00000},
	}
	for _, tc := range cases {
		got, oracle, want := fma32(tc.a, tc.b, tc.c), fmaBig(tc.a, tc.b, tc.c), f32(tc.want)
		if !sameFloat(oracle, want) {
			t.Fatalf("%s: math/big gives %#x, the table %#x", tc.name, math.Float32bits(oracle), tc.want)
		}
		if !sameFloat(got, want) {
			t.Errorf("%s: fma32(%g, %g, %g) = %#x, want %#x", tc.name, tc.a, tc.b, tc.c, math.Float32bits(got), tc.want)
		}
	}
	// Rounding twice is what the table's first case tells apart.
	a, b, c := cases[0].a, cases[0].b, cases[0].c
	if got := math.Float32bits(float32(math.FMA(float64(a), float64(b), float64(c)))); got != 0x3f800002 {
		t.Fatalf("float32(math.FMA) = %#x, want the double-rounded 0x3f800002", got)
	}
}

// FuzzFMA32 pins fma32 to the math/big oracle on any three bit patterns.
func FuzzFMA32(f *testing.F) {
	for _, s := range [][3]uint32{
		{0x39800008, 0x397ffff0, 0x3f800001}, // the double-rounding case
		{0x1a000008, 0x19fffff0, 0x007fffff}, // its subnormal twin
		{0x7f7fffff, 0x40000000, 0xff7fffff},
		{0x7f800000, 0, 0x3f800000},
		{0x80000000, 0x3f800000, 0x80000000},
		{0x0d800000, 0x8d800000, 0},
	} {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		fa, fb, fc := f32(a), f32(b), f32(c)
		if got, want := fma32(fa, fb, fc), fmaBig(fa, fb, fc); !sameFloat(got, want) {
			t.Fatalf("fma32(%#x, %#x, %#x) = %#x, math/big %#x", a, b, c, math.Float32bits(got), math.Float32bits(want))
		}
	})
}

// tieCases fills x and c so that x[j]·w + c[j] lands the float64 sum on a
// float32 midpoint it does not equal, in every lane, at scales 2^±30 and
// both signs, with w = ±2⁻¹²(1 − 2⁻²⁰): a kernel that rounds the product
// first, or rounds the float64 sum, gets the lanes whose c ends in an odd
// bit wrong. It returns w.
func tieCases(rng *RNG, x, c []float32) float32 {
	u := float32(1.0 / (1 << 20))
	w := (1 - u) / 4096
	if rng.Intn(2) == 0 {
		w = -w
	}
	for j := range x {
		scale := float32(math.Ldexp(1, rng.Intn(61)-30))
		x[j] = (1 + u) / 4096 * scale
		c[j] = (1 + float32(rng.Intn(1<<20))/(1<<23)) * scale
		if rng.Intn(2) == 0 {
			x[j] = -x[j]
		}
		if rng.Intn(2) == 0 {
			c[j] = -c[j]
		}
	}
	return w
}

// requireDiscriminates fails unless rounding twice gets some lane of tieCases
// wrong, so a test fed by it tells fused from double-rounded arithmetic.
func requireDiscriminates(t *testing.T, x, c []float32, w float32) {
	t.Helper()
	for j := range x {
		if float32(float64(x[j])*float64(w)+float64(c[j])) != fma32(x[j], w, c[j]) {
			return
		}
	}
	t.Fatal("no lane of the tie cases rounds differently twice")
}

// fusedLevels are the levels whose kernels fuse in hardware, each of which
// the lane tests must run; generic is fma32 itself.
func fusedLevels(t *testing.T) []SIMDLevel {
	levels := availableLevels()[1:]
	if len(levels) == 0 {
		t.Skip("no SIMD level on this CPU")
	}
	return levels
}

// TestAxpyRowLanesAreFMA32: the row update's kernel, and AxpyRow with its
// scalar tail, equal fma32 lane for lane on the tie cases, ordinary values
// and non-finite ones. axpyRowAVX2Asm is called directly, so the kernel ran.
func TestAxpyRowLanesAreFMA32(t *testing.T) {
	for _, l := range fusedLevels(t) {
		withSIMD(t, l, func() {
			rng := NewRNG(52)
			for _, n := range raggedLens {
				for pass := 0; pass < 3; pass++ {
					src, dst := make([]float32, n), make([]float32, n)
					alpha := tieCases(rng, src, dst)
					switch pass {
					case 0:
						if n >= 8 {
							requireDiscriminates(t, src, dst, alpha)
						}
					case 1:
						src, dst, alpha = randSlice(rng, n), randSlice(rng, n), float32(rng.NormFloat64())
					case 2:
						src, dst = specialValues(rng, n), specialValues(rng, n)
					}
					want := make([]float32, n)
					for j := range want {
						want[j] = fma32(src[j], alpha, dst[j])
					}
					got := append([]float32(nil), dst...)
					AxpyRow(got, src, alpha)
					if j, ok := sameBits(got, want); !ok {
						t.Fatalf("level %v n=%d pass %d: AxpyRow lane %d = %#x, fma32 %#x",
							l, n, pass, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
					}
					if q := n &^ 7; q > 0 {
						got = append(got[:0], dst...)
						axpyRowAVX2Asm(got[:q], src[:q], alpha)
						if j, ok := sameBits(got[:q], want[:q]); !ok {
							t.Fatalf("level %v n=%d pass %d: axpyRowAVX2Asm lane %d = %#x, fma32 %#x",
								l, n, pass, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
						}
					}
				}
			}
		})
	}
}

// TestAggregateRowLanesAreFMA32: the level's aggregation kernel (the
// aggregateRow seam reports which ran) equals a loop of fma32 steps in edge
// order, lane for lane, on every column form of both kernels, with every
// edge's sum on a tie case and with ordinary and non-finite rows.
func TestAggregateRowLanesAreFMA32(t *testing.T) {
	for _, l := range fusedLevels(t) {
		withSIMD(t, l, func() {
			rng := NewRNG(53)
			for _, cols := range aggCols {
				for _, special := range []bool{false, true} {
					const degree = 5
					out, h, idx, w := aggCase(rng, cols, degree, special)
					if !special { // edge 0's sums all land on tie cases
						h0 := h[int(idx[0])*cols:][:cols]
						w[0] = tieCases(rng, h0, out)
						if cols >= 8 {
							requireDiscriminates(t, h0, out, w[0])
						}
					}
					want := append([]float32(nil), out...)
					for e, s := range idx {
						for j := range want {
							want[j] = fma32(h[int(s)*cols+j], w[e], want[j])
						}
					}
					if ran := aggregateRow(out, h, cols, idx, w); ran != l {
						t.Fatalf("level %v: the %v aggregation kernel ran", l, ran)
					}
					if j, ok := sameBits(out, want); !ok {
						t.Fatalf("level %v cols=%d special=%v: lane %d = %#x, fma32 %#x",
							l, cols, special, j, math.Float32bits(out[j]), math.Float32bits(want[j]))
					}
				}
			}
		})
	}
}

// TestGemmTileLanesAreFMA32: the level's GEMM tile (gemmStrips at that level,
// which takes the level as given) equals a loop of fma32 steps over k, lane
// for lane, for 1–6 rows, every column form and both entries — onto C and
// from +0 — with step 0's sums on tie cases: B's row 0 and every row's A
// element at step 0 are tieCases' x and w, and each C row is its c with the
// low mantissa bits redrawn, which keeps every lane a tie case. B is read at
// its own leading dimension: n (row-major) or wider, the columns past n NaN,
// so a tile that read B at C's stride or past its w columns shows.
func TestGemmTileLanesAreFMA32(t *testing.T) {
	for _, l := range fusedLevels(t) {
		rng := NewRNG(54)
		for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 64, 100} {
			for _, ldb := range []int{n, n + 3} {
				for rows := 1; rows <= gemmRows; rows++ {
					for zero := 0; zero <= 1; zero++ {
						const kc = 6
						a, b := randSlice(rng, rows*kc), randSlice(rng, kc*ldb)
						for s := 0; s < kc; s++ {
							for j := n; j < ldb; j++ {
								b[s*ldb+j] = float32(math.NaN())
							}
						}
						c := make([]float32, rows*n)
						w := tieCases(rng, b[:n], c[:n])
						for r := 0; r < rows; r++ {
							a[r*kc] = w
							cr := c[r*n : r*n+n]
							for j := range cr {
								cr[j] = math.Float32frombits(math.Float32bits(c[j]) ^ uint32(rng.Intn(1<<20)))
							}
							if n >= 8 {
								requireDiscriminates(t, b[:n], cr, w)
							}
						}
						want := append([]float32(nil), c...)
						for r := 0; r < rows; r++ {
							cr := want[r*n : r*n+n]
							if zero != 0 {
								clear(cr)
							}
							for s := 0; s < kc; s++ {
								for j := range cr {
									cr[j] = fma32(a[r*kc+s], b[s*ldb+j], cr[j])
								}
							}
						}
						gemmStrips(l, c, a, b, n, ldb, n, kc, 1, kc, rows, zero)
						if i, ok := sameBits(c, want); !ok {
							t.Fatalf("level %v n=%d ldb=%d rows=%d zero=%d: C(%d,%d) = %#x, fma32 %#x",
								l, n, ldb, rows, zero, i/n, i%n, math.Float32bits(c[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

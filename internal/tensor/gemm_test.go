package tensor

import (
	"math"
	"testing"
)

// sameBits reports whether got and want hold the same float32 bit patterns,
// counting any NaN equal to any NaN (which NaN an operation returns depends
// on operand order, which no kernel promises).
func sameBits(got, want []float32) (int, bool) {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i, false
		}
	}
	return 0, len(got) == len(want)
}

// forEachLevelAndParallelism runs fn at every dispatch level this CPU has and
// at kernel parallelism 1 and 4.
func forEachLevelAndParallelism(t *testing.T, fn func(l SIMDLevel, par int)) {
	t.Helper()
	defer SetParallelism(Parallelism())
	for _, l := range availableLevels() {
		for _, par := range []int{1, 4} {
			SetParallelism(par)
			withSIMD(t, l, func() { fn(l, par) })
		}
	}
}

// gemmCheck computes the three reference products of one (m, k, n) once —
// a is m×k, b is k×n, and TMatMul is fed aᵀ so all three kernels compute the
// same product — and returns a check that runs the kernels at the current
// level and parallelism and compares each with its reference bit for bit. C
// goes in dirty — all NaN, then all 0xdeadbeef: from AVX2 up nothing clears it
// and the first k-chunk's tiles must overwrite every element, whatever it held.
func gemmCheck(a, b *Matrix) func(t *testing.T, what string) {
	m, n := a.Rows, b.Cols
	bt, at := Transpose(b), Transpose(a)
	got := New(m, n)
	kernels := []struct {
		name string
		run  func()
		want *Matrix
	}{
		{"MatMul", func() { MatMul(got, a, b) }, New(m, n)},
		{"MatMulT", func() { MatMulT(got, a, bt) }, New(m, n)},
		{"TMatMul", func() { TMatMul(got, at, b) }, New(m, n)},
	}
	MatMulRef(kernels[0].want, a, b)
	MatMulTRef(kernels[1].want, a, bt)
	TMatMulRef(kernels[2].want, at, b)
	return func(t *testing.T, what string) {
		t.Helper()
		for _, kern := range kernels {
			for _, dirt := range []float32{float32(math.NaN()), math.Float32frombits(0xdeadbeef)} {
				got.Fill(dirt)
				kern.run()
				if i, ok := sameBits(got.Data, kern.want.Data); !ok {
					t.Fatalf("%s: %s %dx%dx%d differs from its reference at (%d,%d): %x want %x", what, kern.name,
						m, a.Cols, n, i/n, i%n, math.Float32bits(got.Data[i]), math.Float32bits(kern.want.Data[i]))
				}
			}
		}
	}
}

// TestGemmTileEdgesExact walks every edge of the register tile — each row
// remainder, each column form (two vectors, one vector, masked — 16 / 8 / ≤ 8
// columns on YMM, 32 / 16 / ≤ 16 on ZMM) alone and combined, and k spanning
// none, one, two and three chunks of every kernel (on both sides of the first
// boundary) — at every dispatch level, plus shapes large enough that
// parallelism 4 really splits the rows.
func TestGemmTileEdgesExact(t *testing.T) {
	ns := []int{1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 47, 48, 49, 63, 64, 65, 100, 128, 172, 256}
	ks := []int{0, 1, 3, tmKC + 1, 2*tmKC + 1, mmKC - 1, mmKC, mmKC + 5, 2*mmKC + 1}
	if raceEnabled { // the instrumented reference loops are the cost; keep one of each kind
		ns = []int{1, 9, 24, 47, 49, 128}
		ks = []int{0, 3, 2*tmKC + 1, mmKC + 5, 2*mmKC + 1}
	}
	var shapes [][3]int
	for m := 4; m < 8; m++ {
		for _, n := range ns {
			for _, k := range ks {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	// Above the fan-out grain: chunk boundaries fall wherever rows/degree puts
	// them, so strips of fewer than four rows end up in the middle of C.
	fanned := [][3]int{{131, mmKC + 5, 47}, {47, 3*tmKC + 7, 256}, {256, 2 * tmKC, 47}}
	rng := NewRNG(20)
	for i, sh := range append(fanned, shapes...) {
		check := gemmCheck(randomMatrix(sh[0], sh[1], rng), randomMatrix(sh[1], sh[2], rng))
		forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
			if i < len(fanned) {
				requireFanOut(t, "GEMM", sh[0], sh[1]*sh[2])
			}
			check(t, "level "+l.String())
		})
	}
}

// TestGemmRangeChunksAndRaggedRanges drives the range kernel the way a
// fan-out chunk does — an arbitrary [lo, hi) of C's rows — under TMatMul's
// addressing, with the shared dimension on both sides of its chunk boundary.
// Rows inside the range must equal the reference; rows outside must keep what
// they held.
func TestGemmRangeChunksAndRaggedRanges(t *testing.T) {
	const m = 11
	ranges := [][2]int{{0, m}, {0, 1}, {1, 4}, {3, 10}, {5, 6}, {6, m}, {2, 2}}
	forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
		rng := NewRNG(21)
		for _, R := range []int{tmKC - 1, tmKC, tmKC + 1, 3*tmKC + 7} {
			for _, n := range []int{7, 16, 47} {
				a, b := randomMatrix(R, m, rng), randomMatrix(R, n, rng)
				want, untouched := New(m, n), New(1, n)
				TMatMulRef(want, a, b)
				untouched.Fill(5)
				for _, r := range ranges {
					lo, hi := r[0], r[1]
					got := New(m, n)
					got.Fill(5)
					gemmRange(got, a.Data, 1, m, b.Data, R, tmKC, lo, hi)
					for i := 0; i < m; i++ {
						row, ref := got.Row(i), want.Row(i)
						if i < lo || i >= hi {
							ref = untouched.Data
						}
						if j, ok := sameBits(row, ref); !ok {
							t.Fatalf("level %v R=%d n=%d rows [%d,%d): C(%d,%d) = %v, want %v",
								l, R, n, lo, hi, i, j, row[j], ref[j])
						}
					}
				}
			}
		}
	})
}

// TestGemmNonFiniteMatchesReference pins the kernels to the reference loops
// on inputs a zero skip gets wrong: with ±Inf and NaN in one operand opposite
// exact zeros in the other, 0·Inf is NaN in the reference and "no update"
// under a skip. −0 rides along: products and sums of signed zeros must land
// on the reference's sign.
func TestGemmNonFiniteMatchesReference(t *testing.T) {
	// scatter overwrites about a quarter of m with specials, and zeroes the
	// elements of other that each one meets in some product.
	scatter := func(rng *RNG, m, other *Matrix, otherIdx func(i int) int) {
		for i := range m.Data {
			if rng.Intn(4) == 0 {
				m.Data[i] = specials[rng.Intn(len(specials))]
				if rng.Intn(2) == 0 {
					other.Data[otherIdx(i)] = 0
				}
			}
		}
	}
	rng := NewRNG(22)
	// The last two end in a narrow masked tile that is not C's last strip: the
	// tail's dead lanes multiply a zero-filled B by A's ±Inf / NaN, and a dead
	// lane stored would poison the next strip's first columns.
	for _, sh := range [][3]int{{4, 8, 16}, {7, 13, 47}, {9, 40, 8}, {3, 5, 7}, {32, 64, 31}, {6, 9, 49}, {9, 5, 172}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := randomMatrix(m, k, rng), randomMatrix(k, n, rng)
		// b's special at (t, j) meets a(i, t) for every i: zero one of them.
		scatter(rng, b, a, func(i int) int { return rng.Intn(m)*k + i/n })
		// a's special at (i, t) meets b(t, j) for every j.
		scatter(rng, a, b, func(i int) int { return (i%k)*n + rng.Intn(n) })
		check := gemmCheck(a, b)
		forEachLevelAndParallelism(t, func(l SIMDLevel, par int) { check(t, "non-finite, level "+l.String()) })
	}
}

// TestGemmWritesOnlyItsRows is the out-of-bounds canary for the two places
// the micro-kernel could write where it must not: the masked store of the
// last columns (n mod 8 on YMM, n mod 16 on ZMM — from one live lane to all
// but one, alone and after each full-width form) and the strip of fewer than
// four rows, whose missing rows are computed (on row 0's A) but must never be
// stored. C sits inside a larger buffer of sentinels, A and B end exactly at
// their capacity, and the rows of C outside [lo, hi) hold a second sentinel.
func TestGemmWritesOnlyItsRows(t *testing.T) {
	const pad = 64
	guard, outside := math.Float32frombits(0xdeadbeef), math.Float32frombits(0xfeedface)
	forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
		rng := NewRNG(23)
		for _, m := range []int{1, 2, 3, 5, 6, 7} {
			for _, n := range []int{1, 7, 9, 15, 17, 23, 31, 33, 47, 48, 49, 63} {
				for _, k := range []int{1, 5} {
					a, b := randomMatrix(m, k, rng), randomMatrix(k, n, rng)
					at := Transpose(a)
					want := New(m, n)
					MatMulRef(want, a, b)
					buf := make([]float32, pad+m*n+pad)
					c := &Matrix{Rows: m, Cols: n, Data: buf[pad : pad+m*n : pad+m*n]}
					for lo := 0; lo < m; lo++ {
						for hi := lo + 1; hi <= m; hi++ {
							for _, tr := range []bool{false, true} {
								for i := range buf {
									buf[i] = guard
								}
								c.Fill(outside)
								if tr {
									gemmRange(c, at.Data, 1, m, b.Data, k, tmKC, lo, hi)
								} else {
									gemmRange(c, a.Data, k, 1, b.Data, k, mmKC, lo, hi)
								}
								for i, v := range buf {
									wantV := guard
									if r := (i - pad) / n; i >= pad && i < pad+m*n {
										wantV = outside
										if r >= lo && r < hi {
											wantV = want.Data[i-pad]
										}
									}
									if math.Float32bits(v) != math.Float32bits(wantV) {
										t.Fatalf("level %v %dx%dx%d rows [%d,%d) transposed=%v: buffer[%d] (C offset %d) = %x, want %x",
											l, m, k, n, lo, hi, tr, i, i-pad, math.Float32bits(v), math.Float32bits(wantV))
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

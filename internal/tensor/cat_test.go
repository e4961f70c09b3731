package tensor

import (
	"fmt"
	"math"
	"testing"
)

// catMaterialised builds [A1′ | A2] the way the kernels never do: row i is
// row rows1[i] of a1 (rows1 nil: row i) followed by row i of a2.
func catMaterialised(a1 *Matrix, rows1 []int32, a2 *Matrix) *Matrix {
	out := New(a2.Rows, a1.Cols+a2.Cols)
	for i := 0; i < a2.Rows; i++ {
		r := i
		if rows1 != nil {
			r = int(rows1[i])
		}
		copy(out.Row(i), a1.Row(r))
		copy(out.Row(i)[a1.Cols:], a2.Row(i))
	}
	return out
}

// catCase is one concatenated-operand product: A1 has a1Rows×k1, A2 has
// rows×k2, B's other side is n wide, and mapped draws rows1 with repeats.
type catCase struct {
	rows, a1Rows, k1, k2, n int
	mapped                  bool
	planted                 bool // ±Inf, NaN and −0 in A1, A2 and B
}

func (cc catCase) String() string {
	return fmt.Sprintf("rows=%d a1=%dx%d k2=%d n=%d mapped=%v planted=%v",
		cc.rows, cc.a1Rows, cc.k1, cc.k2, cc.n, cc.mapped, cc.planted)
}

// catOperands draws a case's A1, rows1 and A2. A mapped rows1 repeats rows
// (every third entry copies an earlier one) and names A1's first and last
// rows; a planted case puts specials into about a quarter of every operand.
func catOperands(rng *RNG, cc catCase) (a1 *Matrix, rows1 []int32, a2 *Matrix) {
	draw := func(r, c int) *Matrix {
		if cc.planted {
			return FromSlice(r, c, specialValues(rng, r*c))
		}
		return FromSlice(r, c, randSlice(rng, r*c))
	}
	a1, a2 = draw(cc.a1Rows, cc.k1), draw(cc.rows, cc.k2)
	if cc.mapped {
		rows1 = make([]int32, cc.rows)
		for i := range rows1 {
			rows1[i] = int32(rng.Intn(cc.a1Rows))
			if i > 0 && i%3 == 0 {
				rows1[i] = rows1[rng.Intn(i)]
			}
		}
		if cc.rows > 1 {
			rows1[0], rows1[cc.rows-1] = int32(cc.a1Rows-1), 0
		}
	}
	return a1, rows1, a2
}

// catCases is the shape table both kernel tests run: row counts on both
// sides of the 6-row strip and of the catPanel-row block (the block after one
// and after two full blocks ends in a short strip), every column tail form of
// both tile widths, an empty left or right half, a half longer than a
// MatMul k-chunk, planted specials, with rows1 nil and mapped.
func catCases() []catCase {
	rowCounts, ns := []int{1, 5, catPanel + 3, 2*catPanel + 5}, []int{1, 15, 47, 172, 256}
	if raceEnabled { // the instrumented reference loops are the cost
		rowCounts, ns = []int{5, catPanel + 3}, []int{15, 47, 256}
	}
	var cases []catCase
	for _, rows := range rowCounts {
		for _, n := range ns {
			for _, k := range [][2]int{{0, 9}, {9, 0}, {7, 5}, {100, 100}} {
				for _, mapped := range []bool{false, true} {
					cases = append(cases, catCase{rows, rows + 3, k[0], k[1], n, mapped, false})
				}
			}
		}
	}
	for _, mapped := range []bool{false, true} {
		cases = append(cases,
			catCase{6, 11, mmKC + 3, 5, 47, mapped, false},
			catCase{7, 7, 13, 9, 47, mapped, true},
			catCase{33, 40, 40, 24, 172, mapped, true},
			catCase{0, 4, 5, 6, 15, mapped, false})
	}
	return cases
}

// forEachLevelAndCatParallelism runs fn at every dispatch level this CPU has
// and at kernel parallelism 1, 3 and 4.
func forEachLevelAndCatParallelism(t *testing.T, fn func(l SIMDLevel, par int)) {
	t.Helper()
	defer SetParallelism(Parallelism())
	for _, l := range availableLevels() {
		for _, par := range []int{1, 3, 4} {
			SetParallelism(par)
			withSIMD(t, l, func() { fn(l, par) })
		}
	}
}

// requireSameBits fails unless got and want hold the same bit patterns,
// NaN payloads included: the two paths run the same operations on the same
// operands in the same order.
func requireSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i, w := range want.Data {
		if g := got.Data[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: C(%d,%d) = %x, materialised %x", what, i/want.Cols, i%want.Cols,
				math.Float32bits(g), math.Float32bits(w))
		}
	}
}

// checkMatMulCat runs MatMulCat into a dirty C and compares it with MatMul
// over the materialised operand.
func checkMatMulCat(t *testing.T, what string, a1 *Matrix, rows1 []int32, a2, b *Matrix) {
	t.Helper()
	want, got := New(a2.Rows, b.Cols), New(a2.Rows, b.Cols)
	MatMul(want, catMaterialised(a1, rows1, a2), b)
	got.Fill(float32(math.NaN()))
	MatMulCat(got, a1, rows1, a2, b)
	requireSameBits(t, what, got, want)
}

// checkTMatMulCat runs TMatMulCat into a dirty C and compares it with
// TMatMul over the materialised operand.
func checkTMatMulCat(t *testing.T, what string, a1 *Matrix, rows1 []int32, a2, b *Matrix) {
	t.Helper()
	want, got := New(a1.Cols+a2.Cols, b.Cols), New(a1.Cols+a2.Cols, b.Cols)
	TMatMul(want, catMaterialised(a1, rows1, a2), b)
	got.Fill(float32(math.NaN()))
	TMatMulCat(got, a1, rows1, a2, b)
	requireSameBits(t, what, got, want)
}

// TestMatMulCatMatchesMaterialisedSIMD pins MatMulCat to MatMul over the
// [A1′ | A2] it never forms, bit for bit, at every dispatch level and kernel
// parallelism 1, 3 and 4, over catCases, one shape above the fan-out grain
// (asserted) whose row count is a multiple of neither the strip nor the
// panel, so workers start and end blocks mid-panel (and at parallelism 1 the
// one range packs B), and one that fans out and packs B in every range
// (asserted), with a 26-column last panel.
func TestMatMulCatMatchesMaterialisedSIMD(t *testing.T) {
	cases := append(catCases(), catCase{1027, 1100, 100, 100, 47, false, false},
		catCase{1027, 1100, 100, 100, 47, true, false})
	const packedRows = 4*packMinRows + 5
	for _, mapped := range []bool{false, true} {
		cases = append(cases, catCase{packedRows, packedRows + 9, 3, 2, 250, mapped, false})
	}
	forEachLevelAndCatParallelism(t, func(l SIMDLevel, par int) {
		rng := NewRNG(47)
		for _, cc := range cases {
			if cc.rows == 1027 { // the two shapes above the grain
				requireFanOut(t, "MatMulCat", cc.rows, (cc.k1+cc.k2)*cc.n)
			}
			if cc.rows == packedRows { // fanned out, every range still packs
				strips, work := (cc.rows+gemmRows-1)/gemmRows, gemmRows*(cc.k1+cc.k2)*cc.n
				requireFanOut(t, "packed MatMulCat", strips, work)
				if !packs(cc.n, cc.rows/max(1, FanOut(strips, work))-gemmRows) {
					t.Fatalf("par %d: %v does not pack B in every range", par, cc)
				}
			}
			a1, rows1, a2 := catOperands(rng, cc)
			b := randomMatrix(cc.k1+cc.k2, cc.n, rng)
			if cc.planted {
				b = FromSlice(b.Rows, b.Cols, specialValues(rng, len(b.Data)))
			}
			checkMatMulCat(t, fmt.Sprintf("level %v par %d %v", l, par, cc), a1, rows1, a2, b)
		}
	})
}

// TestTMatMulCatMatchesMaterialisedSIMD pins TMatMulCat to TMatMul over the
// [A1′ | A2] it never forms, bit for bit, at every dispatch level and kernel
// parallelism 1, 3 and 4, over catCases, batches on both sides of one and two
// gather rounds, and one shape above the fan-out grain (asserted for a single
// round of the mapped half) whose batch ends mid-round.
func TestTMatMulCatMatchesMaterialisedSIMD(t *testing.T) {
	cases := catCases()
	rounds := []int{catRound - 1, catRound, catRound + 3, 2*catRound + 7}
	if raceEnabled {
		rounds = []int{catRound + 3}
	}
	for _, R := range rounds {
		for _, mapped := range []bool{false, true} {
			cases = append(cases, catCase{R, R + 5, 9, 7, 15, mapped, false})
		}
	}
	cases = append(cases, catCase{catRound + 89, 700, 64, 64, 172, true, false},
		catCase{catRound + 89, 700, 64, 64, 172, false, false})
	forEachLevelAndCatParallelism(t, func(l SIMDLevel, par int) {
		rng := NewRNG(48)
		for _, cc := range cases {
			if cc.k1 == 64 { // the two shapes above the grain
				requireFanOut(t, "TMatMulCat round", cc.k1, catRound*cc.n)
			}
			a1, rows1, a2 := catOperands(rng, cc)
			b := randomMatrix(cc.rows, cc.n, rng)
			if cc.planted {
				b = FromSlice(b.Rows, b.Cols, specialValues(rng, len(b.Data)))
			}
			checkTMatMulCat(t, fmt.Sprintf("level %v par %d %v", l, par, cc), a1, rows1, a2, b)
		}
	})
}

// TestMatMulCatPanicsOnBadShapes: a mapped row outside A1, a row map of the
// wrong length and an A1 too short for unmapped rows must all panic in Go.
func TestMatMulCatPanicsOnBadShapes(t *testing.T) {
	a1, a2, b, bt := New(4, 8), New(3, 8), New(16, 5), New(3, 5)
	c, ct := New(3, 5), New(16, 5)
	for name, fn := range map[string]func(){
		"row outside A1":      func() { MatMulCat(c, a1, []int32{0, 4, 1}, a2, b) },
		"short row map":       func() { MatMulCat(c, a1, []int32{0, 1}, a2, b) },
		"short unmapped A1":   func() { MatMulCat(c, New(2, 8), nil, a2, b) },
		"T row outside A1":    func() { TMatMulCat(ct, a1, []int32{0, -1, 1}, a2, bt) },
		"T short row map":     func() { TMatMulCat(ct, a1, []int32{0}, a2, bt) },
		"T short unmapped A1": func() { TMatMulCat(ct, New(2, 8), nil, a2, bt) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzMatMulCat pins both kernels to the materialised products at every
// level this CPU has: the fuzzer picks the row count (0–80), both halves'
// widths (0–40), n (1–300), whether rows1 maps and how often it repeats, and
// where −0, ±Inf and NaN land in A1, A2 and B (four bytes each: which
// operand, where, which value).
func FuzzMatMulCat(f *testing.F) {
	for i, sh := range [][4]int{{1, 0, 9, 1}, {5, 9, 0, 15}, {33, 7, 5, 47}, {70, 40, 40, 172},
		{31, 13, 9, 256}, {0, 5, 6, 15}, {4, 1, 1, 1}, {65, 17, 33, 100}} {
		f.Add(uint8(sh[0]), uint8(sh[1]), uint8(sh[2]), uint16(sh[3]-1), i%2 == 1, uint8(i), uint64(i),
			[]byte{byte(i), byte(i * 37), 0, byte(i), byte(i + 1), byte(i * 11), 1, byte(i + 2)})
	}
	f.Fuzz(func(t *testing.T, rows, k1, k2 uint8, width uint16, mapped bool, dup uint8, seed uint64, places []byte) {
		cc := catCase{rows: int(rows) % 81, k1: int(k1) % 41, k2: int(k2) % 41, n: int(width)%300 + 1, mapped: mapped}
		cc.a1Rows = cc.rows + 1 + int(dup)%7
		rng := NewRNG(seed)
		a1, rows1, a2 := catOperands(rng, cc)
		b, bt := randomMatrix(cc.k1+cc.k2, cc.n, rng), randomMatrix(cc.rows, cc.n, rng)
		for ; len(places) >= 4; places = places[4:] {
			s := [][]float32{a1.Data, a2.Data, b.Data, bt.Data}[int(places[0])%4]
			if len(s) > 0 {
				s[(int(places[1])|int(places[2])<<8)%len(s)] = specials[int(places[3])%len(specials)]
			}
		}
		for _, l := range availableLevels() {
			withSIMD(t, l, func() {
				what := fmt.Sprintf("level %v %v", l, cc)
				checkMatMulCat(t, "MatMulCat "+what, a1, rows1, a2, b)
				checkTMatMulCat(t, "TMatMulCat "+what, a1, rows1, a2, bt)
			})
		}
	})
}

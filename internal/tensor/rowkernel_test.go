package tensor

import (
	"math"
	"testing"
)

// The three row kernels — the vector exp under the loss, the
// destination-stationary aggregation row, the index-driven gather — each
// pinned to the Go loop it replaces, at every dispatch level this CPU has and
// at kernel parallelism 1 and 4.

// expInputs is the argument set of TestExpRowMatchesMathExpSIMD: a strided
// sweep of all float32 bit patterns, dense samples of the softmax's working
// range and of everything math.Exp evaluates by its polynomial, and every
// float32 within 4 ULP of the points where math.Exp changes path.
func expInputs() []float32 {
	var in []float32
	for b := uint64(0); b < 1<<32; b += 4099 {
		in = append(in, math.Float32frombits(uint32(b)))
	}
	rng := NewRNG(31)
	for i := 0; i < 100000; i++ {
		in = append(in, float32(-30*rng.Float64()), float32(-709+1418*rng.Float64()))
	}
	// The kernel's own bounds, math.Exp's overflow threshold, the first
	// denormal result (ln 2^-1022), the last one (ln 2^-1074) and the
	// underflow-to-zero threshold.
	for _, edge := range []float64{expLo, expHi, 7.09782712893384e+02, -708.3964185322641, -744.4400719213812, -745.1332191019412} {
		lo, hi := float32(edge), float32(edge)
		in = append(in, lo)
		for u := 0; u < 4; u++ {
			lo, hi = math.Nextafter32(lo, float32(math.Inf(-1))), math.Nextafter32(hi, float32(math.Inf(1)))
			in = append(in, lo, hi)
		}
	}
	return append(in, 0, float32(negZero()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xffc12345))
}

// TestExpRowMatchesMathExpSIMD pins expRow to math.Exp bit for bit (NaN to
// NaN by class). At the generic level, and on a CPU without FMA,
// expRow *is* the math.Exp loop; from avx2 up it is expRowFMAAsm, a lane-wise
// transcription of math's own amd64 routine. This test is what fails if a Go
// release changes that routine (math/exp_amd64.s, archExp): the remedy is to
// re-derive the kernel from the new source or to drop it — never to re-record
// a loss golden, which the scalar levels would then contradict.
func TestExpRowMatchesMathExpSIMD(t *testing.T) {
	in := expInputs()
	want := make([]float64, len(in))
	for i, v := range in {
		want[i] = math.Exp(float64(v))
	}
	got := make([]float64, len(in))
	check := func(l SIMDLevel, lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			g, w := got[i], want[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
				t.Fatalf("level %v: expRow(%v = %#x) in a row of %d = %#x, math.Exp = %#x", l, in[i],
					math.Float32bits(in[i]), hi-lo, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
	forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
		for i := range got {
			got[i] = -1
		}
		expRow(got, in)
		check(l, 0, len(in))
		// Row lengths around the 4- and 8-lane steps and their scalar tail,
		// the class counts the repo trains and the softmax stage's edge, each
		// at every offset of a window so the specials meet every lane.
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 47, 172, 192, 193} {
			for lo := len(in) - 400; lo+n <= len(in); lo++ {
				for i := lo; i < lo+n; i++ {
					got[i] = -1
				}
				expRow(got[lo:lo+n], in[lo:lo+n])
				check(l, lo, lo+n)
			}
		}
	})
}

// aggCols and aggDegrees span every column pass of both aggregation kernels
// — the 256-bit one's 64, 32, 8 and masked tail, the 512-bit one's 128-column
// passes whose last vector runs under an opmask, alone and combined — and
// edge lists from empty to longer than any sampled fan-out.
var (
	aggCols = []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 64, 100, 112, 127, 128, 129, 143, 144,
		172, 192, 255, 256, 257, 300, 384, 385}
	aggDegrees = []int{0, 1, 2, 10, 25, 200}
)

// aggCase builds one AggregateRow problem: a table of rows h-rows × cols, an
// edge list of the given degree that repeats sources, and — when special —
// −0, ±Inf and NaN scattered through the table, the weights and the output.
func aggCase(rng *RNG, cols, degree int, special bool) (out, h []float32, idx []int32, w []float32) {
	const rows = 13
	h = randSlice(rng, rows*cols)
	out = randSlice(rng, cols)
	w = randSlice(rng, degree)
	idx = make([]int32, degree)
	for e := range idx {
		idx[e] = int32(rng.Intn(rows))
		if e > 0 && rng.Intn(3) == 0 {
			idx[e] = idx[rng.Intn(e)]
		}
	}
	if special {
		for _, s := range [][]float32{h, out, w} {
			for i := range s {
				if rng.Intn(6) == 0 {
					s[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
	}
	return out, h, idx, w
}

// axpyRowLoop is the loop AggregateRow replaces, run on a copy of out.
func axpyRowLoop(out, h []float32, cols int, idx []int32, w []float32) []float32 {
	want := append([]float32(nil), out...)
	for e, s := range idx {
		AxpyRow(want, h[int(s)*cols:int(s)*cols+cols], w[e])
	}
	return want
}

// TestAggregateRowMatchesAxpyRowLoopSIMD pins AggregateRow to the loop of
// AxpyRow calls it replaces, bit for bit, on ordinary and on non-finite
// inputs. At each level the kernel of that level must be the one that runs:
// on a CPU with AVX512F the test fails, rather than passes on the 256-bit
// kernel, if the 512-bit one did not run at avx512.
func TestAggregateRowMatchesAxpyRowLoopSIMD(t *testing.T) {
	forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
		rng := NewRNG(32)
		for _, cols := range aggCols {
			for _, degree := range aggDegrees {
				for _, special := range []bool{false, true} {
					out, h, idx, w := aggCase(rng, cols, degree, special)
					want := axpyRowLoop(out, h, cols, idx, w)
					AggregateRow(out, h, cols, idx, w)
					if j, ok := sameBits(out, want); !ok {
						t.Fatalf("level %v cols=%d degree=%d special=%v: out[%d] = %x, AxpyRow loop %x",
							l, cols, degree, special, j, math.Float32bits(out[j]), math.Float32bits(want[j]))
					}
				}
			}
		}
		out, h, idx, w := aggCase(rng, 100, 3, false)
		if ran := aggregateRow(out, h, 100, idx, w); ran != l {
			t.Fatalf("level %v: the %v aggregation kernel ran", l, ran)
		}
	})
}

// TestAggregateRowWritesOnlyItsRowSIMD is the kernel's out-of-bounds canary:
// out sits between sentinels inside a larger buffer and must be the only thing
// written — the masked tail's dead lanes included — and h, idx and w end
// exactly at their capacity (aggCase makes them so).
func TestAggregateRowWritesOnlyItsRowSIMD(t *testing.T) {
	const pad = 16
	guard := math.Float32frombits(0xdeadbeef)
	forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
		rng := NewRNG(33)
		for _, cols := range aggCols {
			for _, degree := range aggDegrees {
				out, h, idx, w := aggCase(rng, cols, degree, false)
				want := axpyRowLoop(out, h, cols, idx, w)
				buf := make([]float32, pad+cols+pad)
				for i := range buf {
					buf[i] = guard
				}
				copy(buf[pad:], out)
				AggregateRow(buf[pad:pad+cols:pad+cols], h, cols, idx, w)
				for i, v := range buf {
					wantV := guard
					if i >= pad && i < pad+cols {
						wantV = want[i-pad]
					}
					if math.Float32bits(v) != math.Float32bits(wantV) {
						t.Fatalf("level %v cols=%d degree=%d: buffer[%d] (out offset %d) = %x, want %x",
							l, cols, degree, i, i-pad, math.Float32bits(v), math.Float32bits(wantV))
					}
				}
			}
		}
	})
}

// TestAggregateRowPanicsOutOfRangeSIMD: the assembly takes its extents on
// trust, so the wrapper must refuse a bad one at every level, before it
// writes anything.
func TestAggregateRowPanicsOutOfRangeSIMD(t *testing.T) {
	const cols, rows = 9, 4
	h := make([]float32, rows*cols)
	cases := []struct {
		name string
		out  []float32
		idx  []int32
		w    []float32
	}{
		{"index == rows", make([]float32, cols), []int32{0, rows}, []float32{1, 1}},
		{"negative index", make([]float32, cols), []int32{-1}, []float32{1}},
		{"len(w) < len(idx)", make([]float32, cols), []int32{0, 1}, make([]float32, 1, 2)},
		{"len(out) < cols", make([]float32, cols-1, cols), []int32{0}, []float32{1}},
	}
	forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
		for _, c := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("level %v: AggregateRow with %s did not panic", l, c.name)
					}
					for j, v := range c.out {
						if v != 0 {
							t.Fatalf("level %v: AggregateRow with %s wrote out[%d] before panicking", l, c.name, j)
						}
					}
				}()
				AggregateRow(c.out, h, cols, c.idx, c.w)
			}()
		}
	})
}

// FuzzAggregateRow pins AggregateRow to the AxpyRow loop, bit for bit (NaN
// by class), at every level this CPU has, on rows 1–400 columns wide with
// 0–64 edges: the fuzzer picks the width, the degree, how often an edge
// repeats an earlier source, and where −0, ±Inf and NaN land in the table,
// the weights and out (four bytes each: which slice, where, which value).
// out sits in front of sentinels that must survive, and idx has nine spare
// entries of any value past its length, where the look-ahead reads.
func FuzzAggregateRow(f *testing.F) {
	for i, cols := range []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 112, 127, 128, 129,
		143, 144, 192, 255, 256, 257, 384, 385, 400} {
		f.Add(uint16(cols-1), uint8(i*5%65), uint8(i%4), uint64(i), []byte{byte(i), byte(i * 37), 0, byte(i)})
	}
	const pad = 16
	guard := math.Float32frombits(0xdeadbeef)
	f.Fuzz(func(t *testing.T, width uint16, degree, dup uint8, seed uint64, places []byte) {
		cols, deg := int(width)%400+1, int(degree)%65
		rng := NewRNG(seed)
		const rows = 13
		h, w, in := randSlice(rng, rows*cols), randSlice(rng, deg), randSlice(rng, cols)
		idx := make([]int32, deg, deg+9)
		for e := range idx {
			idx[e] = int32(rng.Intn(rows))
			if e > 0 && dup > 0 && rng.Intn(int(dup)+1) != 0 {
				idx[e] = idx[rng.Intn(e)]
			}
		}
		spare := idx[deg:cap(idx)]
		for i := range spare {
			spare[i] = int32(rng.Uint64())
		}
		for ; len(places) >= 4; places = places[4:] {
			s := [][]float32{h, w, in}[int(places[0])%3]
			if len(s) > 0 {
				s[(int(places[1])|int(places[2])<<8)%len(s)] = specials[int(places[3])%len(specials)]
			}
		}
		for _, l := range availableLevels() {
			withSIMD(t, l, func() {
				want := axpyRowLoop(in, h, cols, idx, w)
				buf := make([]float32, cols+pad)
				copy(buf, in)
				for i := cols; i < len(buf); i++ {
					buf[i] = guard
				}
				AggregateRow(buf[:cols:cols], h, cols, idx, w)
				if j, ok := sameBits(buf[:cols], want); !ok {
					t.Fatalf("level %v cols=%d degree=%d: out[%d] = %x, AxpyRow loop %x",
						l, cols, deg, j, math.Float32bits(buf[j]), math.Float32bits(want[j]))
				}
				for i := cols; i < len(buf); i++ {
					if math.Float32bits(buf[i]) != 0xdeadbeef {
						t.Fatalf("level %v cols=%d degree=%d: wrote past the row at column %d", l, cols, deg, i)
					}
				}
			})
		}
	})
}

// TestGatherKernelMatchesCopyLoopSIMD pins the gather kernel to a loop of row
// copies through every entry point that reaches it: whole gathers, one-row
// ranges, and ranges that end within 8 of the index list's end, where the
// prefetch look-ahead must stop reading idx. The destination sits between
// sentinels, and rows outside the range must keep theirs.
func TestGatherKernelMatchesCopyLoopSIMD(t *testing.T) {
	const srcRows, n, pad = 37, 29, 5
	guard := math.Float32frombits(0xdeadbeef)
	forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
		rng := NewRNG(34)
		for _, cols := range aggCols {
			src := FromSlice(srcRows, cols, randSlice(rng, srcRows*cols)) // len == cap
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(rng.Intn(srcRows))
			}
			idx[n-1], idx[n-2] = srcRows-1, 0 // the table's last and first rows
			buf := make([]float32, pad+n*cols+pad)
			dst := buf[pad : pad+n*cols]
			for _, r := range [][2]int{{0, n}, {0, 1}, {n - 1, n}, {4, 5}, {2, n - 8}, {3, n - 7}, {0, n - 1}, {n - 9, n}, {6, 6}} {
				lo, hi := r[0], r[1]
				for i := range buf {
					buf[i] = guard
				}
				gatherRange(dst, src, idx, lo, hi)
				for i, v := range buf {
					wantV, row := guard, (i-pad)/cols
					if i >= pad && row >= lo && row < hi && i < pad+n*cols {
						wantV = src.At(int(idx[row]), (i-pad)%cols)
					}
					if math.Float32bits(v) != math.Float32bits(wantV) {
						t.Fatalf("level %v cols=%d rows [%d,%d): buffer[%d] (dst offset %d) = %x, want %x",
							l, cols, lo, hi, i, i-pad, math.Float32bits(v), math.Float32bits(wantV))
					}
				}
			}
			whole, want := New(n, cols), New(n, cols)
			GatherRows(whole, src, idx)
			GatherRowsSerial(want, src, idx)
			if !whole.Equal(want) {
				t.Fatalf("level %v cols=%d: GatherRows diverges from the copy loop", l, cols)
			}
		}
	})
}

// TestGatherKernelPanicsOutOfRangeSIMD: an index outside the source table
// must panic in Go at every level, never reach the assembly.
func TestGatherKernelPanicsOutOfRangeSIMD(t *testing.T) {
	src := New(5, 16)
	forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
		for _, bad := range []int32{5, -1, math.MaxInt32} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("level %v: GatherRows with index %d did not panic", l, bad)
					}
				}()
				GatherRows(New(3, 16), src, []int32{0, bad, 1})
			}()
		}
	})
}

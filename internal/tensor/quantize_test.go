package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantizeRoundTripErrorBound(t *testing.T) {
	rng := NewRNG(1)
	m := New(32, 64)
	NormalInit(m, 2.0, rng)
	orig := m.Clone()
	maxErr := QuantizeRoundTrip(m)
	// Per-row symmetric int8: error ≤ scale/2 = maxAbs(row)/254.
	for i := 0; i < m.Rows; i++ {
		var maxAbs float64
		for _, v := range orig.Row(i) {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		bound := maxAbs/254 + 1e-7
		for j, v := range m.Row(i) {
			if d := math.Abs(float64(v - orig.At(i, j))); d > bound {
				t.Fatalf("row %d col %d error %g > bound %g", i, j, d, bound)
			}
		}
	}
	if maxErr <= 0 {
		t.Fatal("round trip reported no error on random data")
	}
}

func TestQuantizeZeroRow(t *testing.T) {
	m := New(2, 4) // all zeros
	m.Set(1, 2, float32(math.Copysign(0, -1)))
	if err := QuantizeRoundTrip(m); err != 0 {
		t.Fatalf("zero rows reported error %g", err)
	}
	for _, v := range m.Data {
		if math.Float32bits(v) != 0 {
			t.Fatalf("zero row came back as %v (bits %#x), want +0", v, math.Float32bits(v))
		}
	}
}

// quantizedRows is the two-step form QuantizeRoundTrip fuses: int8 codes and
// one scale per row, value ≈ code × scale.
type quantizedRows struct {
	cols   int
	codes  []int8
	scales []float32
}

// quantizeINT8 is the oracle's first step: symmetric per-row int8 codes.
func quantizeINT8(m *Matrix) *quantizedRows {
	q := &quantizedRows{cols: m.Cols, codes: make([]int8, m.Rows*m.Cols), scales: make([]float32, m.Rows)}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var maxAbs float32
		for _, v := range row {
			a := v
			if a < 0 {
				a = -a
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			q.scales[i] = 1
			continue
		}
		scale := maxAbs / 127
		q.scales[i] = scale
		out := q.codes[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			c := v / scale
			switch {
			case c > 127:
				c = 127
			case c < -127:
				c = -127
			}
			if c >= 0 {
				out[j] = int8(c + 0.5)
			} else {
				out[j] = int8(c - 0.5)
			}
		}
	}
	return q
}

// dequantize is the oracle's second step: code × scale into dst.
func (q *quantizedRows) dequantize(dst *Matrix) {
	for i := range q.scales {
		row := dst.Row(i)
		for j, c := range q.codes[i*q.cols : (i+1)*q.cols] {
			row[j] = float32(c) * q.scales[i]
		}
	}
}

// quantizeOracle is quantize → dequantize through the int8 codes, with the
// error measured against a copy of the input.
func quantizeOracle(m *Matrix) float64 {
	orig := m.Clone()
	quantizeINT8(m).dequantize(m)
	return m.MaxAbsDiff(orig)
}

// TestQuantizeRoundTripMatchesTwoStep pins the in-place round trip to the
// two-step oracle bit for bit, element and returned error alike, on random,
// zero, −0, subnormal, on-grid (±127·scale), clamped and non-finite rows.
func TestQuantizeRoundTripMatchesTwoStep(t *testing.T) {
	const cols = 37
	negZero := float32(math.Copysign(0, -1))
	sub := math.Float32frombits(1) // smallest subnormal
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	rng := NewRNG(9)
	random := func(scale float32) []float32 {
		row := make([]float32, cols)
		for j := range row {
			row[j] = float32(rng.NormFloat64()) * scale
		}
		return row
	}
	fill := func(vs ...float32) []float32 {
		row := make([]float32, cols)
		for j := range row {
			row[j] = vs[j%len(vs)]
		}
		return row
	}
	scale := float32(3) / 127
	rows := map[string][]float32{
		"random":            random(2),
		"random tiny":       random(1e-30),
		"zero":              fill(0),
		"negative zero":     fill(negZero),
		"signed zeros":      fill(0, negZero),
		"subnormal":         fill(sub, -sub, 0, 3*sub, math.Float32frombits(0x007fffff)),
		"±127·scale":        fill(127*scale, -127*scale, 63.5*scale, -63.5*scale, 0.5*scale, -0.5*scale, 1.5*scale),
		"grid":              fill(3, -3, 1, -2, 0.5),
		"one large":         append(fill(1e-3)[:cols-1], 1e30),
		"infinity":          fill(1, inf, -2),
		"NaN":               fill(1, nan, -2),
		"NaN only":          fill(nan),
		"NaN and zero":      fill(nan, 0, negZero),
		"max float32":       fill(math.MaxFloat32, -math.MaxFloat32, 1),
		"negative only":     fill(-1, -2, -3.5),
		"one nonzero":       append(fill(0)[:cols-1], -7),
		"largest subnormal": fill(math.Float32frombits(0x007fffff), -math.Float32frombits(0x007ffffe)),
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	// Each row alone, then all of them as one matrix: the error is a max over
	// rows, and a NaN mismatch in one row must not stop the rest from being
	// rewritten.
	var all []float32
	for _, name := range names {
		all = append(all, rows[name]...)
		checkRoundTrip(t, name, FromSlice(1, cols, append([]float32(nil), rows[name]...)))
	}
	checkRoundTrip(t, "all rows", FromSlice(len(names), cols, all))
}

func checkRoundTrip(t *testing.T, name string, m *Matrix) {
	t.Helper()
	want := m.Clone()
	wantErr := quantizeOracle(want)
	got := m.Clone()
	gotErr := QuantizeRoundTrip(got)
	if math.Float64bits(gotErr) != math.Float64bits(wantErr) {
		t.Errorf("%s: error %g, oracle %g", name, gotErr, wantErr)
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Errorf("%s: element %d is %v (%#x), oracle %v (%#x)", name, i, v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
			return
		}
	}
}

// quantizeRoundTripLoop is the single-pass loop QuantizeRoundTrip replaced,
// kept as its oracle: the same arithmetic, branching on each value's sign.
func quantizeRoundTripLoop(m *Matrix) float64 {
	var maxErr float64
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var maxAbs float32
		for _, v := range row {
			a := v
			if a < 0 {
				a = -a
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		scale := float32(1)
		if maxAbs != 0 {
			scale = maxAbs / 127
		}
		for j, v := range row {
			var code int8
			if maxAbs != 0 {
				c := v / scale
				switch {
				case c > 127:
					c = 127
				case c < -127:
					c = -127
				}
				if c >= 0 {
					code = int8(c + 0.5)
				} else {
					code = int8(c - 0.5)
				}
			}
			w := float32(code) * scale
			row[j] = w
			a, b := float64(w), float64(v)
			if math.IsNaN(a) != math.IsNaN(b) {
				maxErr = math.Inf(1)
			} else if d := math.Abs(a - b); d > maxErr {
				maxErr = d
			}
		}
	}
	return maxErr
}

// matchesLoop reports the first difference, bit for bit, between
// QuantizeRoundTrip and the loop oracle on a copy of m ("" if none).
func matchesLoop(m *Matrix) string {
	want, got := m.Clone(), m.Clone()
	wantErr, gotErr := quantizeRoundTripLoop(want), QuantizeRoundTrip(got)
	if math.Float64bits(gotErr) != math.Float64bits(wantErr) {
		return fmt.Sprintf("error %g, oracle %g", gotErr, wantErr)
	}
	for i, v := range got.Data {
		if w := want.Data[i]; math.Float32bits(v) != math.Float32bits(w) {
			return fmt.Sprintf("element %d (input %v) is %v (%#x), oracle %v (%#x)",
				i, m.Data[i], v, math.Float32bits(v), w, math.Float32bits(w))
		}
	}
	return ""
}

// TestQuantizeRoundTripExact pins QuantizeRoundTrip to the loop it
// replaced, bit for bit, on the values where a rewritten rounding or error
// fold would part from it: ±0, ±Inf, NaN, all-zero rows, one huge value
// beside small ones, codes exactly at ±x.5 ties (scale 1 and 2, where
// v/scale is exact) and values a rounding of v/scale past ±127 clamps.
func TestQuantizeRoundTripExact(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	rows := map[string][]float32{
		"signed zeros":       {0, negZero, 0, negZero},
		"all zero":           {0, 0, 0, 0, 0},
		"all negative zero":  {negZero, negZero, negZero},
		"zeros and NaN":      {negZero, nan, 0, nan},
		"+Inf":               {1, inf, -2, 0},
		"-Inf":               {1, -inf, negZero, 3},
		"both infinities":    {inf, -inf, inf},
		"Inf and NaN":        {inf, nan, 1},
		"NaN":                {nan, 1, -1, 0.5},
		"NaN only":           {nan, nan},
		"negative NaN":       {math.Float32frombits(0xffc00001), 2, -2},
		"one huge":           {1e-3, -2e-3, 3e38, 4e-3, negZero},
		"one huge negative":  {1e-3, -3e38, 5e-3, 0},
		"ties at scale 1":    {127, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 63.5, -63.5, 126.5, -126.5},
		"ties at scale 2":    {-254, 1, -1, 3, -3, 5, -5, 127, -127, 253, -253},
		"max float32":        {math.MaxFloat32, -math.MaxFloat32, 1, -1},
		"subnormal max":      {math.Float32frombits(1), -math.Float32frombits(1), 0},
		"clamped at ±127":    {1, -1, math.Nextafter32(1, 2), -math.Nextafter32(1, 2)},
		"negative only":      {-1, -2, -3.5, -0.25},
		"one nonzero":        {0, 0, -7, 0},
		"largest subnormals": {math.Float32frombits(0x007fffff), -math.Float32frombits(0x007ffffe)},
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	const cols = 11
	var all []float32
	for _, name := range names {
		row := make([]float32, cols)
		for j := range row {
			row[j] = rows[name][j%len(rows[name])]
		}
		all = append(all, row...)
		if diff := matchesLoop(FromSlice(1, cols, row)); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
	if diff := matchesLoop(FromSlice(len(names), cols, all)); diff != "" {
		t.Errorf("all rows: %s", diff)
	}
	rng := NewRNG(5)
	m := New(64, 128)
	NormalInit(m, 3, rng)
	if diff := matchesLoop(m); diff != "" {
		t.Errorf("random: %s", diff)
	}
}

// FuzzQuantizeRoundTrip: any float32 bit patterns, as rows of any width up
// to 64, come out of QuantizeRoundTrip exactly as the loop oracle makes
// them, the returned error included.
func FuzzQuantizeRoundTrip(f *testing.F) {
	bitsOf := func(cols byte, vs ...float32) []byte {
		b := []byte{cols}
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	f.Add(bitsOf(4, 1, -2, 3.5, 0, 127, 0.5, -0.5, 126.5))
	f.Add(bitsOf(3, float32(math.Inf(1)), float32(math.NaN()), 1, 0, float32(math.Copysign(0, -1)), 0))
	f.Add(bitsOf(2, 3e38, 1e-3, math.Float32frombits(1), -math.Float32frombits(1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		cols := int(data[0])%64 + 1
		vals := make([]float32, (len(data)-1)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[1+4*i:]))
		}
		rows := len(vals) / cols
		if rows == 0 {
			return
		}
		if diff := matchesLoop(FromSlice(rows, cols, vals[:rows*cols])); diff != "" {
			t.Fatalf("%d×%d: %s", rows, cols, diff)
		}
	})
}

// BenchmarkQuantizeRoundTrip times QuantizeRoundTrip and the loop it
// replaced on a 17 548 × 128 block, about one serving forward's quantized
// feature rows on the benchmark's graphs.
func BenchmarkQuantizeRoundTrip(b *testing.B) {
	src := New(17548, 128)
	NormalInit(src, 1, NewRNG(1))
	m := New(src.Rows, src.Cols)
	for _, bc := range []struct {
		name string
		f    func(*Matrix) float64
	}{{"loop", quantizeRoundTripLoop}, {"branch-light", QuantizeRoundTrip}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(src.Data)))
			for i := 0; i < b.N; i++ {
				copy(m.Data, src.Data)
				bc.f(m)
			}
		})
	}
}

// Property: quantization is idempotent — re-quantizing a dequantized matrix
// reproduces the same codes (values are already on the grid).
func TestQuantizeIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m := New(4, 8)
		NormalInit(m, 1, rng)
		QuantizeRoundTrip(m)
		once := m.Clone()
		QuantizeRoundTrip(m)
		return m.allClose(once, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

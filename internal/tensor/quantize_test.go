package tensor

import (
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

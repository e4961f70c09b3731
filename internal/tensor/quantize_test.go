package tensor

import (
	"math"
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
	q := QuantizeINT8(m)
	out := New(2, 4)
	if err := q.Dequantize(out); err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data {
		if v != 0 {
			t.Fatal("zero row did not survive quantization")
		}
	}
}

func TestDequantizeShapeCheck(t *testing.T) {
	q := QuantizeINT8(New(2, 2))
	if err := q.Dequantize(New(3, 2)); err == nil {
		t.Fatal("expected shape error")
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
		return m.AllClose(once, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package tensor

import "math"

// QuantizeRoundTrip applies symmetric per-row int8 quantization to m and
// dequantizes it again, in place — the precision loss a feature matrix
// suffers crossing a quantized link (paper §VIII names data quantization as
// the lever against the data-transfer bottleneck: features cross the link at
// 1 byte per element instead of 4). Row i is coded as round(v/scale),
// clamped to ±127, with scale = max|row|/127, and rebuilt as code×scale; a
// row whose max-abs is 0 becomes +0. Returns the maximum absolute element
// error introduced, +Inf if an element became NaN or stopped being one. It
// makes one pass per row and allocates nothing.
//
// The per-element work branches only where the branch almost never goes
// the other way: |v| takes the sign bit off, rounding half away from zero
// adds ±0.5 carrying c's sign bit (c + 0.5 for c ≥ 0, c − 0.5 below, and a
// NaN stays NaN either way), and the error is folded in only when it
// exceeds the running maximum or is NaN.
func QuantizeRoundTrip(m *Matrix) float64 {
	const sign, half = 1 << 31, 0x3f000000 // float32 sign bit, bits of 0.5
	var maxErr float64
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var maxAbs float32
		for _, v := range row {
			if a := math.Float32frombits(math.Float32bits(v) &^ sign); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 { // every code is 0: the row becomes +0
			for j, v := range row {
				row[j] = 0
				if d := math.Abs(float64(v)); !(d <= maxErr) {
					maxErr = foldErr(maxErr, 0, v)
				}
			}
			continue
		}
		scale := maxAbs / 127
		for j, v := range row {
			c := v / scale
			if c > 127 {
				c = 127
			} else if c < -127 {
				c = -127
			}
			c += math.Float32frombits(math.Float32bits(c)&sign | half)
			w := float32(int8(c)) * scale
			row[j] = w
			if d := math.Abs(float64(w) - float64(v)); !(d <= maxErr) {
				maxErr = foldErr(maxErr, w, v)
			}
		}
	}
	return maxErr
}

// foldErr folds one element's error |w − v| into maxErr as MaxAbsDiff
// does: +Inf when exactly one of them is NaN, unchanged when both are or
// the difference is NaN (equal infinities).
func foldErr(maxErr float64, w, v float32) float64 {
	a, b := float64(w), float64(v)
	if math.IsNaN(a) != math.IsNaN(b) {
		return math.Inf(1)
	}
	if d := math.Abs(a - b); d > maxErr {
		return d
	}
	return maxErr
}

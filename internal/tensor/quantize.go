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
func QuantizeRoundTrip(m *Matrix) float64 {
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

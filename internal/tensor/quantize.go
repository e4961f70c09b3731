package tensor

import "fmt"

// QuantizedMatrix is a per-row symmetric int8 quantization of a float32
// matrix: row i stores int8 codes and one float32 scale such that
// value ≈ code × scale. It is the payload format of the PCIe quantization
// extension (paper §VIII names data quantization as the lever against the
// data-transfer bottleneck): features cross the link at 1 byte per element
// instead of 4.
type QuantizedMatrix struct {
	Rows, Cols int
	Codes      []int8
	Scales     []float32 // one per row
}

// QuantizeINT8 quantizes m row-wise to int8 with symmetric per-row scales.
func QuantizeINT8(m *Matrix) *QuantizedMatrix {
	q := &QuantizedMatrix{
		Rows: m.Rows, Cols: m.Cols,
		Codes:  make([]int8, m.Rows*m.Cols),
		Scales: make([]float32, m.Rows),
	}
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
			q.Scales[i] = 1
			continue
		}
		scale := maxAbs / 127
		q.Scales[i] = scale
		out := q.Codes[i*m.Cols : (i+1)*m.Cols]
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

// Dequantize reconstructs a float32 matrix from q into dst (same shape).
func (q *QuantizedMatrix) Dequantize(dst *Matrix) error {
	if dst.Rows != q.Rows || dst.Cols != q.Cols {
		return fmt.Errorf("tensor: Dequantize into %dx%d, want %dx%d", dst.Rows, dst.Cols, q.Rows, q.Cols)
	}
	for i := 0; i < q.Rows; i++ {
		scale := q.Scales[i]
		codes := q.Codes[i*q.Cols : (i+1)*q.Cols]
		row := dst.Row(i)
		for j, c := range codes {
			row[j] = float32(c) * scale
		}
	}
	return nil
}

// QuantizeRoundTrip applies quantize→dequantize in place — the precision
// loss a feature matrix suffers crossing a quantized link. Returns the
// maximum absolute element error introduced.
func QuantizeRoundTrip(m *Matrix) float64 {
	q := QuantizeINT8(m)
	orig := m.Clone()
	if err := q.Dequantize(m); err != nil {
		panic(err) // shapes match by construction
	}
	return m.MaxAbsDiff(orig)
}

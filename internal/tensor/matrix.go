// Package tensor provides dense float32 matrices and the numeric kernels
// used by the GNN trainers: cache-blocked parallel matrix multiplication,
// element-wise and fused operations, activations, loss functions, and the
// Workspace arena behind the zero-allocation training/serving hot paths.
//
// Kernels are stdlib-only Go, with the innermost row updates in AVX2
// assembly on amd64 CPUs that have it (axpy_avx2_amd64.s); the pure-Go loops
// serve every other CPU. Every dispatch level is bit-identical — see simd.go
// for detection and the SetSIMDLevel/TENSOR_SIMD overrides. Row-parallel
// kernels size their fan-out by the work in the call (FanOut): a kernel below
// the work grain runs on the caller, a larger one splits into contiguous row
// blocks across at most SetParallelism goroutines (default runtime.NumCPU()).
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the upper bound on a kernel's fan-out.
var parallelism int64 = int64(runtime.NumCPU())

// SetParallelism sets the upper bound on a kernel's fan-out; how many
// goroutines a call really uses is FanOut's decision, and kernels below the
// work grain run on the caller whatever the bound. Values below 1 are
// clamped to 1. It returns the previous setting.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	return int(atomic.SwapInt64(&parallelism, int64(n)))
}

// Parallelism reports the current upper bound on a kernel's fan-out.
func Parallelism() int { return int(atomic.LoadInt64(&parallelism)) }

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data as a Rows×Cols matrix. The slice is used directly
// (not copied) and must have length rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Row returns a view (no copy) of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and other have identical shape and elements.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != other.Data[i] {
			return false
		}
	}
	return true
}

// allClose reports whether m and other have identical shape and all elements
// within tol of each other (absolute difference).
func (m *Matrix) allClose(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(float64(v)-float64(other.Data[i])) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute element-wise difference between m
// and other, which must have the same shape. A NaN on exactly one side is an
// infinite difference (|NaN − x| would compare below every running maximum
// and read as agreement); a NaN at the same position on both sides is equal.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var max float64
	for i, v := range m.Data {
		a, b := float64(v), float64(other.Data[i])
		if math.IsNaN(a) != math.IsNaN(b) {
			return math.Inf(1)
		}
		d := math.Abs(a - b)
		if d > max {
			max = d
		}
	}
	return max
}

// String formats small matrices for debugging.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// fanoutGrain is the least work, in float32 element-operations, worth a
// goroutine of its own: ≈ 0.1–0.4 ms of single-core kernel time, a few times
// what spawning a goroutine and waking a parked thread to run it costs. The
// README ("Sizing kernel fan-out") records the scan that placed it.
const fanoutGrain = 1 << 21

// FanOut returns how many goroutines a row-parallel kernel over rows rows of
// workPerRow element-operations each is split across:
// min(Parallelism(), rows, rows·workPerRow/fanoutGrain). A result ≤ 1 means
// the kernel runs on the caller; call sites test it before building the
// closure ParallelRows takes, so those calls allocate nothing.
func FanOut(rows, workPerRow int) int {
	p := Parallelism()
	if p > rows {
		p = rows
	}
	if g := int64(rows) * int64(workPerRow) / fanoutGrain; g < int64(p) {
		p = int(g)
	}
	return p
}

// ParallelRows runs fn over [0, rows) split into FanOut(rows, workPerRow)
// contiguous chunks; fn receives [lo, hi). The caller runs the first chunk
// itself and goroutines run the rest, so a degree of 1 or less is a plain
// call of fn(0, rows). It is the one fan-out helper behind every
// row-parallel kernel, here and in gnn's per-vertex aggregation.
func ParallelRows(rows, workPerRow int, fn func(lo, hi int)) {
	p := FanOut(rows, workPerRow)
	if p <= 1 {
		fn(0, rows)
		return
	}
	chunk := (rows + p - 1) / p
	var wg sync.WaitGroup
	for lo := chunk; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, chunk)
	wg.Wait()
}

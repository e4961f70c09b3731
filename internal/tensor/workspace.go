package tensor

import (
	"math"
	"reflect"
	"testing"
)

// Workspace is a bump arena for the matrices and scratch slices a training or
// serving hot loop churns through: one float32 slab, one int32 slab and a
// reused list of Matrix headers. One cycle borrows buffers with Get / GetZero
// / F32 / I32 — consecutive runs carved off the slab — and the owner calls
// Reset at the cycle boundary.
//
// Ownership. A Workspace is NOT safe for concurrent use: every trainer, every
// iteration slot's staging area per trainer, every serving worker and every
// accelerator backend owns one, the way the fleet privatises replicas and
// clocks.
//
// Alignment. Every run starts on a 64-byte boundary and is padded to a whole
// number of cache lines, so row-range workers writing neighbouring buffers
// never share a line and no vector load of a row start splits one. Runs have
// no spare capacity: an append to one reallocates instead of overrunning the
// next.
//
// Growth. A request the slab cannot hold is a plain allocation for that
// cycle, and is counted into the cycle's demand like every other. Reset
// rewinds the cursor and, only if the cycle's demand exceeded the slab,
// replaces it with one of demand + ⅛. An owner therefore retains its
// high-water mark plus 12.5 % — sampled mini-batches never repeat their sizes,
// and that margin is what lets a loop whose shapes have stabilised run at
// zero allocations per cycle, the property the AllocsPerRun gates in gnn,
// core and serve enforce — and nothing is retained twice.
//
// Reset invalidates everything borrowed since the previous one: the slices
// and the *Matrix headers are handed out again, to other call sites and at
// other shapes, so a reader that outlives its cycle sees another buffer's
// contents, not its own stale ones.
type Workspace struct {
	f32  slab[float32]
	i32  slab[int32]
	mats []*Matrix // headers, reused in order
	used int       // headers handed out this cycle
}

// lineElems is a cache line in elements (both slab types are four bytes wide).
const lineElems = 16

// wholeLines rounds n elements up to whole cache lines.
func wholeLines(n int) int { return (n + lineElems - 1) &^ (lineElems - 1) }

// poisonOnReset makes Reset overwrite the slabs (NaN / −1) so that under `go
// test` — every package's goldens, oracles and bit-identity tests included — a
// buffer read after its cycle ended cannot go unnoticed.
var poisonOnReset = testing.Testing()

// slab is one element type's share of the arena.
type slab[T float32 | int32] struct {
	buf  []T // the retained run, line-aligned
	off  int // cursor into buf
	need int // this cycle's demand in elements, requests that did not fit included
}

// alignedMake returns n elements (n a multiple of lineElems) that start on a
// cache-line boundary, cut from an allocation lineElems−1 longer.
func alignedMake[T float32 | int32](n int) []T {
	raw := make([]T, n+lineElems-1)
	skip := -int(reflect.ValueOf(raw).Pointer()/4) & (lineElems - 1)
	return raw[skip : skip+n : skip+n]
}

func (s *slab[T]) take(n int) []T {
	run := wholeLines(n)
	s.need += run
	if s.off+run > len(s.buf) {
		return alignedMake[T](run)[:n:n]
	}
	p := s.buf[s.off : s.off+n : s.off+n]
	s.off += run
	return p
}

func (s *slab[T]) reset(poison T) {
	if poisonOnReset {
		for i := range s.buf {
			s.buf[i] = poison
		}
	}
	if s.need > len(s.buf) {
		s.buf = alignedMake[T](wholeLines(s.need + s.need/8))
	}
	s.off, s.need = 0, 0
}

// bytes is the retained allocation, alignment slack included.
func (s *slab[T]) bytes() int64 {
	if s.buf == nil {
		return 0
	}
	return 4 * int64(len(s.buf)+lineElems-1)
}

// NewWorkspace returns an empty arena.
func NewWorkspace() *Workspace { return &Workspace{} }

// Get borrows a rows×cols matrix valid until the next Reset. The contents
// are NOT cleared — callers that need zeros use GetZero, everything else
// overwrites every element anyway and must not pay a wasted pass.
func (ws *Workspace) Get(rows, cols int) *Matrix {
	if ws.used == len(ws.mats) {
		ws.mats = append(ws.mats, new(Matrix))
	}
	m := ws.mats[ws.used]
	ws.used++
	m.Rows, m.Cols, m.Data = rows, cols, ws.f32.take(rows*cols)
	return m
}

// GetZero borrows a zeroed rows×cols matrix valid until the next Reset.
func (ws *Workspace) GetZero(rows, cols int) *Matrix {
	m := ws.Get(rows, cols)
	m.Zero()
	return m
}

// F32 borrows a float32 scratch slice of length n valid until the next
// Reset. Contents are not cleared.
func (ws *Workspace) F32(n int) []float32 { return ws.f32.take(n) }

// I32 borrows an int32 scratch slice of length n valid until the next Reset.
// Contents are not cleared.
func (ws *Workspace) I32(n int) []int32 { return ws.i32.take(n) }

// Reset ends the cycle: every borrowed buffer is free again and a slab the
// cycle outgrew is replaced (see Growth above). Previously returned matrices
// and slices must not be used afterwards.
func (ws *Workspace) Reset() {
	ws.f32.reset(float32(math.NaN()))
	ws.i32.reset(-1)
	ws.used = 0
}

// Bytes reports the arena's retained footprint: its two slabs.
func (ws *Workspace) Bytes() int64 { return ws.f32.bytes() + ws.i32.bytes() }

package tensor

import (
	"bytes"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// goid returns the running goroutine's id, parsed from its stack header
// ("goroutine N [running]:") — the goroutine-local marker the chunk tests use
// to tell the caller's chunk from a spawned one.
func goid() int {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, err := strconv.Atoi(string(f[1]))
	if err != nil {
		panic(err)
	}
	return id
}

// requireFanOut fails unless a kernel over rows rows of workPerRow
// element-operations splits at the current parallelism — what keeps a
// parallel-vs-serial test from quietly comparing the caller path with itself
// once its input, or the grain, changes.
func requireFanOut(t *testing.T, what string, rows, workPerRow int) {
	t.Helper()
	if p := FanOut(rows, workPerRow); p <= 1 && Parallelism() > 1 {
		t.Fatalf("%s: %d rows × %d work is below the fan-out grain at parallelism %d; the parallel leg would test nothing",
			what, rows, workPerRow, Parallelism())
	}
}

var (
	fanOutRows = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 33, 64, 100, 127, 129, 256, 511, 1000, 1023, 1025, 1999, 2000}
	fanOutWork = func() []int {
		w := []int{1, 2, 3, 5, 7}
		for s := 3; s <= 24; s++ {
			w = append(w, 1<<s-1, 1<<s, 1<<s+1)
		}
		return w
	}()
)

// TestFanOutDegree pins the one decision every row-parallel kernel shares:
// degree = min(Parallelism(), rows, rows·work/grain), never negative, and
// monotone non-decreasing in the work estimate.
func TestFanOutDegree(t *testing.T) {
	defer SetParallelism(Parallelism())
	for par := 1; par <= 8; par++ {
		SetParallelism(par)
		for _, rows := range fanOutRows {
			prev := 0
			for _, work := range fanOutWork {
				want := par
				if rows < want {
					want = rows
				}
				if g := rows * work / fanoutGrain; g < want {
					want = g
				}
				got := FanOut(rows, work)
				if got != want {
					t.Fatalf("FanOut(%d, %d) at parallelism %d = %d, want %d", rows, work, par, got, want)
				}
				if got < prev {
					t.Fatalf("FanOut(%d, %d) at parallelism %d = %d fell below %d at less work", rows, work, par, got, prev)
				}
				prev = got
			}
		}
	}
}

// TestParallelRowsChunks checks the fan-out helper's contract over rows ×
// work × parallelism: the chunks are non-empty, contiguous and cover
// [0, rows) exactly once; there are at most FanOut of them; the first (the
// only one below the grain) runs on the caller's goroutine and every other
// on a goroutine of its own; rows == 0 still calls fn(0, 0) once.
func TestParallelRowsChunks(t *testing.T) {
	defer SetParallelism(Parallelism())
	type chunk struct{ lo, hi, gid int }
	var (
		mu     sync.Mutex
		chunks []chunk
	)
	caller := goid()
	fannedOut := false
	for par := 1; par <= 8; par++ {
		SetParallelism(par)
		for _, rows := range fanOutRows {
			for _, work := range fanOutWork {
				chunks = chunks[:0]
				ParallelRows(rows, work, func(lo, hi int) {
					gid := goid()
					mu.Lock()
					chunks = append(chunks, chunk{lo, hi, gid})
					mu.Unlock()
				})
				sort.Slice(chunks, func(i, j int) bool { return chunks[i].lo < chunks[j].lo })
				degree := FanOut(rows, work)
				if degree < 1 {
					degree = 1
				}
				if len(chunks) < 1 || len(chunks) > degree {
					t.Fatalf("rows=%d work=%d par=%d: %d chunks for fan-out degree %d", rows, work, par, len(chunks), degree)
				}
				next := 0
				for i, c := range chunks {
					if c.lo != next || (c.hi <= c.lo && rows > 0) {
						t.Fatalf("rows=%d work=%d par=%d: chunk %d is [%d,%d), want it to start at %d and be non-empty",
							rows, work, par, i, c.lo, c.hi, next)
					}
					if (c.gid == caller) != (i == 0) {
						t.Fatalf("rows=%d work=%d par=%d: chunk %d ran on goroutine %d, caller is %d (only chunk 0 is the caller's)",
							rows, work, par, i, c.gid, caller)
					}
					next = c.hi
				}
				if next != rows {
					t.Fatalf("rows=%d work=%d par=%d: chunks end at %d", rows, work, par, next)
				}
				fannedOut = fannedOut || len(chunks) > 1
			}
		}
	}
	if !fannedOut {
		t.Fatal("no case fanned out: the grid no longer reaches above the grain")
	}
}

// TestBiasKernelsFanOutExact covers the two bias sweeps, which only fan out
// on a ≥ 16 MB activation matrix: the chunked pass is checked in place
// against the scalar definition instead of a second matrix of that size.
func TestBiasKernelsFanOutExact(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)
	const rows, cols = 4099, 1031
	requireFanOut(t, "AddBias/AddBiasReLU", rows, cols)
	in := func(i, j int) float32 { return float32((i*31+j*17)%257-128) * 0.25 }
	bias := randomMatrix(1, cols, NewRNG(19))
	z := New(rows, cols)
	for _, fused := range []bool{false, true} {
		for i := 0; i < rows; i++ {
			for j := range z.Row(i) {
				z.Row(i)[j] = in(i, j)
			}
		}
		if fused {
			AddBiasReLU(z, bias)
		} else {
			AddBias(z, bias)
		}
		for i := 0; i < rows; i++ {
			for j, got := range z.Row(i) {
				want := in(i, j) + bias.Data[j]
				if fused && !(want > 0) {
					want = 0
				}
				if got != want {
					t.Fatalf("fused=%v: element (%d,%d) is %v, want %v", fused, i, j, got, want)
				}
			}
		}
	}
}

// TestSmallKernelZeroAlloc is the gate the work-sized fan-out exists for:
// serving-sized kernels run on the caller and allocate nothing even with
// parallelism available — no goroutine, no WaitGroup, no closure, no
// escaping header.
func TestSmallKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation bypasses sync.Pool; allocation counts are nondeterministic")
	}
	prev := SetParallelism(4)
	defer SetParallelism(prev)
	rng := NewRNG(5)
	a, b := randomMatrix(32, 256, rng), randomMatrix(256, 47, rng)
	bt, at := Transpose(b), Transpose(a)
	c := New(32, 47)
	bias := randomMatrix(1, 47, rng)
	src, dst, pad, dstAt := randomMatrix(500, 100, rng), New(64, 100), New(64, 20), New(64, 120)
	idx := make([]int32, 64)
	for i := range idx {
		idx[i] = int32(rng.Intn(src.Rows))
	}
	for _, kc := range []struct {
		name string
		fn   func()
	}{
		{"MatMul 32x256x47", func() { MatMul(c, a, b) }},
		{"MatMulT 32x256x47", func() { MatMulT(c, a, bt) }},
		{"TMatMul 32x256x47", func() { TMatMul(c, at, b) }},
		{"AddBias 32x47", func() { AddBias(c, bias) }},
		{"AddBiasReLU 32x47", func() { AddBiasReLU(c, bias) }},
		{"GatherRows 64x100", func() { GatherRows(dst, src, idx) }},
		{"GatherRowsAt 64x100", func() { GatherRowsAt(dstAt, 20, src, idx) }},
		{"ConcatCols 64x100|20", func() { ConcatCols(dstAt, dst, pad) }},
	} {
		kc.fn() // warm MatMulT's pack pool
		if allocs := testing.AllocsPerRun(20, kc.fn); allocs != 0 {
			t.Errorf("%s at parallelism 4 allocated %v times per call", kc.name, allocs)
		}
	}
}

package tensor

import (
	"math"
	"reflect"
	"testing"
)

// cycle borrows the given buffers and ends the cycle.
func cycle(ws *Workspace, f32, i32 []int) {
	for _, n := range f32 {
		ws.F32(n)
	}
	for _, n := range i32 {
		ws.I32(n)
	}
	ws.Reset()
}

func addrOf(s any) uintptr { return reflect.ValueOf(s).Pointer() }

// freeWords visits every word of a slab that no live run owns.
func freeWords[T float32 | int32](buf []T, owned func(addr uintptr) bool, visit func(j int, w *T)) {
	base := addrOf(buf)
	for j := range buf {
		if !owned(base + 4*uintptr(j)) {
			visit(j, &buf[j])
		}
	}
}

func TestWorkspaceReuseAfterReset(t *testing.T) {
	ws := NewWorkspace()
	cycle(ws, []int{15, 10}, []int{6}) // size the slabs
	m1 := ws.Get(3, 5)
	m1.Fill(7)
	f1 := ws.F32(10)
	i1 := ws.I32(6)
	ws.Reset()
	m2 := ws.Get(4, 4) // another shape at the same cursor
	if &m2.Data[0] != &m1.Data[0] {
		t.Fatal("Get after Reset should reuse the same backing array")
	}
	if m2 != m1 {
		t.Fatal("Get after Reset should reuse the same header")
	}
	if m2.Rows != 4 || m2.Cols != 4 || len(m2.Data) != 16 {
		t.Fatalf("reshaped matrix wrong: %dx%d len %d", m2.Rows, m2.Cols, len(m2.Data))
	}
	f2 := ws.F32(9)
	if &f2[0] != &f1[0] {
		t.Fatal("F32 after Reset should reuse the same backing array")
	}
	i2 := ws.I32(5)
	if &i2[0] != &i1[0] {
		t.Fatal("I32 after Reset should reuse the same backing array")
	}
}

func TestWorkspaceDistinctWithinIteration(t *testing.T) {
	ws := NewWorkspace()
	for pass := 0; pass < 2; pass++ { // unsized, then from the slab
		a := ws.Get(2, 2)
		b := ws.Get(2, 2)
		if &a.Data[0] == &b.Data[0] || a == b {
			t.Fatal("two Gets without Reset must return distinct buffers")
		}
		ws.Reset()
	}
}

func TestWorkspaceGetZero(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(2, 3)
	m.Fill(5)
	ws.Reset()
	ws.Get(2, 3).Fill(5)
	ws.Reset()
	z := ws.GetZero(2, 3)
	for _, v := range z.Data {
		if v != 0 {
			t.Fatal("GetZero returned dirty buffer")
		}
	}
}

// TestWorkspaceSteadyStateAllocFree is the arena's own allocation gate: once
// shapes have been seen, a reset-and-borrow iteration allocates nothing.
func TestWorkspaceSteadyStateAllocFree(t *testing.T) {
	ws := NewWorkspace()
	iter := func() {
		ws.Reset()
		ws.Get(33, 7)
		ws.GetZero(8, 8)
		ws.F32(100)
		ws.I32(40)
	}
	iter() // every request is its own allocation; the next Reset sizes the slabs
	if allocs := testing.AllocsPerRun(50, iter); allocs != 0 {
		t.Fatalf("steady-state workspace iteration allocated %v times", allocs)
	}
}

func TestWorkspaceBytesGrowsOnce(t *testing.T) {
	ws := NewWorkspace()
	ws.Get(10, 10)
	ws.Reset()
	after1 := ws.Bytes()
	if after1 == 0 {
		t.Fatal("Bytes should report retained footprint")
	}
	ws.Get(10, 10)
	ws.Reset()
	if ws.Bytes() != after1 {
		t.Fatalf("steady-state reuse should not grow footprint: %d -> %d", after1, ws.Bytes())
	}
}

// TestWorkspaceRunsNeverOverlap is the arena's property test: over random
// request sequences — sized slabs, unsized ones, and cycles that outgrow
// theirs half way — every run starts on a cache line, no two live runs share a
// byte, each keeps its contents until Reset, and filling a run to its last
// element leaves a sentinel word either side of it untouched.
func TestWorkspaceRunsNeverOverlap(t *testing.T) {
	type run struct {
		f32  []float32
		i32  []int32
		seed int
	}
	rng := NewRNG(31)
	const sentinel = -12345
	for trial := 0; trial < 40; trial++ {
		ws := NewWorkspace()
		for c := 0; c < 6; c++ {
			var live []run
			var lo, hi []uintptr
			for k, nReq := 0, 1+rng.Intn(12); k < nReq; k++ {
				n := rng.Intn(200)
				if rng.Intn(8) == 0 {
					n = 0
				}
				r := run{seed: rng.Intn(1000)}
				var base uintptr
				switch rng.Intn(3) {
				case 0:
					r.f32 = ws.F32(n)
					base = addrOf(r.f32)
				case 1:
					rows := 1 + rng.Intn(4)
					m := ws.Get(rows, n/rows)
					r.f32, n = m.Data, rows*(n/rows)
					base = addrOf(r.f32)
				default:
					r.i32 = ws.I32(n)
					base = addrOf(r.i32)
				}
				if len(r.f32)+len(r.i32) != n || cap(r.f32)+cap(r.i32) != n {
					t.Fatalf("trial %d: asked for %d elements, got len %d cap %d", trial, n, len(r.f32)+len(r.i32), cap(r.f32)+cap(r.i32))
				}
				if base%64 != 0 {
					t.Fatalf("trial %d cycle %d: run of %d at %#x is not 64-byte aligned", trial, c, n, base)
				}
				live = append(live, r)
				lo, hi = append(lo, base), append(hi, base+4*uintptr(n))
			}
			// Every slab word no live run owns — padding to the line, the
			// unused tail — is a sentinel that must survive filling each run
			// to its last element.
			owned := func(s uintptr) bool {
				for i := range lo {
					if s >= lo[i] && s < hi[i] {
						return true
					}
				}
				return false
			}
			freeWords(ws.f32.buf, owned, func(_ int, w *float32) { *w = sentinel })
			freeWords(ws.i32.buf, owned, func(_ int, w *int32) { *w = sentinel })
			for _, r := range live {
				for j := range r.f32 {
					r.f32[j] = float32(r.seed + j)
				}
				for j := range r.i32 {
					r.i32[j] = int32(r.seed + j)
				}
			}
			for i := range live {
				for j := i + 1; j < len(live); j++ {
					if lo[i] < hi[j] && lo[j] < hi[i] {
						t.Fatalf("trial %d cycle %d: runs %d [%#x,%#x) and %d [%#x,%#x) overlap", trial, c, i, lo[i], hi[i], j, lo[j], hi[j])
					}
				}
			}
			for i, r := range live { // contents survive every other run's fill
				for j, v := range r.f32 {
					if v != float32(r.seed+j) {
						t.Fatalf("trial %d cycle %d: run %d element %d was overwritten", trial, c, i, j)
					}
				}
				for j, v := range r.i32 {
					if v != int32(r.seed+j) {
						t.Fatalf("trial %d cycle %d: run %d element %d was overwritten", trial, c, i, j)
					}
				}
			}
			freeWords(ws.f32.buf, owned, func(j int, w *float32) {
				if *w != sentinel {
					t.Fatalf("trial %d cycle %d: float32 slab word %d outside every run was written", trial, c, j)
				}
			})
			freeWords(ws.i32.buf, owned, func(j int, w *int32) {
				if *w != sentinel {
					t.Fatalf("trial %d cycle %d: int32 slab word %d outside every run was written", trial, c, j)
				}
			})
			ws.Reset()
		}
	}
}

// TestWorkspaceHighWater pins the growth rule: an owner retains its largest
// cycle plus an eighth, so jitter of up to +12 % above the mark allocates
// nothing, a +30 % cycle allocates once — in that cycle — and nothing in the
// next, and Bytes is the two retained slabs exactly.
func TestWorkspaceHighWater(t *testing.T) {
	const line = lineElems
	slabBytes := func(demand int) int64 { // demand is whole lines
		return 4 * int64((demand+demand/8+line-1)/line*line+line-1)
	}
	mark := []int{4096, 1600, 704} // whole lines each, so demand is their sum
	scaled := func(pct int) (f32 []int) {
		for _, n := range mark {
			f32 = append(f32, n*pct/100)
		}
		return f32
	}
	ws := NewWorkspace()
	if ws.Bytes() != 0 {
		t.Fatalf("an empty arena reports %d B", ws.Bytes())
	}
	cycle(ws, mark, []int{320})
	want := slabBytes(4096+1600+704) + slabBytes(320)
	if ws.Bytes() != want {
		t.Fatalf("after one cycle Bytes() = %d, the slabs are %d", ws.Bytes(), want)
	}
	for _, pct := range []int{100, 88, 112, 50, 112} {
		f32 := scaled(pct)
		if allocs := testing.AllocsPerRun(5, func() { cycle(ws, f32, []int{320}) }); allocs != 0 {
			t.Fatalf("a cycle at %d %% of the mark allocated %v times", pct, allocs)
		}
		if ws.Bytes() != want {
			t.Fatalf("a cycle at %d %% of the mark moved Bytes() %d -> %d", pct, want, ws.Bytes())
		}
	}
	big := scaled(130)
	before := ws.f32.buf
	cycle(ws, big, []int{320})
	if addrOf(before) == addrOf(ws.f32.buf) {
		t.Fatal("a cycle 30 % above the mark did not replace the slab")
	}
	demand := 0
	for _, n := range big {
		demand += (n + line - 1) / line * line
	}
	if want = slabBytes(demand) + slabBytes(320); ws.Bytes() != want {
		t.Fatalf("after the +30 %% cycle Bytes() = %d, the slabs are %d", ws.Bytes(), want)
	}
	if allocs := testing.AllocsPerRun(5, func() { cycle(ws, big, []int{320}) }); allocs != 0 {
		t.Fatalf("the cycle after the +30 %% one allocated %v times", allocs)
	}
	if ws.Bytes() != want {
		t.Fatalf("the slab grew again: %d -> %d", want, ws.Bytes())
	}
}

// TestWorkspaceResetPoisons pins the hook the goldens of every package run
// under (poisonOnReset is on in any test binary): after Reset a buffer kept
// from the finished cycle reads NaN / −1, so a stale reader cannot pass a
// bit-identity test by luck — and with the hook off, as in a shipped binary,
// Reset writes nothing.
func TestWorkspaceResetPoisons(t *testing.T) {
	if !poisonOnReset {
		t.Fatal("poisonOnReset is off inside a test binary")
	}
	defer func() { poisonOnReset = true }()
	for _, on := range []bool{true, false} {
		poisonOnReset = on
		ws := NewWorkspace()
		cycle(ws, []int{64}, []int{64})
		f, i := ws.F32(64), ws.I32(64)
		for j := range f {
			f[j], i[j] = 1, 1
		}
		ws.Reset()
		for j := range f {
			if poisoned := math.IsNaN(float64(f[j])) && i[j] == -1; poisoned != on {
				t.Fatalf("poison %v: stale element %d reads %v / %d", on, j, f[j], i[j])
			}
		}
	}
}

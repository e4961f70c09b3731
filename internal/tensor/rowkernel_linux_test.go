//go:build linux

package tensor

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// guardedInt32s returns n int32s that end where a PROT_NONE page begins, so
// a read one past the last of them faults.
func guardedInt32s(t *testing.T, n int) []int32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&mem[size-4*n])), n)
}

// TestAggregateRowLookAheadStopsAtCapSIMD: the 512-bit kernel's look-ahead
// reads the index list up to cap(idx) and no further. Here cap(idx) ends on
// an unreadable page, so one read past it crashes the test, at every edge
// count and slack below the look-ahead distance and beyond it. The entries
// past len(idx) are indices no table has: they may steer prefetches, never
// the sums, and AggregateRow must not reject them.
func TestAggregateRowLookAheadStopsAtCapSIMD(t *testing.T) {
	forEachLevelAndParallelism(t, func(l SIMDLevel, par int) {
		rng := NewRNG(36)
		for _, cols := range []int{8, 100, 128, 129} {
			for _, degree := range []int{1, 2, 7, 8, 9, 25} {
				for _, slack := range []int{0, 1, 7, 8, 9} {
					out, h, idx, w := aggCase(rng, cols, degree, false)
					want := axpyRowLoop(out, h, cols, idx, w)
					list := guardedInt32s(t, degree+slack)
					copy(list, idx)
					for i := degree; i < len(list); i++ {
						list[i] = []int32{-1, math.MaxInt32, math.MinInt32, int32(len(h) / cols)}[i%4]
					}
					AggregateRow(out, h, cols, list[:degree], w)
					if j, ok := sameBits(out, want); !ok {
						t.Fatalf("level %v cols=%d degree=%d slack=%d: out[%d] = %x, AxpyRow loop %x",
							l, cols, degree, slack, j, math.Float32bits(out[j]), math.Float32bits(want[j]))
					}
				}
			}
		}
	})
}

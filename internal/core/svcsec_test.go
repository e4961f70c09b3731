package core

import (
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/perfmodel"
)

// The dense service-time memo must agree with direct pricing at every
// count, grow on demand, reject negative counts, and — once warm — cost
// zero allocations per lookup (it sits on the serving router's per-batch
// path, consulted once per worker per closed batch).
func TestServiceSecMemo(t *testing.T) {
	p, _ := inferFixture(t, smallPlatform(), 1)
	for _, c := range []int{1, 2, 7, 32, 3, 32, 1} { // repeats exercise the memo
		st, err := p.predictBatchStage(c)
		if err != nil {
			t.Fatal(err)
		}
		want := perfmodel.ServingServiceSec(st)
		got, err := p.ServiceSec(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("ServiceSec(%d) = %v, direct pricing says %v", c, got, want)
		}
	}
	if _, err := p.ServiceSec(-1); err == nil {
		t.Fatal("negative count accepted")
	}
	if raceEnabled {
		return // exact allocation count is not meaningful under -race
	}
	lookup := func() {
		for c := 1; c <= 32; c++ {
			if _, err := p.ServiceSec(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	lookup() // warm the slice to its roof
	if a := testing.AllocsPerRun(20, lookup); a != 0 {
		t.Fatalf("warm ServiceSec lookups allocated %.1f times per run, want 0", a)
	}
}

// Prefilling the memo for counts 1..n — what the serving server does for
// every worker up to its MaxBatch — grows the slice by doubling: beyond the
// pricing of each count, O(log n) allocations, not one per count (which
// also copied O(n²) floats: hours of set-up at a million).
func TestServiceSecPrefillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts are skipped under -race")
	}
	const n = 4096
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	priced, _ := inferFixture(t, smallPlatform(), 1)
	pricing := mallocs(func() {
		for c := 1; c <= n; c++ {
			if _, err := priced.predictBatchStage(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	memo, _ := inferFixture(t, smallPlatform(), 1)
	prefill := mallocs(func() {
		for c := 1; c <= n; c++ {
			if _, err := memo.ServiceSec(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := pricing + 2*uint64(bits.Len(n)); prefill > limit {
		t.Fatalf("prefilling counts 1..%d allocated %d times, pricing alone %d: want at most %d",
			n, prefill, pricing, limit)
	}
}

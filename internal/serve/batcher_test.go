package serve

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/tensor"
)

func TestBatcherValidation(t *testing.T) {
	if _, err := NewSplitBatcher(0, 1e-3, 0); err == nil {
		t.Fatal("expected error for zero max batch")
	}
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewSplitBatcher(4, w, 0); err == nil {
			t.Fatalf("window %v accepted", w)
		}
	}
}

func TestBatcherClosesBySize(t *testing.T) {
	b, _ := NewSplitBatcher(3, 1.0, 0)
	for i := 0; i < 2; i++ {
		if batch, _ := b.Add(Request{ID: i, Arrival: float64(i) * 1e-3}); batch != nil {
			t.Fatal("closed before reaching max batch")
		}
	}
	batch, closeAt := b.Add(Request{ID: 2, Arrival: 2e-3})
	if len(batch) != 3 || closeAt != 2e-3 {
		t.Fatalf("size close: %d requests at %v", len(batch), closeAt)
	}
	if b.pendingLen() != 0 {
		t.Fatal("pending not drained by size close")
	}
}

func TestBatcherClosesByDeadline(t *testing.T) {
	b, _ := NewSplitBatcher(100, 5e-3, 0)
	b.Add(Request{ID: 0, Arrival: 1e-3})
	b.Add(Request{ID: 1, Arrival: 2e-3})
	if batch, _ := b.CloseExpired(3e-3); batch != nil {
		t.Fatal("closed before the deadline")
	}
	batch, closeAt := b.CloseExpired(7e-3)
	if len(batch) != 2 || closeAt != 6e-3 { // first arrival + window
		t.Fatalf("deadline close: %d requests at %v", len(batch), closeAt)
	}
	if batch, _ := b.CloseExpired(10); batch != nil {
		t.Fatal("closed an empty batch")
	}
}

func TestBatcherFlush(t *testing.T) {
	b, _ := NewSplitBatcher(100, 2e-3, 0)
	if batch, _ := b.Flush(); batch != nil {
		t.Fatal("flushed an empty batcher")
	}
	b.Add(Request{ID: 0, Arrival: 1.0})
	batch, closeAt := b.Flush()
	if len(batch) != 1 || closeAt != 1.0+2e-3 {
		t.Fatalf("flush: %d requests at %v", len(batch), closeAt)
	}
}

func TestAdmissionControllerBounds(t *testing.T) {
	a := newAdmissionController(2)
	if !a.admit(0) || !a.admit(0) {
		t.Fatal("admissions below capacity rejected")
	}
	if a.admit(0) {
		t.Fatal("admission above capacity accepted")
	}
	// Both waiting requests dispatch, completing at t=1 and t=2.
	a.dispatchedKind(hw.CPU, []float64{1, 2})
	if a.admit(0.5) {
		t.Fatal("admitted while both still in flight")
	}
	if !a.admit(1.5) {
		t.Fatal("slot not freed by completion at t=1")
	}
	// cancel releases waiting slots without completions (a shed batch).
	a.cancel(1)
	if !a.admit(1.5) {
		t.Fatal("cancelled slot not released")
	}
}

// Out-of-order completion times: Dispatched pushes completions in arbitrary
// order; admit must free slots strictly by the virtual clock (the min-heap
// path), not insertion order.
func TestAdmissionOutOfOrderCompletions(t *testing.T) {
	a := newAdmissionController(3)
	for i := 0; i < 3; i++ {
		if !a.admit(0) {
			t.Fatal("admission below capacity rejected")
		}
	}
	// Completions pushed out of order: 5, 1, 3.
	a.dispatchedKind(hw.CPU, []float64{5, 1, 3})
	if a.outstanding() != 3 {
		t.Fatalf("outstanding %d after dispatch, want 3", a.outstanding())
	}
	if a.admit(0.5) {
		t.Fatal("admitted with all three still in flight")
	}
	if !a.admit(2) { // t=2: only the completion at t=1 has freed
		t.Fatal("slot from the earliest completion not freed")
	}
	if a.admit(2.5) {
		t.Fatal("two slots freed when only one completion passed")
	}
	// t=10: everything in flight has completed; only the two waiting remain.
	if !a.admit(10) {
		t.Fatalf("outstanding %d at t=10, expected room", a.outstanding())
	}
}

// Capacity exhaustion and drain-to-zero cycles: fill the queue, drain it
// completely through dispatch + completion, and refill — the heap must come
// back to empty each cycle with no leaked slots.
func TestAdmissionDrainToZeroCycles(t *testing.T) {
	const capacity = 4
	a := newAdmissionController(capacity)
	now := 0.0
	for cycle := 0; cycle < 3; cycle++ {
		admitted := 0
		for a.admit(now) {
			admitted++
		}
		if admitted != capacity {
			t.Fatalf("cycle %d: admitted %d, want %d", cycle, admitted, capacity)
		}
		// Dispatch all of them, completing in reverse order.
		completions := make([]float64, capacity)
		for i := range completions {
			completions[i] = now + float64(capacity-i)
		}
		a.dispatchedKind(hw.CPU, completions)
		if a.outstanding() != capacity {
			t.Fatalf("cycle %d: outstanding %d after dispatch", cycle, a.outstanding())
		}
		// Step past each completion: one slot frees at a time.
		for k := 1; k <= capacity; k++ {
			if !a.admit(now + float64(k) + 0.5) {
				t.Fatalf("cycle %d: completion %d did not free a slot", cycle, k)
			}
			a.dispatchedKind(hw.CPU, []float64{now + float64(k) + 0.6}) // drain immediately
		}
		now += float64(capacity) + 10 // everything completes; back to zero
		if !a.admit(now) {
			t.Fatalf("cycle %d: queue did not drain to zero", cycle)
		}
		if got := a.outstanding(); got != 1 { // only the probe admit remains
			t.Fatalf("cycle %d: outstanding %d after drain, want 1", cycle, got)
		}
		a.dispatchedKind(hw.CPU, []float64{now}) // probe completes instantly
		now++                                    // next cycle's admit pops it
	}
}

func TestRequestStreamOrderingAndSkew(t *testing.T) {
	rng := tensor.NewRNG(3)
	s, err := newPoissonStream(1000, 500, 1.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newPoissonStream(0, 500, 1, rng); err == nil {
		t.Fatal("expected error for zero vertices")
	}
	prev := -1.0
	low := 0
	const n = 4000
	var last float64
	for i := 0; i < n; i++ {
		r := s.next()
		if r.Arrival <= prev {
			t.Fatal("arrivals not strictly increasing")
		}
		prev = r.Arrival
		if r.Vertex < 0 || r.Vertex >= 1000 {
			t.Fatalf("vertex %d out of range", r.Vertex)
		}
		if r.Vertex < 100 {
			low++
		}
		last = r.Arrival
	}
	// Zipf(1.2): the hottest 10% of vertices draw far more than 10% of
	// requests.
	if float64(low)/n < 0.3 {
		t.Fatalf("hot-set share %.2f — popularity not skewed", float64(low)/n)
	}
	// Open loop at 500 req/s: 4000 arrivals span ≈ 8 virtual seconds.
	if last < 4 || last > 16 {
		t.Fatalf("stream span %.2fs inconsistent with rate", last)
	}
	if math.IsNaN(last) {
		t.Fatal("NaN arrival")
	}
}

package serve

import "repro/internal/hw"

// admissionController bounds the number of outstanding requests (waiting in
// the batcher or dispatched but not yet complete in virtual time). A request
// arriving while the system holds Capacity outstanding requests is rejected
// — open-loop overload then surfaces as a rejection rate instead of an
// unbounded latency tail.
//
// In a heterogeneous pool the controller additionally tracks in-flight work
// *per device kind*: requests dispatched to a slow kind occupy queue
// capacity until their (late) virtual completions, and without a per-kind
// bound one slow device kind can fill the whole queue and starve arrivals
// that faster kinds could have served. setKindCap bounds each kind's
// in-flight share; the router consults kindSaturated to steer batches away
// from a kind that has exhausted its share.
//
// Kind state lives in dense arrays indexed by hw.Kind (no map lookups on
// the admission hot path), and the completion heaps are hand-rolled over
// []float64 — container/heap would box every completion time through
// interface{}, one allocation per dispatched request.
type admissionController struct {
	capacity int
	waiting  int
	inflight [hw.KindCount]completionHeap
	caps     [hw.KindCount]int
	// degraded is the surviving-capacity fraction after worker fail-stops
	// (1 = full fleet); it drives shedClass's bulk-before-interactive
	// shedding order.
	degraded float64
}

// newAdmissionController builds a controller over a positive capacity (the
// Config's QueueCap).
func newAdmissionController(capacity int) *admissionController {
	return &admissionController{capacity: capacity, degraded: 1}
}

// setDegraded records the surviving-capacity fraction: shedClass starts
// shedding the classes the surviving fleet can no longer afford. Frac 1 (or
// more) restores healthy behavior exactly; frac 0 (or less) sheds every class
// but interactive.
func (a *admissionController) setDegraded(frac float64) { a.degraded = frac }

// shedClass reports whether degraded-mode admission sheds this class before
// it reaches the queue: bulk is shed under any capacity loss, standard once
// less than half the fleet survives, interactive never (the shedding order
// that keeps the tightest SLOs alive on the surviving capacity).
func (a *admissionController) shedClass(class SLOClass) bool {
	switch class {
	case ClassBulk:
		return a.degraded < 1
	case ClassStandard:
		return a.degraded < 0.5
	}
	return false
}

// cancel releases n waiting slots without completions — requests that were
// admitted but then shed (their batch exhausted its retry budget with no
// live worker), so admission capacity is not leaked to dead work. A serving
// run admits every request in offer before it can be dispatched or shed, so
// it never cancels more than are waiting; the clamp at zero only guards
// direct callers that do.
func (a *admissionController) cancel(n int) {
	a.waiting -= n
	if a.waiting < 0 {
		a.waiting = 0
	}
}

// setKindCap bounds one device kind's in-flight requests (0 removes the
// bound). Kinds without a cap share only the global capacity.
func (a *admissionController) setKindCap(kind hw.Kind, cap int) {
	if cap < 0 {
		cap = 0
	}
	a.caps[kind] = cap
}

// admit reports whether a request arriving at virtual time now fits, and
// records it as waiting if so.
func (a *admissionController) admit(now float64) bool {
	total := a.waiting
	for k := range a.inflight {
		h := &a.inflight[k]
		h.drain(now)
		total += len(*h)
	}
	if total >= a.capacity {
		return false
	}
	a.waiting++
	return true
}

// dispatchedKind moves len(completions) waiting requests to in-flight on the
// given device kind with their virtual completion times (one per request).
// A serving run admits every request in offer before it can be dispatched,
// so it never moves more than are waiting; the clamp at zero only guards
// direct callers that do (TestDispatchHitsAttributedToHost dispatches
// requests it never admitted).
func (a *admissionController) dispatchedKind(kind hw.Kind, completions []float64) {
	a.waiting -= len(completions)
	if a.waiting < 0 {
		a.waiting = 0
	}
	h := &a.inflight[kind]
	for _, c := range completions {
		h.push(c)
	}
}

// kindSaturated reports whether a kind has exhausted its in-flight share as
// of virtual time now. Kinds without a cap are never saturated.
func (a *admissionController) kindSaturated(kind hw.Kind, now float64) bool {
	cap := a.caps[kind]
	if cap <= 0 {
		return false
	}
	h := &a.inflight[kind]
	h.drain(now)
	return len(*h) >= cap
}

// kindInflight returns a kind's current in-flight count (tests, telemetry).
func (a *admissionController) kindInflight(kind hw.Kind) int {
	return len(a.inflight[kind])
}

// outstanding returns the current waiting + in-flight count as of the last
// admit call (for tests and telemetry).
func (a *admissionController) outstanding() int {
	total := a.waiting
	for k := range a.inflight {
		total += len(a.inflight[k])
	}
	return total
}

// completionHeap is a min-heap of virtual completion times with hand-rolled
// sift operations: pushing a float64 through container/heap's interface{}
// funnel costs one allocation per value, which on this path means one per
// dispatched request.
type completionHeap []float64

// push adds a completion time, sifting it up to restore heap order.
func (h *completionHeap) push(x float64) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// popMin removes and returns the earliest completion time.
func (h *completionHeap) popMin() float64 {
	s := *h
	min := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && s[r] < s[l] {
			child = r
		}
		if s[i] <= s[child] {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return min
}

// drain pops every completion at or before now.
func (h *completionHeap) drain(now float64) {
	for len(*h) > 0 && (*h)[0] <= now {
		h.popMin()
	}
}

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
// that faster kinds could have served. refit sets each kind's in-flight
// share from the live fleet; the router consults kindSaturated to steer
// batches away from a kind that has exhausted its share.
//
// Kind state lives in dense arrays indexed by hw.Kind (no map lookups on
// the admission hot path), and the completion heaps are hand-rolled over
// []float64 — container/heap would box every completion time through
// interface{}, one allocation per dispatched request.
type admissionController struct {
	capacity int
	waiting  int
	inflight [hw.KindCount]completionHeap
	// caps and shed are refit's law over the live fleet: caps[k] bounds kind
	// k's in-flight requests (0: only the queue bound applies), and shed[c]
	// turns class c away before it reaches the queue.
	caps [hw.KindCount]int
	shed [NumClasses]bool
}

// newAdmissionController builds a controller over a positive capacity (the
// Config's QueueCap).
func newAdmissionController(capacity int) *admissionController {
	return &admissionController{capacity: capacity}
}

// refit sets every per-kind cap and the shedding order from the live fleet:
// live[k] workers of kind k are up, out of pool workers in all. A kind with
// 0 < live[k] < Σlive gets max(1, ⌊capacity·live[k]/Σlive⌋) of the queue, so
// one slow kind's late completions cannot occupy it and starve the kinds that
// keep up. A kind that is the whole live fleet, or has no live worker, gets
// no cap: only the queue bound applies to it. Bulk is shed once any worker is
// lost, standard once fewer than half survive, and interactive never — the
// order that keeps the tightest SLOs alive on the surviving capacity.
func (a *admissionController) refit(live [hw.KindCount]int, pool int) {
	up := 0
	for _, n := range live {
		up += n
	}
	for k, n := range live {
		a.caps[k] = 0
		if n > 0 && n < up {
			a.caps[k] = max(1, a.capacity*n/up)
		}
	}
	a.shed[ClassBulk] = up < pool
	a.shed[ClassStandard] = 2*up < pool
}

// shedClass reports whether degraded-mode admission sheds this class before
// it reaches the queue (refit sets the order).
func (a *admissionController) shedClass(class SLOClass) bool { return a.shed[class] }

// cancel releases n waiting slots without completions — requests that were
// admitted but then shed (their batch exhausted its retry budget with no
// live worker), so admission capacity is not leaked to dead work.
func (a *admissionController) cancel(n int) { a.waiting -= n }

// admit reports whether a request arriving at virtual time now fits, and
// records it as waiting if so. It is the one place completions retire: every
// kind's heap drains up to now, the event loop's own clock.
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
func (a *admissionController) dispatchedKind(kind hw.Kind, completions []float64) {
	a.waiting -= len(completions)
	h := &a.inflight[kind]
	for _, c := range completions {
		h.push(c)
	}
}

// kindSaturated reports whether a kind has exhausted its in-flight share at
// virtual time at: whether at least its cap of completions lie after at.
// Kinds without a cap are never saturated. It only reads: at may lie ahead of
// the event loop (a retried batch routes at its backoff time), and retiring
// completions up to it would let the next admit count fewer requests in
// flight than there are.
func (a *admissionController) kindSaturated(kind hw.Kind, at float64) bool {
	cap := a.caps[kind]
	if cap == 0 {
		return false
	}
	h := a.inflight[kind]
	return len(h)-h.countAtOrBefore(0, at) >= cap
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

// countAtOrBefore counts the completions at or before t in the subtree rooted
// at i. Heap order makes them a subtree hanging from the root, so the walk
// stops at the first later entry on every path.
func (h completionHeap) countAtOrBefore(i int, t float64) int {
	if i >= len(h) || h[i] > t {
		return 0
	}
	return 1 + h.countAtOrBefore(2*i+1, t) + h.countAtOrBefore(2*i+2, t)
}

package serve

import (
	"fmt"
	"math"

	"repro/internal/hw"
)

// AdmissionController bounds the number of outstanding requests (waiting in
// the batcher or dispatched but not yet complete in virtual time). A request
// arriving while the system holds Capacity outstanding requests is rejected
// — open-loop overload then surfaces as a rejection rate instead of an
// unbounded latency tail.
//
// In a heterogeneous pool the controller additionally tracks in-flight work
// *per device kind*: requests dispatched to a slow kind occupy queue
// capacity until their (late) virtual completions, and without a per-kind
// bound one slow device kind can fill the whole queue and starve arrivals
// that faster kinds could have served. SetKindCap bounds each kind's
// in-flight share; the router consults KindSaturated to steer batches away
// from a kind that has exhausted its share.
//
// Kind state lives in dense arrays indexed by hw.Kind (no map lookups on
// the admission hot path), and the completion heaps are hand-rolled over
// []float64 — container/heap would box every completion time through
// interface{}, one allocation per dispatched request.
type AdmissionController struct {
	capacity int
	waiting  int
	inflight [hw.KindCount]completionHeap
	caps     [hw.KindCount]int
	// buckets meter admission per SLO class (dense array, no map on the
	// admission hot path); inactive buckets admit freely.
	buckets [NumClasses]classBucket
	// degraded is the surviving-capacity fraction after worker fail-stops
	// (1 = full fleet). It scales every token bucket's refill rate — the
	// multiply by 1.0 is bit-exact, so a fault-free run's admission
	// arithmetic is untouched — and drives ShedClass's bulk-before-
	// interactive shedding order.
	degraded float64
}

// ClassRateLimit meters one SLO class's admission with a token bucket on
// the virtual clock: RatePerSec sustained refill, Burst tokens of depth.
type ClassRateLimit struct {
	Class      SLOClass
	RatePerSec float64
	Burst      int
}

// classBucket is one SLO class's token-bucket state.
type classBucket struct {
	rate, burst float64
	tokens      float64
	last        float64 // virtual time of the last refill
	active      bool
}

// NewAdmissionController builds a controller; capacity must be positive.
func NewAdmissionController(capacity int) (*AdmissionController, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("serve: non-positive queue capacity %d", capacity)
	}
	return &AdmissionController{capacity: capacity, degraded: 1}, nil
}

// SetDegraded records the surviving-capacity fraction (clamped to [0, 1]):
// class token buckets refill at rate × frac from the next AdmitClass on, and
// ShedClass starts shedding the classes the surviving fleet can no longer
// afford. Frac 1 restores healthy behavior exactly.
func (a *AdmissionController) SetDegraded(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	a.degraded = frac
}

// Degraded returns the current surviving-capacity fraction.
func (a *AdmissionController) Degraded() float64 { return a.degraded }

// ShedClass reports whether degraded-mode admission sheds this class before
// it reaches the queue: bulk is shed under any capacity loss, standard once
// less than half the fleet survives, interactive never (the shedding order
// that keeps the tightest SLOs alive on the surviving capacity).
func (a *AdmissionController) ShedClass(class SLOClass) bool {
	switch {
	case a.degraded >= 1 || class >= NumClasses:
		return false
	case class == ClassBulk:
		return true
	case class == ClassStandard:
		return a.degraded < 0.5
	}
	return false
}

// Cancel releases n waiting slots without completions — requests that were
// admitted but then shed (their batch exhausted its retry budget with no
// live worker), so admission capacity is not leaked to dead work.
func (a *AdmissionController) Cancel(n int) {
	a.waiting -= n
	if a.waiting < 0 {
		a.waiting = 0
	}
}

// SetKindCap bounds one device kind's in-flight requests (0 removes the
// bound). Kinds without a cap share only the global capacity.
func (a *AdmissionController) SetKindCap(kind hw.Kind, cap int) {
	if cap < 0 {
		cap = 0
	}
	a.caps[kind] = cap
}

// SetClassRate meters an SLO class with a token bucket: sustained
// ratePerSec refill and burst tokens of depth (burst < 1 clamps to 1). The
// bucket starts full.
func (a *AdmissionController) SetClassRate(class SLOClass, ratePerSec float64, burst int) error {
	if class >= NumClasses {
		return fmt.Errorf("serve: SLO class %d out of range", class)
	}
	if ratePerSec <= 0 {
		return fmt.Errorf("serve: non-positive class rate %v for %s", ratePerSec, class)
	}
	if burst < 1 {
		burst = 1
	}
	a.buckets[class] = classBucket{
		rate: ratePerSec, burst: float64(burst), tokens: float64(burst), active: true,
	}
	return nil
}

// AdmitClass is Admit with per-class token-bucket metering: a request whose
// class has exhausted its bucket is rejected without consuming queue
// capacity, and a request the global bound rejects does not consume a
// token. Arrivals must be offered in non-decreasing virtual time.
func (a *AdmissionController) AdmitClass(now float64, class SLOClass) bool {
	if class >= NumClasses { // defensive: unknown classes share the global bound only
		return a.Admit(now)
	}
	b := &a.buckets[class]
	if b.active {
		b.tokens = math.Min(b.burst, b.tokens+(now-b.last)*b.rate*a.degraded)
		b.last = now
		if b.tokens < 1 {
			return false
		}
	}
	if !a.Admit(now) {
		return false
	}
	if b.active {
		b.tokens--
	}
	return true
}

// Admit reports whether a request arriving at virtual time now fits, and
// records it as waiting if so.
func (a *AdmissionController) Admit(now float64) bool {
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

// DispatchedKind moves len(completions) waiting requests to in-flight on the
// given device kind with their virtual completion times (one per request).
func (a *AdmissionController) DispatchedKind(kind hw.Kind, completions []float64) {
	a.waiting -= len(completions)
	if a.waiting < 0 {
		a.waiting = 0
	}
	h := &a.inflight[kind]
	for _, c := range completions {
		h.push(c)
	}
}

// KindSaturated reports whether a kind has exhausted its in-flight share as
// of virtual time now. Kinds without a cap are never saturated.
func (a *AdmissionController) KindSaturated(kind hw.Kind, now float64) bool {
	cap := a.caps[kind]
	if cap <= 0 {
		return false
	}
	h := &a.inflight[kind]
	h.drain(now)
	return len(*h) >= cap
}

// KindInflight returns a kind's current in-flight count (tests, telemetry).
func (a *AdmissionController) KindInflight(kind hw.Kind) int {
	return len(a.inflight[kind])
}

// Outstanding returns the current waiting + in-flight count as of the last
// Admit call (for tests and telemetry).
func (a *AdmissionController) Outstanding() int {
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

package serve

import (
	"fmt"
	"math"

	"repro/internal/fault"
)

// faultWindow is one [from, to) service interval with an inflation factor.
type faultWindow struct{ from, to, factor float64 }

// fleetHealth is the serving fleet's per-worker health view of a fault
// schedule: pure lookups in virtual time (a worker's liveness, stall and
// straggler adjustments are functions of (worker, time), so routing needs no
// event ordering), plus the ordered fail-stop list the server applies to the
// admission plane as arrivals pass each fail time. Every server carries one:
// a nil, empty or training-only schedule yields no windows and fail times of
// +Inf, and the fault-free run is that view flowing through the same code.
type fleetHealth struct {
	failAt []float64 // per pool worker: fail-stop time, +Inf when never
	stalls [][]faultWindow
	slows  [][]faultWindow

	firstFailSec float64 // earliest fail-stop (+Inf none): the recovery anchor

	// fails is the fail-stop (worker, time) list in time order; nextFail
	// tracks how many the admission plane has applied.
	fails    []faultWindow // from = fail time, factor = worker index
	nextFail int
}

// newFleetHealth builds the health view for a pool of `workers` workers.
func newFleetHealth(sched *fault.Schedule, workers int) (*fleetHealth, error) {
	if m := sched.MaxWorker(); m >= workers {
		return nil, fmt.Errorf("serve: fault schedule targets worker %d, pool has %d workers", m, workers)
	}
	h := &fleetHealth{
		failAt:       make([]float64, workers),
		stalls:       make([][]faultWindow, workers),
		slows:        make([][]faultWindow, workers),
		firstFailSec: math.Inf(1),
	}
	for i := range h.failAt {
		h.failAt[i] = math.Inf(1)
	}
	if sched == nil {
		return h, nil
	}
	for _, e := range sched.Events {
		if e.Worker < 0 {
			continue
		}
		switch e.Kind {
		case fault.FailStop:
			h.failAt[e.Worker] = e.AtSec
			h.firstFailSec = math.Min(h.firstFailSec, e.AtSec)
			h.fails = append(h.fails, faultWindow{from: e.AtSec, factor: float64(e.Worker)})
		case fault.Stall:
			h.stalls[e.Worker] = append(h.stalls[e.Worker], faultWindow{from: e.FromSec, to: e.ToSec, factor: 1})
		case fault.Slow:
			h.slows[e.Worker] = append(h.slows[e.Worker], faultWindow{from: e.FromSec, to: e.ToSec, factor: e.Factor})
		}
	}
	// Apply fail-stops in time order regardless of spec order.
	for i := 1; i < len(h.fails); i++ {
		for j := i; j > 0 && h.fails[j].from < h.fails[j-1].from; j-- {
			h.fails[j], h.fails[j-1] = h.fails[j-1], h.fails[j]
		}
	}
	return h, nil
}

// alive reports whether worker wi is still up at virtual time t (a worker is
// down from its fail-stop time onward).
func (h *fleetHealth) alive(wi int, t float64) bool { return t < h.failAt[wi] }

// adjust maps a batch's tentative start time on worker wi to its
// fault-adjusted start and service-inflation factor: a start inside a stall
// window is pushed to the window's end, and a (possibly pushed) start inside
// a straggler window inflates service by the window's factor. A worker with
// no windows returns (start, 1) — and the caller's arithmetic with factor 1
// is bit-exact.
func (h *fleetHealth) adjust(wi int, start float64) (float64, float64) {
	for _, w := range h.stalls[wi] {
		if start >= w.from && start < w.to {
			start = w.to
		}
	}
	f := 1.0
	for _, w := range h.slows[wi] {
		if start >= w.from && start < w.to {
			f *= w.factor
		}
	}
	return start, f
}

// popFailures advances the applied-failure cursor past every fail-stop at or
// before now, returning how many newly applied (the server reacts by
// retightening admission to the surviving capacity).
func (h *fleetHealth) popFailures(now float64) int {
	n := 0
	for h.nextFail < len(h.fails) && h.fails[h.nextFail].from <= now {
		h.nextFail++
		n++
	}
	return n
}

// aliveCount returns how many workers are up at virtual time t.
func (h *fleetHealth) aliveCount(t float64) int {
	n := 0
	for wi := range h.failAt {
		if h.alive(wi, t) {
			n++
		}
	}
	return n
}

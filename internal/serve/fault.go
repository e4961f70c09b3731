package serve

import (
	"math"

	"repro/internal/fault"
)

// faultWindow is one [from, to) service interval with an inflation factor.
type faultWindow struct{ from, to, factor float64 }

// fleetHealth is the serving fleet's per-worker health view of a fault
// schedule: pure lookups in virtual time (a worker's liveness, stall and
// straggler adjustments are functions of (worker, time), so neither routing
// nor admission needs an event list). Every server carries one: a nil, empty
// or training-only schedule yields no windows and fail times of +Inf, and the
// fault-free run is that view flowing through the same code.
type fleetHealth struct {
	failAt []float64 // per pool worker: fail-stop time, +Inf when never
	stalls [][]faultWindow
	slows  [][]faultWindow

	firstFailSec float64 // earliest fail-stop (+Inf none): the recovery anchor
}

// newFleetHealth builds the health view for a pool of `workers` workers,
// which Config.Validate has checked the schedule against.
func newFleetHealth(sched *fault.Schedule, workers int) *fleetHealth {
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
		return h
	}
	for _, e := range sched.Events {
		if e.Worker < 0 {
			continue
		}
		switch e.Kind {
		case fault.FailStop:
			h.failAt[e.Worker] = e.AtSec
			h.firstFailSec = math.Min(h.firstFailSec, e.AtSec)
		case fault.Stall:
			h.stalls[e.Worker] = append(h.stalls[e.Worker], faultWindow{from: e.FromSec, to: e.ToSec, factor: 1})
		case fault.Slow:
			h.slows[e.Worker] = append(h.slows[e.Worker], faultWindow{from: e.FromSec, to: e.ToSec, factor: e.Factor})
		}
	}
	return h
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

package serve

import (
	"math"

	"repro/internal/hw"
)

// PolicyEarliest names the router: earliest predicted completion over the
// per-device serving stage vectors, preferring the CPU peer for small batches
// and steering around saturated kinds. It is the only value Config.Policy
// accepts besides "".
const PolicyEarliest = "earliest"

// RouteAlternative is one counterfactual row in a RouteDecision: what
// dispatching this batch to Worker instead was predicted to cost.
type RouteAlternative struct {
	Worker           int
	Kind             string
	PredictedDoneSec float64 // max(closeAt, avail) + predicted service
	Saturated        bool    // kind had exhausted its admission share
	Failed           bool    // worker was fail-stopped at the batch's close time
}

// RouteDecision is one routing trace row: the chosen worker, its predicted
// service and completion, and the counterfactual predicted completion of
// every alternative — so a routing change is justified by traces, not vibes.
type RouteDecision struct {
	Batch               int     // computed-batch ordinal (index into Stats.Routes)
	CloseAt             float64 // virtual time the batch was routed at (its close, or its last re-dispatch)
	Computed            int     // cache-missing targets
	Worker              int     // chosen pool index
	SmallToPeer         bool
	PredictedServiceSec float64
	PredictedDoneSec    float64
	Alternatives        []RouteAlternative // one per pool worker, pool order
}

// router selects the serving worker for every closed batch: the CPU peer for
// a small batch, otherwise the earliest predicted completion among workers
// whose kind still has admission share, otherwise the earliest over the whole
// pool. It is deterministic — the same batch against the same pool state
// picks the same worker — and does not allocate unless it fills a trace row.
type router struct {
	pool      []*worker
	admission *AdmissionController
	// health is the fault schedule's per-worker liveness/stall/straggler
	// view: fail-stopped workers are never candidates, and predictions are
	// fault-adjusted.
	health *fleetHealth
}

// prediction is the router's forecast of one batch on one worker. It is
// computed once per candidate and the chosen worker's copy serves the whole
// dispatch: the predicted-loss check compares done against the worker's fail
// time, and execution enters the pipeline at ready with every stage scaled by
// factor (AvailableAt cannot move in between).
type prediction struct {
	worker int     // pool index; -1: no live worker could take the batch
	svc    float64 // predicted serial service, before straggler inflation
	avail  float64 // the worker's AvailableAt — the tie-break
	ready  float64 // pipeline entry: the route time, or the end of the stall window holding the worker
	factor float64 // straggler inflation (1 outside every window; the multiply is then bit-exact)
	done   float64 // fault-adjusted start + svc·factor
}

// predict forecasts a batch of `computed` targets routed at time `at` on pool
// worker i: a start in a stall window is pushed past it and a straggler's
// service is inflated.
func (r *router) predict(i, computed int, at float64) (prediction, error) {
	w := r.pool[i]
	svc, err := w.pipe.ServiceSec(computed)
	if err != nil {
		return prediction{}, err
	}
	p := prediction{worker: i, svc: svc, avail: w.pipe.AvailableAt(), ready: at}
	free := math.Max(at, p.avail)
	start, f := r.health.adjust(i, free)
	if start > free {
		p.ready = start
	}
	p.factor, p.done = f, start+svc*f
	return p, nil
}

// peerIndex returns the pool index of the CPU peer when a small batch should
// land there (the peer pays no transfer or launch cost), or -1.
func (r *router) peerIndex(at float64, small bool) int {
	if !small {
		return -1
	}
	for i, w := range r.pool {
		if w.pipe.DeviceIndex() == 0 && r.health.alive(i, at) &&
			!r.admission.KindSaturated(hw.CPU, at) {
			return i
		}
	}
	return -1
}

// earliest picks the earliest predicted completion among live workers,
// optionally skipping saturated kinds. Ties break on availability, then pool
// order. Returns worker -1 when every candidate was skipped.
func (r *router) earliest(computed int, at float64, skipSaturated bool) (prediction, error) {
	best := prediction{worker: -1}
	for i, w := range r.pool {
		if !r.health.alive(i, at) {
			continue
		}
		if skipSaturated && r.admission.KindSaturated(w.pipe.Device().Kind, at) {
			continue
		}
		p, err := r.predict(i, computed, at)
		if err != nil {
			return prediction{}, err
		}
		if best.worker < 0 || p.done < best.done ||
			(p.done == best.done && p.avail < best.avail) {
			best = p
		}
	}
	return best, nil
}

// route picks the worker for a batch of `computed` cache-missing targets
// routed at virtual time `at` (small: the batcher classified it for the CPU
// peer) and returns its prediction; worker -1 when every worker is
// fail-stopped. A non-nil dec additionally receives the decision's trace row.
func (r *router) route(computed int, at float64, small bool, dec *RouteDecision) (prediction, error) {
	var p prediction
	var err error
	peer := r.peerIndex(at, small)
	if peer >= 0 {
		p, err = r.predict(peer, computed, at)
	} else {
		p, err = r.earliest(computed, at, true)
		if err == nil && p.worker < 0 { // every kind saturated: fall back to the whole pool
			p, err = r.earliest(computed, at, false)
		}
	}
	if err != nil {
		return prediction{}, err
	}
	if dec != nil {
		dec.CloseAt, dec.Computed, dec.Worker, dec.SmallToPeer = at, computed, p.worker, peer >= 0
		dec.PredictedServiceSec, dec.PredictedDoneSec = p.svc, p.done
		if err := r.alternatives(dec, computed, at); err != nil {
			return prediction{}, err
		}
	}
	return p, nil
}

// alternatives fills dec's counterfactual rows: the predicted completion of
// every pool worker for this batch. Only called on the tracing path, so
// allocation is fine here.
func (r *router) alternatives(dec *RouteDecision, computed int, at float64) error {
	dec.Alternatives = make([]RouteAlternative, len(r.pool))
	for i, w := range r.pool {
		p, err := r.predict(i, computed, at)
		if err != nil {
			return err
		}
		dec.Alternatives[i] = RouteAlternative{
			Worker:           i,
			Kind:             w.pipe.Device().Kind.String(),
			PredictedDoneSec: p.done,
			Saturated:        r.admission.KindSaturated(w.pipe.Device().Kind, at),
			Failed:           !r.health.alive(i, at),
		}
	}
	return nil
}

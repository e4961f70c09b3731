package serve

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/hw"
)

// Routing policy names accepted by Config.Policy / ParsePolicy.
const (
	// PolicyEarliest dispatches to the earliest predicted completion over
	// the per-device serving stage vectors, preferring the CPU peer for
	// small batches and steering around saturated kinds — the router PR 4
	// shipped, now as the default plugin.
	PolicyEarliest = "earliest"
	// PolicyLeastLoaded dispatches to the worker with the smallest
	// AvailableAt, ignoring per-device predictions, kind saturation, and
	// the small-batch split — the pre-PR-4 legacy policy, retained as the
	// regression baseline (on identical devices, earliest must coincide
	// with it byte for byte).
	PolicyLeastLoaded = "least-loaded"
	// PolicyAffinity scores workers by how many of the batch's missing
	// vertices each computed recently (a per-worker recency sketch fed by
	// completions), tie-breaking by predicted completion. Re-computing a
	// vertex on the worker that just computed its neighborhood is the
	// serving analogue of cache-affinity scheduling.
	PolicyAffinity = "affinity"
)

// ParsePolicy canonicalizes a routing-policy name ("" picks the default,
// earliest-completion).
func ParsePolicy(name string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", PolicyEarliest, "earliest-completion":
		return PolicyEarliest, nil
	case PolicyLeastLoaded, "leastloaded":
		return PolicyLeastLoaded, nil
	case PolicyAffinity, "cache-affinity":
		return PolicyAffinity, nil
	}
	return "", fmt.Errorf("serve: unknown routing policy %q (want earliest, least-loaded, or affinity)", name)
}

// RouteRequest describes one closed batch to a routing policy: how many
// cache-missing targets it computes, when it closed, whether the batcher
// classified it small, and which vertices it computes (for affinity
// scoring). Targets borrows the dispatcher's scratch — valid only for the
// duration of the Route call.
type RouteRequest struct {
	Computed int
	CloseAt  float64
	Small    bool
	Targets  []int32
}

// RouteAlternative is one counterfactual row in a RouteDecision: what
// dispatching this batch to Worker instead was predicted to cost.
type RouteAlternative struct {
	Worker           int
	Kind             string
	PredictedDoneSec float64 // max(closeAt, avail) + predicted service
	Saturated        bool    // kind had exhausted its admission share
	Failed           bool    // worker was fail-stopped at the batch's close time
	Affinity         int     // recency-sketch score (affinity policy; else 0)
}

// RouteDecision is one routing trace row: the chosen worker, its predicted
// service and completion, and the counterfactual predicted completion of
// every alternative — so a policy change is justified by traces, not vibes.
type RouteDecision struct {
	Batch               int     // computed-batch ordinal (index into Stats.Routes)
	CloseAt             float64 // virtual close time of the batch
	Computed            int     // cache-missing targets
	Policy              string
	Worker              int // chosen pool index
	SmallToPeer         bool
	PredictedServiceSec float64
	PredictedDoneSec    float64
	Alternatives        []RouteAlternative // one per pool worker, pool order
}

// RoutePolicy selects the serving worker for every closed batch.
// Implementations must be deterministic: the same request against the same
// pool state picks the same worker. Route must not allocate when dec is
// nil — it sits on the zero-alloc dispatch path; when dec is non-nil the
// policy additionally fills the full decision trace (tracing may allocate).
type RoutePolicy interface {
	Name() string
	Route(req *RouteRequest, dec *RouteDecision) (int, error)
	// Observe feeds a completed computed batch back to the policy: worker
	// wi computed the embeddings of targets. Stateless policies ignore it.
	Observe(wi int, targets []int32)
}

// newRoutePolicy builds the named policy over a worker pool (name must be
// canonical — run ParsePolicy first).
func newRoutePolicy(name string, pool []*worker, admission *AdmissionController, health *fleetHealth) (RoutePolicy, error) {
	base := policyBase{pool: pool, admission: admission, health: health}
	switch name {
	case PolicyEarliest:
		return &earliestPolicy{base}, nil
	case PolicyLeastLoaded:
		return &leastLoadedPolicy{base}, nil
	case PolicyAffinity:
		p := &affinityPolicy{policyBase: base, mask: affinitySketchSize - 1}
		p.sketch = make([][]int32, len(pool))
		for i := range p.sketch {
			s := make([]int32, affinitySketchSize)
			for j := range s {
				s[j] = -1
			}
			p.sketch[i] = s
		}
		return p, nil
	}
	return nil, fmt.Errorf("serve: unknown routing policy %q", name)
}

// policyBase carries the pool view shared by every policy.
type policyBase struct {
	pool      []*worker
	admission *AdmissionController
	// health is the fault schedule's per-worker liveness/stall/straggler
	// view: fail-stopped workers are excluded from every policy's candidate
	// set, and predictions are fault-adjusted.
	health *fleetHealth
}

// excluded reports whether worker i is off the candidate list at time t
// (fail-stopped at or before t).
func (b *policyBase) excluded(i int, t float64) bool {
	return !b.health.alive(i, t)
}

// predictedDone returns worker w's predicted completion for req — the
// routing arithmetic every policy shares, fault-adjusted: a start in a stall
// window is pushed past it and a straggler's service is inflated (outside
// every window the factor is 1 and the multiply is bit-exact).
func (b *policyBase) predictedDone(w *worker, req *RouteRequest) (pred, avail float64, err error) {
	svc, err := w.serviceSec(req.Computed)
	if err != nil {
		return 0, 0, err
	}
	avail = w.pipe.AvailableAt()
	start, f := b.health.adjust(w.idx, math.Max(req.CloseAt, avail))
	return start + svc*f, avail, nil
}

// peerIndex returns the pool index of the CPU peer when a small batch
// should land there (the peer pays no transfer or launch cost), or -1.
func (b *policyBase) peerIndex(req *RouteRequest) int {
	if !req.Small {
		return -1
	}
	for i, w := range b.pool {
		if w.pipe.DeviceIndex() == 0 && !b.excluded(i, req.CloseAt) &&
			!b.admission.KindSaturated(hw.CPU, req.CloseAt) {
			return i
		}
	}
	return -1
}

// earliest picks the earliest predicted completion, optionally skipping
// saturated kinds. Ties break on availability, then pool order. Returns -1
// when every candidate was skipped.
func (b *policyBase) earliest(req *RouteRequest, skipSaturated bool) (int, error) {
	best := -1
	var bestPred, bestAvail float64
	for i, w := range b.pool {
		if b.excluded(i, req.CloseAt) {
			continue
		}
		if skipSaturated && b.admission.KindSaturated(w.pipe.Device().Kind, req.CloseAt) {
			continue
		}
		pred, avail, err := b.predictedDone(w, req)
		if err != nil {
			return -1, err
		}
		if best < 0 || pred < bestPred ||
			(pred == bestPred && avail < bestAvail) {
			best, bestPred, bestAvail = i, pred, avail
		}
	}
	return best, nil
}

// trace fills dec's counterfactual rows: the predicted completion of every
// pool worker for this request, plus the chosen worker's summary fields.
// Only called on the tracing path, so allocation is fine here.
func (b *policyBase) trace(dec *RouteDecision, req *RouteRequest, chosen int, name string, smallToPeer bool, affinity func(wi int) int) error {
	dec.CloseAt = req.CloseAt
	dec.Computed = req.Computed
	dec.Policy = name
	dec.Worker = chosen
	dec.SmallToPeer = smallToPeer
	dec.Alternatives = make([]RouteAlternative, len(b.pool))
	for i, w := range b.pool {
		svc, err := w.serviceSec(req.Computed)
		if err != nil {
			return err
		}
		pred, _, err := b.predictedDone(w, req)
		if err != nil {
			return err
		}
		alt := RouteAlternative{
			Worker:           i,
			Kind:             w.pipe.Device().Kind.String(),
			PredictedDoneSec: pred,
			Saturated:        b.admission.KindSaturated(w.pipe.Device().Kind, req.CloseAt),
			Failed:           b.excluded(i, req.CloseAt),
		}
		if affinity != nil {
			alt.Affinity = affinity(i)
		}
		dec.Alternatives[i] = alt
		if i == chosen {
			dec.PredictedServiceSec = svc
			dec.PredictedDoneSec = alt.PredictedDoneSec
		}
	}
	return nil
}

// earliestPolicy is the default: earliest predicted completion with the
// small-batch CPU-peer preference and kind-saturation steering.
type earliestPolicy struct{ policyBase }

func (p *earliestPolicy) Name() string { return PolicyEarliest }

func (p *earliestPolicy) Route(req *RouteRequest, dec *RouteDecision) (int, error) {
	smallToPeer := false
	wi := p.peerIndex(req)
	if wi >= 0 {
		smallToPeer = true
	} else {
		var err error
		wi, err = p.earliest(req, true)
		if err != nil {
			return -1, err
		}
		if wi < 0 { // every kind saturated: fall back to the whole pool
			wi, err = p.earliest(req, false)
			if err != nil {
				return -1, err
			}
		}
	}
	if dec != nil {
		if err := p.trace(dec, req, wi, p.Name(), smallToPeer, nil); err != nil {
			return -1, err
		}
	}
	return wi, nil
}

func (p *earliestPolicy) Observe(int, []int32) {}

// leastLoadedPolicy dispatches to the smallest AvailableAt, tie-breaking on
// pool order — the legacy policy, byte-identical to the pre-plugin router.
type leastLoadedPolicy struct{ policyBase }

func (p *leastLoadedPolicy) Name() string { return PolicyLeastLoaded }

func (p *leastLoadedPolicy) Route(req *RouteRequest, dec *RouteDecision) (int, error) {
	wi := -1
	for i, w := range p.pool {
		if p.excluded(i, req.CloseAt) {
			continue
		}
		if wi < 0 || w.pipe.AvailableAt() < p.pool[wi].pipe.AvailableAt() {
			wi = i
		}
	}
	if dec != nil {
		if err := p.trace(dec, req, wi, p.Name(), false, nil); err != nil {
			return -1, err
		}
	}
	return wi, nil
}

func (p *leastLoadedPolicy) Observe(int, []int32) {}

// affinitySketchSize is each worker's recency-sketch slot count (direct
// mapped; power of two).
const affinitySketchSize = 2048

// affinityPolicy scores each worker by how many of the batch's missing
// vertices it computed recently, routing to the highest score among
// non-saturated workers; ties break on predicted completion, then
// availability, then pool order. Small batches still prefer the CPU peer
// (affinity refines the choice *among* the big-batch workers, it does not
// undo the per-kind split). The sketch is a direct-mapped table per worker:
// Observe overwrites slot hash(v) with v, so scoring one vertex is a single
// load and compare — O(batch) per candidate worker, no allocation.
type affinityPolicy struct {
	policyBase
	sketch [][]int32
	mask   uint32
}

func (p *affinityPolicy) Name() string { return PolicyAffinity }

// vertexSlot hashes a vertex into the sketch (Knuth multiplicative mix).
func vertexSlot(v int32, mask uint32) uint32 {
	x := uint32(v) * 2654435761
	return (x ^ x>>16) & mask
}

// score counts how many of the targets worker wi holds in its sketch.
func (p *affinityPolicy) score(wi int, targets []int32) int {
	s := p.sketch[wi]
	n := 0
	for _, v := range targets {
		if s[vertexSlot(v, p.mask)] == v {
			n++
		}
	}
	return n
}

// pick chooses the best-scoring candidate, optionally skipping saturated
// kinds; -1 when every candidate was skipped.
func (p *affinityPolicy) pick(req *RouteRequest, skipSaturated bool) (int, error) {
	best := -1
	bestScore := -1
	var bestPred, bestAvail float64
	for i, w := range p.pool {
		if p.excluded(i, req.CloseAt) {
			continue
		}
		if skipSaturated && p.admission.KindSaturated(w.pipe.Device().Kind, req.CloseAt) {
			continue
		}
		pred, avail, err := p.predictedDone(w, req)
		if err != nil {
			return -1, err
		}
		score := p.score(i, req.Targets)
		if best < 0 || score > bestScore ||
			(score == bestScore && (pred < bestPred ||
				(pred == bestPred && avail < bestAvail))) {
			best, bestScore, bestPred, bestAvail = i, score, pred, avail
		}
	}
	return best, nil
}

func (p *affinityPolicy) Route(req *RouteRequest, dec *RouteDecision) (int, error) {
	smallToPeer := false
	wi := p.peerIndex(req)
	if wi >= 0 {
		smallToPeer = true
	} else {
		var err error
		wi, err = p.pick(req, true)
		if err != nil {
			return -1, err
		}
		if wi < 0 {
			wi, err = p.pick(req, false)
			if err != nil {
				return -1, err
			}
		}
	}
	if dec != nil {
		aff := func(i int) int { return p.score(i, req.Targets) }
		if err := p.trace(dec, req, wi, p.Name(), smallToPeer, aff); err != nil {
			return -1, err
		}
	}
	return wi, nil
}

// Observe records that worker wi computed these vertices: each overwrites
// its direct-mapped slot, so the sketch tracks each worker's recent compute
// set with bounded memory and no allocation.
func (p *affinityPolicy) Observe(wi int, targets []int32) {
	s := p.sketch[wi]
	for _, v := range targets {
		s[vertexSlot(v, p.mask)] = v
	}
}

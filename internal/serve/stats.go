package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/hw"
	"repro/internal/perfmodel"
)

// DeviceStats is one serving worker's share of a run: which device it is
// bound to and how much of the pool's work it absorbed — the per-kind
// load counters the heterogeneous bench tables print, mirroring
// training's EpochStats.FPGA accounting.
type DeviceStats struct {
	Name     string
	Kind     hw.Kind
	Device   int // binding in InferConfig.Device convention
	Batches  int // computed batches routed to this worker
	Requests int // computed requests answered by this worker
	// BusySec sums each batch's serial service time (its stage times added
	// up) on this worker. The worker pipelines those stages across batches,
	// so this is stage time, not wall occupancy: it can exceed the makespan,
	// and BusySec / MakespanSec is not a utilisation bounded by 1.
	BusySec float64
}

// ClassStats is one SLO class's share of a serving run.
type ClassStats struct {
	Offered  int
	Served   int
	Rejected int
	// Shed counts requests this class lost to the fault machinery: dropped by
	// degraded-mode admission after a worker loss, or abandoned when a batch
	// exhausted its re-dispatch retry budget. Zero in fault-free runs.
	Shed int
	// DeadlineMisses counts served requests whose latency exceeded the
	// class's SLO target (zero when no target is configured).
	DeadlineMisses int
	// SLOSec echoes the configured per-class latency target (0 = none).
	SLOSec float64

	MeanSec, P50Sec, P99Sec, MaxSec float64 // per-class request latency
}

// ClassSLO sets one class's latency target for deadline-miss accounting.
type ClassSLO struct {
	Class     SLOClass
	TargetSec float64
}

// ParseSLOTargets parses a per-class latency-target spec of the form
// "interactive=2,standard=10,bulk=50" — values in milliseconds, classes named
// as in parseClass, each at most once. An empty spec returns nil (no deadline
// accounting).
func ParseSLOTargets(spec string) ([]ClassSLO, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []ClassSLO
	var seen [NumClasses]bool
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("serve: SLO target %q is not class=millis", part)
		}
		class, err := parseClass(strings.TrimSpace(key))
		if err != nil {
			return nil, err
		}
		if seen[class] {
			return nil, fmt.Errorf("serve: SLO target for class %s given twice", class)
		}
		seen[class] = true
		// The whole token must be the number: Sscanf("%g") stops at the first
		// byte it cannot use and would read "2abc" as 2.
		ms, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || !finitePositive(ms*1e-3) {
			return nil, fmt.Errorf("serve: SLO target %q needs a finite positive millisecond value", part)
		}
		out = append(out, ClassSLO{Class: class, TargetSec: ms * 1e-3})
	}
	return out, nil
}

// Stats summarizes one serving run: what was offered, served, and rejected,
// where the time went, and the analytic model's prediction for the same
// operating point (at the measured cache behavior).
type Stats struct {
	Offered  int // requests generated by the stream
	Served   int // requests answered (computed or from cache)
	Rejected int // requests refused by admission control

	Batches   int     // batches that reached the worker pool
	MeanBatch float64 // mean requests per closed batch (cache hits included)

	Computed  int   // served requests that needed the full pipeline
	CacheHits int64 // lookups answered by the embedding cache
	Evictions int64
	HitRate   float64 // fraction of served requests answered from cache

	MeanSec, P50Sec, P95Sec, P99Sec, MaxSec float64 // request latency

	// PerClass breaks the run down per SLO class — the per-class
	// offered/served/rejected ledger and latency quantiles multi-cohort
	// workloads are judged by. Classes with no offered traffic stay zero.
	PerClass [NumClasses]ClassStats
	// ActiveClasses is the number of classes with offered traffic.
	ActiveClasses int
	// DeadlineMisses totals served requests that blew their class SLO target
	// (zero when Config.SLOTargets is empty).
	DeadlineMisses int
	// JainFairness is the Jain index over per-class goodput attainment
	// (served/offered per active class): 1 means every class kept the same
	// fraction of its offered load, 1/n means one class took everything.
	JainFairness float64

	MakespanSec   float64 // virtual time of the last completion
	ThroughputRPS float64 // served / makespan
	EdgesPerSec   float64 // traversed sampled edges per virtual second

	// MeanServiceSec is the executed mean per-batch pipeline time (serial
	// stage sum including barriers) — the quantity the analytic serving
	// model predicts as ServiceSec.
	MeanServiceSec float64

	// PerDevice breaks batches, requests, and busy time down per worker —
	// one entry per pool worker, in pool order.
	PerDevice []DeviceStats

	// Routes records, per computed batch, the pool index of the worker that
	// served it (in dispatch order) — the routing trace determinism tests
	// compare.
	Routes []int

	// RouteTrace holds one decision row per computed batch when
	// Config.RouteTrace is set — RouteTrace[i] is the decision that put
	// Routes[i] on its worker: the chosen worker plus the counterfactual
	// predicted completion of every alternative (nil otherwise).
	RouteTrace []RouteDecision

	// Fault/recovery accounting — all zero (and unprinted) when the run has
	// no fault schedule, so fault-free Stats are byte-identical to a build
	// without the fault machinery.
	//
	// Shed counts requests dropped on purpose under degraded capacity:
	// degraded-mode admission shedding plus retry-budget exhaustion. In a
	// fault run Offered == Served + Rejected + Shed (no silent request loss).
	Shed int
	// Retries counts re-route attempts made because the chosen worker was
	// predicted to fail-stop mid-service; Redispatched counts computed
	// batches that ultimately completed on a backup worker.
	Retries      int
	Redispatched int
	// FailedWorkers is how many scripted fail-stops the run applied.
	FailedWorkers int
	// RecoverySec is the self-healing time: the last re-dispatched batch's
	// completion minus the first fail-stop time (0 when nothing needed
	// re-dispatch).
	RecoverySec float64
	// FaultWindowServed / FaultWindowP99Sec summarize the requests whose
	// completions fall at or after the first fail-stop — the tail the
	// failure drill is judged by.
	FaultWindowServed int
	FaultWindowP99Sec float64

	// Prediction is the analytic serving model evaluated at this run's
	// operating point: the offered rate of the arrivals it served (count over
	// the last arrival time) and the measured miss rate as ComputeFrac. Zero
	// when the arrivals span no time.
	Prediction perfmodel.ServingPrediction
}

// String renders a human-readable report.
func (s *Stats) String() string {
	out := fmt.Sprintf(
		"served %d/%d (rejected %d)  batches %d (mean %.1f req)  cache hit %.0f%% (evict %d)\n"+
			"latency p50 %.3fms  p95 %.3fms  p99 %.3fms  mean %.3fms  max %.3fms\n"+
			"throughput %.0f req/s (%.1f MTEPS)  makespan %.4fs  batch service %.3fms\n"+
			"analytic: service %.3fms (executed %.3fms)  capacity %.0f req/s  p50 %.3fms  p99 %.3fms",
		s.Served, s.Offered, s.Rejected, s.Batches, s.MeanBatch, 100*s.HitRate, s.Evictions,
		1e3*s.P50Sec, 1e3*s.P95Sec, 1e3*s.P99Sec, 1e3*s.MeanSec, 1e3*s.MaxSec,
		s.ThroughputRPS, s.EdgesPerSec/1e6, s.MakespanSec, 1e3*s.MeanServiceSec,
		1e3*s.Prediction.ServiceSec, 1e3*s.MeanServiceSec, s.Prediction.CapacityRPS,
		1e3*s.Prediction.P50Sec, 1e3*s.Prediction.P99Sec)
	var b strings.Builder
	b.WriteString(out)
	if s.ActiveClasses > 1 {
		for c := range s.PerClass {
			cs := &s.PerClass[c]
			if cs.Offered == 0 {
				continue
			}
			b.WriteString(fmt.Sprintf("\nclass %-11s offered %d served %d rejected %d  p50 %.3fms p99 %.3fms max %.3fms",
				SLOClass(c).String(), cs.Offered, cs.Served, cs.Rejected,
				1e3*cs.P50Sec, 1e3*cs.P99Sec, 1e3*cs.MaxSec))
			if cs.Shed > 0 {
				b.WriteString(fmt.Sprintf(" shed %d", cs.Shed))
			}
			if cs.SLOSec > 0 {
				b.WriteString(fmt.Sprintf(" miss %d (slo %.3fms)", cs.DeadlineMisses, 1e3*cs.SLOSec))
			}
		}
		b.WriteString(fmt.Sprintf("\nclass fairness (Jain over served/offered): %.4f", s.JainFairness))
	}
	if s.FailedWorkers > 0 || s.Shed > 0 || s.Retries > 0 {
		b.WriteString(fmt.Sprintf("\nfaults: %d worker(s) lost, %d shed, %d retries (%d batches re-dispatched), recovery %.4fs",
			s.FailedWorkers, s.Shed, s.Retries, s.Redispatched, s.RecoverySec))
		if s.FaultWindowServed > 0 {
			b.WriteString(fmt.Sprintf("  fault-window p99 %.3fms over %d req", 1e3*s.FaultWindowP99Sec, s.FaultWindowServed))
		}
	}
	for i, d := range s.PerDevice {
		stage := 0.0
		if s.MakespanSec > 0 {
			stage = d.BusySec / s.MakespanSec
		}
		b.WriteString(fmt.Sprintf("\nworker %d [%s %s]: %d batches, %d req, summed stage time %.4fs (%.2f× makespan; stages overlap)",
			i, d.Kind, d.Name, d.Batches, d.Requests, d.BusySec, stage))
	}
	return b.String()
}

// TraceString renders up to limit decision rows (limit ≤ 0 means all) plus
// a counterfactual summary: the mean regret — chosen predicted completion
// minus the best non-saturated alternative's — which is 0 wherever the router
// took the earliest completion and prices what the small-batch steer to the
// CPU peer trades away.
func (s *Stats) TraceString(limit int) string {
	if len(s.RouteTrace) == 0 {
		return "no route trace recorded (enable Config.RouteTrace)"
	}
	if limit <= 0 || limit > len(s.RouteTrace) {
		limit = len(s.RouteTrace)
	}
	var b strings.Builder
	var regret float64
	for i, d := range s.RouteTrace {
		best := math.Inf(1)
		for _, a := range d.Alternatives {
			if !a.Saturated && a.PredictedDoneSec < best {
				best = a.PredictedDoneSec
			}
		}
		if math.IsInf(best, 1) { // every kind saturated
			best = d.PredictedDoneSec
		}
		regret += d.PredictedDoneSec - best
		if i >= limit {
			continue
		}
		fmt.Fprintf(&b, "batch %d close %.4fs computed %d -> worker %d pred %.3fms done %.4fs",
			d.Batch, d.CloseAt, d.Computed, d.Worker,
			1e3*d.PredictedServiceSec, d.PredictedDoneSec)
		if d.SmallToPeer {
			b.WriteString(" (small->peer)")
		}
		b.WriteString("\n  alts:")
		for _, a := range d.Alternatives {
			fmt.Fprintf(&b, " %d[%s]=%.4fs", a.Worker, a.Kind, a.PredictedDoneSec)
			if a.Saturated {
				b.WriteString("(sat)")
			}
		}
		b.WriteString("\n")
	}
	if limit < len(s.RouteTrace) {
		fmt.Fprintf(&b, "... %d more rows\n", len(s.RouteTrace)-limit)
	}
	fmt.Fprintf(&b, "%d decisions, mean counterfactual regret %.4fms",
		len(s.RouteTrace), 1e3*regret/float64(len(s.RouteTrace)))
	return b.String()
}

// rank is the index of the p-quantile in n sorted samples by nearest-rank:
// the ⌈p·n⌉-th smallest sample, clamped to the ends. The old floor-biased
// rank int(p·(n-1)) truncated toward the optimistic side — the "p95" of 10
// samples was the rank-9 sample, i.e. the p88 — so every small-sample tail
// read better than reality.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
}

// A latency sample is a key, math.Float64bits of the latency, and a one-byte
// tag: the request's class (NumClasses for any out-of-range class), plus
// windowTag when it completed at or after the run's first fail-stop.
const (
	windowTag = 0x80
	digitBits = 11 // radix digit
	numDigits = 6  // ⌈64 / digitBits⌉ passes cover a key
	digitMask = 1<<digitBits - 1
)

// latencyTag is the tag of a request of class c, completed inside the fault
// window or not.
func latencyTag(c SLOClass, inWindow bool) uint8 {
	tag := uint8(min(c, NumClasses))
	if inWindow {
		tag |= windowTag
	}
	return tag
}

// radixSort sorts keys ascending, stably, carrying each key's tag along, by
// LSD passes over 11-bit digits; hist[d] is the histogram of digit d over
// the keys, counted by the caller. A digit every key shares is skipped. It
// returns the sorted pair: the inputs' storage or a buffer of its own.
func radixSort(keys []uint64, tags []uint8, hist *[numDigits][1 << digitBits]int) ([]uint64, []uint8) {
	if len(keys) == 0 {
		return keys, tags
	}
	keys2, tags2 := make([]uint64, len(keys)), make([]uint8, len(tags))
	for d := range hist {
		shift := d * digitBits
		h := &hist[d]
		if h[keys[0]>>shift&digitMask] == len(keys) {
			continue
		}
		off := 0
		for b, c := range h {
			h[b] = off
			off += c
		}
		for i, k := range keys {
			b := k >> shift & digitMask
			j := h[b]
			h[b]++
			keys2[j], tags2[j] = k, tags[i]
		}
		keys, keys2 = keys2, keys
		tags, tags2 = tags2, tags
	}
	return keys, tags
}

// summarizeLatencies fills the run's, every class's and the fault window's
// latency figures and the deadline misses (against each class's SLOSec, which
// the caller sets first) from the run's (key, tag) samples, and computes the
// Jain fairness index over the active classes' goodput attainment. Samples of
// an out-of-range class count only in the run's and the window's figures.
//
// It sorts the samples once, in linear time, reordering keys and tags: for
// latencies ≥ +0 and not NaN, unsigned bit order is numeric order and equal
// values share their bits, so the sorted sequence is sort.Float64s's bit for
// bit. One ascending pass over it then yields every figure, and each mean is
// summed in ascending order, as a sort of that subset alone would sum it. A
// latency that is negative, −0 or NaN has no place in that order: it is an
// error naming the answer (its index in keys) and its class.
func (s *Stats) summarizeLatencies(keys []uint64, tags []uint8) error {
	n := len(keys)
	var hist [numDigits][1 << digitBits]int
	var count [NumClasses + 1]int
	windowN := 0
	for i, k := range keys {
		if k > math.Float64bits(math.Inf(1)) { // sign bit set, or NaN
			return fmt.Errorf("serve: answer #%d (a %v request) has latency %v; a causal latency is ≥ +0 and not NaN",
				i, SLOClass(tags[i]&^windowTag), math.Float64frombits(k))
		}
		count[tags[i]&^windowTag]++
		if tags[i]&windowTag != 0 {
			windowN++
		}
		// The six digits, written out: a loop over them costs this pass
		// about twice the time.
		hist[0][k&digitMask]++
		hist[1][k>>(1*digitBits)&digitMask]++
		hist[2][k>>(2*digitBits)&digitMask]++
		hist[3][k>>(3*digitBits)&digitMask]++
		hist[4][k>>(4*digitBits)&digitMask]++
		hist[5][k>>(5*digitBits)&digitMask]++
	}
	keys, tags = radixSort(keys, tags, &hist)

	r50, r95, r99, rWindow := rank(n, 0.50), rank(n, 0.95), rank(n, 0.99), rank(windowN, 0.99)
	var c50, c99 [NumClasses]int
	for c := range c50 {
		c50[c], c99[c] = rank(count[c], 0.50), rank(count[c], 0.99)
	}
	var next [NumClasses]int
	var sums [NumClasses]float64
	var sum float64
	nextWindow := 0
	for i, k := range keys {
		v := math.Float64frombits(k)
		sum += v
		if i == r50 {
			s.P50Sec = v
		}
		if i == r95 {
			s.P95Sec = v
		}
		if i == r99 {
			s.P99Sec = v
		}
		tag := tags[i]
		if c := tag &^ windowTag; c < NumClasses {
			j := next[c]
			next[c]++
			sums[c] += v
			cs := &s.PerClass[c]
			if j == c50[c] {
				cs.P50Sec = v
			}
			if j == c99[c] {
				cs.P99Sec = v
			}
			cs.MaxSec = v
			if cs.SLOSec > 0 && v > cs.SLOSec {
				cs.DeadlineMisses++
				s.DeadlineMisses++
			}
		}
		if tag&windowTag != 0 {
			if nextWindow == rWindow {
				s.FaultWindowP99Sec = v
			}
			nextWindow++
		}
	}
	if n > 0 {
		s.MeanSec = sum / float64(n)
		s.MaxSec = math.Float64frombits(keys[n-1])
	}
	for c, sum := range sums {
		if count[c] > 0 {
			s.PerClass[c].MeanSec = sum / float64(count[c])
		}
	}
	s.FaultWindowServed = windowN
	var sumX, sumX2 float64
	active := 0
	for c := range s.PerClass {
		cs := &s.PerClass[c]
		if cs.Offered == 0 {
			continue
		}
		active++
		x := float64(cs.Served) / float64(cs.Offered)
		sumX += x
		sumX2 += x * x
	}
	s.ActiveClasses = active
	switch {
	case active == 0:
		s.JainFairness = 0
	case sumX2 == 0: // nothing served anywhere: equally (un)served
		s.JainFairness = 1
	default:
		s.JainFairness = sumX * sumX / (float64(active) * sumX2)
	}
	return nil
}

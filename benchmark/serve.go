package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/gnn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// config assembles the spec's serving run at the given offered rate and
// request count, still generating its own arrivals (see withTrace).
func (s serveSpec) config(data *datagen.Dataset, model *gnn.Model, seed uint64, rate float64, n int) (serve.Config, error) {
	cfg := serve.Config{
		Plat: s.Plat, Data: data, Model: model, Fanouts: serveFanouts,
		NumRequests: n, RatePerSec: rate, ZipfExponent: s.Zipf,
		MaxBatch: serveMaxBatch, WindowSec: s.WindowSec, Workers: s.Workers,
		CPUPeer: s.CPUPeer, SmallBatchCut: s.SmallBatchCut, Formation: s.Formation,
		QueueCap: serveQueueCap, CacheSize: s.CacheSize, CacheShards: s.CacheShards,
		Policy: serve.PolicyEarliest, Seed: seed,
	}
	var err error
	if cfg.SLOTargets, err = serve.ParseSLOTargets(s.SLO); err != nil {
		return serve.Config{}, err
	}
	if s.Cohorts != nil {
		cfg.Workload = &serve.WorkloadSpec{Cohorts: s.Cohorts(rate)}
	}
	return cfg, nil
}

// withTrace generates cfg's arrivals once and turns cfg into a replay of
// them: an open loop on the virtual clock whose schedule is fixed before the
// server exists, so latency is measured from the scheduled arrival and the
// generator cannot run late.
func withTrace(cfg serve.Config) (serve.Config, *serve.Trace, error) {
	tr, err := serve.GenerateTrace(cfg)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Workload = nil
	cfg.Replay = tr
	return cfg, tr, nil
}

// serveState is a constructed serving half: dataset view, model, recorded
// trace and the replay configuration.
type serveState struct {
	Spec  serveSpec
	Data  *datagen.Dataset
	Model *gnn.Model
	Cfg   serve.Config
	Trace *serve.Trace
}

// serveView re-labels a products dataset with the serving model's layer
// widths (the serving perfmodel prices propagation from Spec.FeatDims).
func serveView(products *datagen.Dataset) *datagen.Dataset {
	view := *products
	view.Spec.FeatDims = serveDims
	return &view
}

// warmupFraction of the trace is replayed once during set-up so the first
// timed replay does not pay the process's first-touch costs.
const warmupFraction = 10

func setupServe(s serveSpec, products *datagen.Dataset, seed uint64) (*serveState, error) {
	data := serveView(products)
	model, err := gnn.NewModel(gnn.Config{Kind: gnn.SAGE, Dims: serveDims}, tensor.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	cfg, err := s.config(data, model, seed, serveRate, s.Requests)
	if err != nil {
		return nil, err
	}
	cfg, tr, err := withTrace(cfg)
	if err != nil {
		return nil, err
	}
	if s.Faults != nil {
		span := tr.Requests[len(tr.Requests)-1].Arrival
		if cfg.Faults, err = fault.Parse(s.Faults(span)); err != nil {
			return nil, err
		}
	}
	warm := cfg
	warm.NumRequests = max(1, len(tr.Requests)/warmupFraction)
	if _, err := serve.Run(warm); err != nil {
		return nil, fmt.Errorf("%s warm-up replay: %w", s.Name, err)
	}
	return &serveState{Spec: s, Data: data, Model: model, Cfg: cfg, Trace: tr}, nil
}

// serveObs is the timed section of a serving half.
type serveObs struct {
	Spec      serveSpec
	Stats     *serve.Stats // first replay; every other replay must equal it
	Identical bool
	WallSec   []float64   // one per replay
	CPUSec    []float64   // one per replay
	Bursts    []refSample // reference bursts, taken before each replay and after the last
	SLO       sloResult
}

// measureServe replays the trace Spec.Replays times, then keeps replaying
// while another replay still fits the budget.
func measureServe(st *serveState, ref *refKernel, budgetSec float64) (*serveObs, error) {
	obs := &serveObs{Spec: st.Spec, Identical: true}
	begin := time.Now()
	for i := 0; ; i++ {
		if i >= st.Spec.Replays && time.Since(begin).Seconds()+medianOf(obs.WallSec) > budgetSec {
			break
		}
		obs.Bursts = ref.sample(obs.Bursts)
		w := startWatch()
		stats, err := serve.Run(st.Cfg)
		if err != nil {
			return nil, fmt.Errorf("%s replay %d: %w", st.Spec.Name, i+1, err)
		}
		wall, cpu := w.elapsed()
		obs.WallSec = append(obs.WallSec, wall)
		obs.CPUSec = append(obs.CPUSec, cpu)
		if obs.Stats == nil {
			obs.Stats = stats
		} else if !reflect.DeepEqual(obs.Stats, stats) {
			obs.Identical = false
		}
	}
	obs.Bursts = ref.sample(obs.Bursts)
	return obs, nil
}

func goodputRPS(s *serve.Stats) float64 {
	return ratio(float64(s.Served-s.DeadlineMisses), s.MakespanSec)
}

// report fills the serve_* end-to-end metrics.
func (o *serveObs) report(m *metricSet) {
	s := o.Stats
	wallFactor, cpuFactor := refFactors(o.Bursts)
	m.set("serve_wall_req_per_s", ratio(float64(s.Offered)*wallFactor, medianOf(o.WallSec)))
	m.set("serve_cpu_us_per_req", ratio(1e6*medianOf(o.CPUSec), float64(s.Offered)*cpuFactor))
	m.set("serve_virt_mean_ms", 1e3*s.MeanSec)
	m.set("serve_virt_p99_ms", 1e3*s.P99Sec)
	m.set("serve_virt_goodput_rps", goodputRPS(s))
	m.set("serve_virt_slo_rate_rps", o.SLO.Rate)
}

// statsChecks are the conditions every serving run's Stats must meet.
func statsChecks(s *serve.Stats) []check {
	return []check{
		{"serve.ledger", s.Offered == s.Served+s.Rejected+s.Shed && s.Offered > 0,
			fmt.Sprintf("offered %d = served %d + rejected %d + shed %d", s.Offered, s.Served, s.Rejected, s.Shed)},
		{"serve.p50_le_p99", s.P50Sec <= s.P99Sec && s.P50Sec > 0,
			fmt.Sprintf("p50 %.6g s, p99 %.6g s", s.P50Sec, s.P99Sec)},
	}
}

// checks are the serving half's correctness conditions.
func (o *serveObs) checks() []check {
	return append(statsChecks(o.Stats),
		check{"serve.replays_identical", o.Identical,
			fmt.Sprintf("%d replays of one trace", len(o.WallSec))},
		check{"serve.slo_rate_found", o.SLO.Rate > 0,
			fmt.Sprintf("the fleet holds its SLO up to %.0f req/s", o.SLO.Rate)})
}

// sloProbe is one run of the SLO-rate search.
type sloProbe struct {
	RatePerSec float64 `json:"rate_per_s"`
	P99Ms      float64 `json:"p99_ms"`
	MissFrac   float64 `json:"miss_frac"` // (rejected + shed + late) / offered
	// Violation is the run's worst SLO ratio: a class's p99 over its target,
	// or MissFrac over sloMissFrac. The run passes when it is at most 1.
	Violation float64 `json:"violation"`
	Pass      bool    `json:"pass"`
}

// sloResult is the search's answer and the two runs that bracket it.
type sloResult struct {
	Rate   float64   `json:"rate_per_s"`
	Passed *sloProbe `json:"highest_passing,omitempty"`
	Failed *sloProbe `json:"lowest_failing,omitempty"`
	Probes int       `json:"probes"`
}

// sloViolation applies the search criterion to one run: every class with
// traffic keeps its p99 within its target, and at most sloMissFrac of the
// offered requests are rejected, shed or late. It returns the worst of those
// ratios; the run meets the SLO when it is at most 1.
func sloViolation(s *serve.Stats) (missFrac, violation float64) {
	missFrac = ratio(float64(s.Rejected+s.Shed+s.DeadlineMisses), float64(s.Offered))
	violation = missFrac / sloMissFrac
	for _, c := range s.PerClass {
		if c.Offered > 0 && c.SLOSec > 0 {
			violation = math.Max(violation, c.P99Sec/c.SLOSec)
		}
	}
	return missFrac, violation
}

// sloRate bisects the rate grid for the highest rate the spec's fleet and
// traffic mix sustain within the SLO, fault-free, on traces of n requests,
// then places the answer between that rate and the next grid rate by linear
// interpolation of the violation to 1 — a grid value alone would read the
// same for every seed. The criterion is assumed monotone in the rate.
func sloRate(st *serveState, n int) (sloResult, error) {
	var res sloResult
	probe := func(k int) (*sloProbe, error) {
		rate := sloGridBase * math.Pow(sloGridStep, float64(k))
		cfg, err := st.Spec.config(st.Data, st.Model, st.Cfg.Seed, rate, n)
		if err != nil {
			return nil, err
		}
		if cfg, _, err = withTrace(cfg); err != nil {
			return nil, err
		}
		stats, err := serve.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s SLO probe at %.0f req/s: %w", st.Spec.Name, rate, err)
		}
		res.Probes++
		miss, violation := sloViolation(stats)
		return &sloProbe{RatePerSec: rate, P99Ms: 1e3 * stats.P99Sec, MissFrac: miss,
			Violation: violation, Pass: violation <= 1}, nil
	}
	first, err := probe(0)
	if err != nil {
		return res, err
	}
	if !first.Pass {
		res.Failed = first
		return res, nil
	}
	res.Passed = first
	lo, hi := 0, sloGridMax+1 // lo passes; hi fails or lies past the grid
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		p, err := probe(mid)
		if err != nil {
			return res, err
		}
		if p.Pass {
			lo, res.Passed = mid, p
		} else {
			hi, res.Failed = mid, p
		}
	}
	res.Rate = res.Passed.RatePerSec
	if p, f := res.Passed, res.Failed; f != nil {
		res.Rate += (f.RatePerSec - p.RatePerSec) * (1 - p.Violation) / (f.Violation - p.Violation)
	}
	return res, nil
}

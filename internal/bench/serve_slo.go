// SLO-class serving benchmark: a three-cohort workload (interactive Poisson
// with a diurnal envelope, standard Gamma, bulk Weibull — rates anchored on
// the analytic capacity prediction) is recorded to a trace once, then
// replayed under each batch-formation policy, so every policy sees exactly
// the same offered load and the per-class tails are directly comparable.
package bench

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/serve"
)

// serveSLORow is one (formation, class) cell of the replayed comparison.
type serveSLORow struct {
	Formation string
	Class     string
	Offered   int
	Served    int
	Rejected  int
	P50Ms     float64
	P99Ms     float64
}

// serveSLOReport is the replayed per-class comparison behind ext-serve-slo.
type serveSLOReport struct {
	CapacityRPS float64 // analytic all-miss capacity
	OfferedRPS  float64 // Σ cohort base rates (0.6 × capacity)
	Requests    int     // trace length replayed per formation

	Rows []serveSLORow
	Jain map[string]float64 // Jain fairness index by formation

	// InteractiveP99DeltaMs is the fcfs interactive p99 minus the
	// priority interactive p99 on the identical trace — positive means
	// the class-weighted windows improved the latency-sensitive class's
	// tail. Recorded whichever way it lands.
	InteractiveP99DeltaMs float64
}

// sloFormations is the comparison order (fcfs first: it is the baseline).
var sloFormations = []string{serve.FormationFCFS, serve.FormationPriority}

// serveSLO runs the SLO-class workload comparison.
func serveSLO(seed uint64) (*serveSLOReport, error) {
	ds, model, err := serveFixture(seed)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Plat: hw.CPUFPGAPlatform(), Data: ds, Model: model,
		Fanouts: []int{10, 5}, NumRequests: 6000,
		MaxBatch: 32, WindowSec: 2e-3, Workers: 2,
		QueueCap: 512, CacheSize: 2048, CacheShards: 4, Seed: seed,
	}
	// Anchor the offered load on the analytic all-miss capacity: 0.6× keeps
	// the pool busy enough that batching delay dominates the tail (where
	// formation policy acts) without collapsing into admission shedding.
	// The probe rate of 1 req/s sizes the predicted batch at ≈1 request
	// (min(MaxBatch, 1 + rate·window)), so the anchor is the capacity of
	// ≈1-request batches, not of the batches the offered load forms.
	pred, err := serve.Predict(cfg, 1, 1)
	if err != nil {
		return nil, err
	}
	rate := 0.6 * pred.CapacityRPS
	cfg.Workload = &serve.WorkloadSpec{Cohorts: []serve.Cohort{
		{Name: "web", Class: serve.ClassInteractive, Dist: serve.DistPoisson,
			RatePerSec: 0.25 * rate, Zipf: 1.1,
			Phases: []serve.RatePhase{{DurationSec: 0.05, Mult: 2}, {DurationSec: 0.05, Mult: 0.5}}},
		{Name: "api", Class: serve.ClassStandard, Dist: serve.DistGamma, Shape: 0.5,
			RatePerSec: 0.45 * rate, Zipf: 1.1},
		{Name: "etl", Class: serve.ClassBulk, Dist: serve.DistWeibull, Shape: 0.7,
			RatePerSec: 0.30 * rate, Zipf: 0.8},
	}}
	trace, err := serve.GenerateTrace(cfg)
	if err != nil {
		return nil, err
	}
	report := &serveSLOReport{
		CapacityRPS: pred.CapacityRPS, OfferedRPS: rate,
		Requests: len(trace.Requests), Jain: map[string]float64{},
	}
	var fcfsP99, priorityP99 float64
	for _, formation := range sloFormations {
		rcfg := cfg
		rcfg.Workload = nil
		rcfg.Replay = trace
		rcfg.Formation = formation
		st, err := serve.Run(rcfg)
		if err != nil {
			return nil, err
		}
		report.Jain[formation] = st.JainFairness
		for c := 0; c < serve.NumClasses; c++ {
			cs := st.PerClass[c]
			if cs.Offered == 0 {
				continue
			}
			report.Rows = append(report.Rows, serveSLORow{
				Formation: formation, Class: serve.SLOClass(c).String(),
				Offered: cs.Offered, Served: cs.Served, Rejected: cs.Rejected,
				P50Ms: 1e3 * cs.P50Sec, P99Ms: 1e3 * cs.P99Sec,
			})
		}
		switch formation {
		case serve.FormationFCFS:
			fcfsP99 = st.PerClass[serve.ClassInteractive].P99Sec
		case serve.FormationPriority:
			priorityP99 = st.PerClass[serve.ClassInteractive].P99Sec
		}
	}
	report.InteractiveP99DeltaMs = 1e3 * (fcfsP99 - priorityP99)
	return report, nil
}

// extServeSLO renders the SLO-class comparison as a table.
func extServeSLO(seed uint64) (*Table, error) {
	report, err := serveSLO(seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Extension: SLO-class serving (capacity %.0f req/s, offered %.0f req/s, "+
			"%d replayed requests; interactive p99 fcfs-priority delta %+.3fms)",
			report.CapacityRPS, report.OfferedRPS, report.Requests, report.InteractiveP99DeltaMs),
		Header: []string{"Formation", "Class", "Offered", "Served", "Rejected",
			"p50(ms)", "p99(ms)", "Jain"},
	}
	prev := ""
	for _, r := range report.Rows {
		jain := txt("")
		if r.Formation != prev {
			jain = num(report.Jain[r.Formation], "%.4f")
			prev = r.Formation
		}
		t.addRow(txt(r.Formation), txt(r.Class),
			num(float64(r.Offered), "%.0f"), num(float64(r.Served), "%.0f"),
			num(float64(r.Rejected), "%.0f"),
			num(r.P50Ms, "%.3f"), num(r.P99Ms, "%.3f"), jain)
	}
	return t, nil
}

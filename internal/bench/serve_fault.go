// Fault-tolerance serving benchmark: the SLO-class three-cohort trace is
// recorded once and replayed twice — fault-free, then with a scripted
// mid-run worker fail-stop — so the self-healing runtime's cost is measured
// on identical offered load: what was served, shed and retried, how the tail
// moved inside the fault window, and how long the pool took to re-absorb the
// re-dispatched work.
package bench

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/serve"
)

// ServeFaultVariant is one replay of the recorded trace.
type ServeFaultVariant struct {
	Name           string
	Served         int
	Rejected       int
	Shed           int
	Retries        int
	Redispatched   int
	FailedWorkers  int
	DeadlineMisses int
	P99Ms          float64
	// FaultWindow* cover requests completing at or after the first failure
	// (zero in the fault-free replay).
	FaultWindowServed int
	FaultWindowP99Ms  float64
	RecoveryMs        float64
}

// ServeFaultReport is the fault-free vs faulted replay pair behind
// ext-serve-fault.
type ServeFaultReport struct {
	CapacityRPS float64
	OfferedRPS  float64
	Requests    int
	FaultSpec   string
	FailAtSec   float64
	SLOTargets  string

	Baseline ServeFaultVariant
	Faulted  ServeFaultVariant
}

// serveFaultSLO is the per-class deadline spec both replays account against.
const serveFaultSLO = "interactive=2,standard=10,bulk=50"

// ServeFault replays one recorded trace fault-free and with a mid-run worker
// loss. The ledger invariant offered = served + rejected + shed is enforced:
// the fleet may degrade under a fault, but it must not lose requests.
func ServeFault(seed uint64) (*ServeFaultReport, error) {
	ds, model, err := serveFixture(seed)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Plat: hw.CPUFPGAPlatform(), Data: ds, Model: model,
		Fanouts: []int{10, 5}, NumRequests: 6000,
		MaxBatch: 32, WindowSec: 2e-3, Workers: 2,
		QueueCap: 512, CacheSize: 2048, CacheShards: 4, Seed: seed,
		Formation: serve.FormationPriority,
	}
	cfg.SLOTargets, err = serve.ParseSLOTargets(serveFaultSLO)
	if err != nil {
		return nil, err
	}
	// Same operating point as the SLO benchmark: 0.6× the analytic all-miss
	// capacity. (The probe rate is a placeholder — CapacityRPS ignores it.)
	cfg.RatePerSec = 1
	pred, err := serve.Predict(cfg, 1)
	if err != nil {
		return nil, err
	}
	rate := 0.6 * pred.CapacityRPS
	cfg.RatePerSec = rate
	cfg.Workload = &serve.WorkloadSpec{Cohorts: []serve.Cohort{
		{Name: "web", Class: serve.ClassInteractive, Dist: serve.DistPoisson,
			RatePerSec: 0.25 * rate, Zipf: 1.1},
		{Name: "api", Class: serve.ClassStandard, Dist: serve.DistGamma, Shape: 0.5,
			RatePerSec: 0.45 * rate, Zipf: 1.1},
		{Name: "etl", Class: serve.ClassBulk, Dist: serve.DistWeibull, Shape: 0.7,
			RatePerSec: 0.30 * rate, Zipf: 0.8},
	}}
	trace, err := serve.GenerateTrace(cfg)
	if err != nil {
		return nil, err
	}
	report := &ServeFaultReport{
		CapacityRPS: pred.CapacityRPS, OfferedRPS: rate,
		Requests: len(trace.Requests), SLOTargets: serveFaultSLO,
	}
	cfg.Workload, cfg.Replay = nil, trace
	cfg.RouteTrace = true // the fault-free replay's decisions place the failure
	baseline, err := serve.Run(cfg)
	if err != nil {
		return nil, err
	}
	// Kill worker 1 (half the accelerator pool) 40% into the run — deep enough
	// that the pool is in steady state, early enough that most of the trace
	// runs degraded — and at a moment it provably has a batch in service: the
	// midpoint of the first batch the fault-free replay starts on it after
	// that point. Up to the failure both replays are the same run, so the
	// router places that batch there again, its predicted completion crosses
	// the fail time, and it must re-dispatch to the survivor. (At 0.6×
	// capacity a fail time picked blind mostly finds the worker idle, and
	// nothing is lost.)
	report.FailAtSec = -1
	for _, d := range baseline.RouteTrace {
		if d.Worker == 1 && d.CloseAt >= 0.4*baseline.MakespanSec {
			report.FailAtSec = d.PredictedDoneSec - d.PredictedServiceSec/2
			break
		}
	}
	if report.FailAtSec < 0 {
		return nil, fmt.Errorf("bench: worker 1 starts no batch in the last 60%% of the fault-free replay")
	}
	report.FaultSpec = fmt.Sprintf("fail,worker=1,at=%g", report.FailAtSec)
	if cfg.Faults, err = fault.Parse(report.FaultSpec); err != nil {
		return nil, err
	}
	cfg.RouteTrace = false
	faulted, err := serve.Run(cfg)
	if err != nil {
		return nil, err
	}
	report.Baseline = serveFaultVariant("baseline", baseline)
	report.Faulted = serveFaultVariant("faulted", faulted)
	for _, v := range []ServeFaultVariant{report.Baseline, report.Faulted} {
		if report.Requests != v.Served+v.Rejected+v.Shed {
			return nil, fmt.Errorf(
				"bench: %s replay lost requests: offered %d != served %d + rejected %d + shed %d",
				v.Name, report.Requests, v.Served, v.Rejected, v.Shed)
		}
	}
	if report.Faulted.FailedWorkers != 1 {
		return nil, fmt.Errorf("bench: faulted replay lost %d workers, scripted 1",
			report.Faulted.FailedWorkers)
	}
	return report, nil
}

func serveFaultVariant(name string, st *serve.Stats) ServeFaultVariant {
	return ServeFaultVariant{
		Name: name, Served: st.Served, Rejected: st.Rejected, Shed: st.Shed,
		Retries: st.Retries, Redispatched: st.Redispatched,
		FailedWorkers: st.FailedWorkers, DeadlineMisses: st.DeadlineMisses,
		P99Ms:             1e3 * st.P99Sec,
		FaultWindowServed: st.FaultWindowServed,
		FaultWindowP99Ms:  1e3 * st.FaultWindowP99Sec,
		RecoveryMs:        1e3 * st.RecoverySec,
	}
}

// ExtServeFault renders the fault-injection comparison as a table.
func ExtServeFault(seed uint64) (*Table, error) {
	report, err := ServeFault(seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Extension: serving under faults (%s at t=%.1fms on a %.0f req/s trace, "+
			"%d requests, SLOs %s)",
			report.FaultSpec, 1e3*report.FailAtSec, report.OfferedRPS,
			report.Requests, report.SLOTargets),
		Header: []string{"Variant", "Served", "Rejected", "Shed", "Retries",
			"Miss", "p99(ms)", "fault-p99(ms)", "recovery(ms)"},
	}
	for _, v := range []ServeFaultVariant{report.Baseline, report.Faulted} {
		t.AddRow(Txt(v.Name),
			Num(float64(v.Served), "%.0f"), Num(float64(v.Rejected), "%.0f"),
			Num(float64(v.Shed), "%.0f"), Num(float64(v.Retries), "%.0f"),
			Num(float64(v.DeadlineMisses), "%.0f"),
			Num(v.P99Ms, "%.3f"), Num(v.FaultWindowP99Ms, "%.3f"),
			Num(v.RecoveryMs, "%.3f"))
	}
	return t, nil
}

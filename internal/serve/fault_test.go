package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/gnn"
	"repro/internal/hw"
)

// hexf renders a float64 exactly (hex mantissa), so two signatures match
// only when every bit matches.
func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// serveSig renders the bit-exact signature of a run the byte-identity golden
// pins: every counter, every latency quantile, every per-class and
// per-device number, and the full routing sequence.
func serveSig(st *Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered=%d served=%d rejected=%d batches=%d computed=%d hits=%d evict=%d\n",
		st.Offered, st.Served, st.Rejected, st.Batches, st.Computed, st.CacheHits, st.Evictions)
	fmt.Fprintf(&b, "lat mean=%s p50=%s p95=%s p99=%s max=%s\n",
		hexf(st.MeanSec), hexf(st.P50Sec), hexf(st.P95Sec), hexf(st.P99Sec), hexf(st.MaxSec))
	fmt.Fprintf(&b, "makespan=%s rps=%s eps=%s meanbatch=%s svc=%s jain=%s\n",
		hexf(st.MakespanSec), hexf(st.ThroughputRPS), hexf(st.EdgesPerSec),
		hexf(st.MeanBatch), hexf(st.MeanServiceSec), hexf(st.JainFairness))
	for c := range st.PerClass {
		cs := &st.PerClass[c]
		if cs.Offered == 0 {
			continue
		}
		fmt.Fprintf(&b, "class%d off=%d srv=%d rej=%d mean=%s p50=%s p99=%s max=%s\n",
			c, cs.Offered, cs.Served, cs.Rejected,
			hexf(cs.MeanSec), hexf(cs.P50Sec), hexf(cs.P99Sec), hexf(cs.MaxSec))
	}
	for i, d := range st.PerDevice {
		fmt.Fprintf(&b, "dev%d kind=%s batches=%d req=%d busy=%s\n",
			i, d.Kind, d.Batches, d.Requests, hexf(d.BusySec))
	}
	b.WriteString("routes=")
	for _, r := range st.Routes {
		fmt.Fprintf(&b, "%d", r)
	}
	b.WriteString("\n")
	return b.String()
}

// goldenServeSig is serveSig of the golden config: a mixed FPGA+CPU-peer
// pool under the three-cohort workload with class metering, priority
// formation, cache evictions, and admission rejects all active. Any
// fault-free arithmetic drift — a changed multiply, a reordered comparison,
// a new code path taken with an empty schedule — shows up here as a bit
// difference. First captured from the tree BEFORE the fault machinery existed
// (commit 0ffc7c3) and held across it; re-recorded in PR 13 (on 4a91e8d)
// because the sampler now draws its uniform k-subsets with Floyd's algorithm
// instead of Algorithm R, so every computed batch touches different (equally
// likely) neighbours: the service times — and through them latencies, eps and
// busy seconds — moved in the sixth significant digit, while every count,
// the makespan, rps, batch formation, fairness and every routing decision
// are what they were.
const goldenServeSig = "offered=3000 served=2830 rejected=170 batches=490 computed=790 hits=2040 evict=276\n" +
	"lat mean=0x1.b8d0b7bced357p-12 p50=0x1.13ba5d174e9p-12 p95=0x1.0899880695508p-10 p99=0x1.538a921fdc32p-10 max=0x1.992f7d55ae0cp-10\n" +
	"makespan=0x1.fde59e65bc067p-03 rps=0x1.633582f141112p+13 eps=0x1.e84169cfb0477p+15 meanbatch=0x1.71a1f58d0fac7p+02 svc=0x1.287b8586d41c1p-11 jain=0x1.f970260df9ad2p-01\n" +
	"class0 off=943 srv=943 rej=0 mean=0x1.3b2c21d2f2dc5p-12 p50=0x1.0624dd2f1aap-12 p99=0x1.b35dabb684cep-11 max=0x1.06e427f4ea08p-10\n" +
	"class1 off=1297 srv=1297 rej=0 mean=0x1.d661b466ca342p-12 p50=0x1.8d214a50d1cp-12 p99=0x1.64dff3b5b07p-10 max=0x1.9884907898c8p-10\n" +
	"class2 off=760 srv=590 rej=170 mean=0x1.20514c46a90d6p-11 p50=0x1.28b7ffa4abf8p-11 p99=0x1.6e6181313c54p-10 max=0x1.992f7d55ae0cp-10\n" +
	"dev0 kind=FPGA batches=5 req=17 busy=0x1.ed25d368730c1p-09\n" +
	"dev1 kind=FPGA batches=5 req=16 busy=0x1.ecf68e4f5454ap-09\n" +
	"dev2 kind=CPU batches=356 req=757 busy=0x1.9878275fe4229p-03\n" +
	"routes=222202222222222222222222222212222222222222222222222222222202222222222222212222222222220222212222222222222222222222222222222222222202222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222222212222222222222222222222222222222222222222222222222222222222222222220222122222\n"

// goldenServeConfig is the golden's exact configuration (do not retune:
// goldenServeSig was captured against it).
func goldenServeConfig(ds *datagen.Dataset, m *gnn.Model) Config {
	return Config{
		Plat: hw.CPUFPGAPlatform(), Data: ds, Model: m,
		Fanouts: []int{8, 4}, NumRequests: 3000, RatePerSec: 12000,
		MaxBatch: 24, WindowSec: 1e-3, Workers: 2, CPUPeer: true, SmallBatchCut: 2,
		QueueCap: 256, CacheSize: 512, CacheShards: 2, Seed: 7, Formation: "priority",
		ClassRates: []ClassRateLimit{{Class: ClassBulk, RatePerSec: 2500, Burst: 8}},
		Workload: &WorkloadSpec{Cohorts: []Cohort{
			{Name: "web", Class: ClassInteractive, Dist: DistPoisson, RatePerSec: 4000, Zipf: 1.1},
			{Name: "api", Class: ClassStandard, Dist: DistGamma, Shape: 0.5, RatePerSec: 5000, Zipf: 1.0},
			{Name: "etl", Class: ClassBulk, Dist: DistWeibull, Shape: 0.7, RatePerSec: 3000, Zipf: 0.8},
		}},
	}
}

// TestEmptyFaultScheduleByteIdentity is the fault plane's non-negotiable
// invariant: with no serving fault that fires — nil schedule, empty schedule,
// a schedule holding only training events, or a fail-stop scripted for long
// after the last completion — a run is byte-identical to the
// pre-fault-machinery tree, and every fault counter stays zero.
func TestEmptyFaultScheduleByteIdentity(t *testing.T) {
	ds, m := testSetup(t)
	clusterOnly, err := fault.Parse("fail,node=2,at=iter:5;degrade,link,from=iter:0,to=iter:3,factor=4")
	if err != nil {
		t.Fatal(err)
	}
	neverFires, err := fault.Parse("fail,worker=1,at=2.5") // golden makespan ≈ 0.249 s
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		sched *fault.Schedule
	}{
		{"nil-schedule", nil},
		{"empty-schedule", &fault.Schedule{}},
		{"cluster-only-schedule", clusterOnly},
		{"never-fires-schedule", neverFires},
	}
	for _, c := range cases {
		cfg := goldenServeConfig(ds, m)
		cfg.Faults = c.sched
		st, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := serveSig(st); got != goldenServeSig {
			t.Errorf("%s: run drifted from the pre-fault golden:\ngot:\n%s\nwant:\n%s", c.name, got, goldenServeSig)
		}
		if st.Shed != 0 || st.Retries != 0 || st.Redispatched != 0 || st.FailedWorkers != 0 ||
			st.RecoverySec != 0 || st.FaultWindowServed != 0 || st.DeadlineMisses != 0 {
			t.Errorf("%s: fault counters non-zero in a fault-free run: %+v", c.name, st)
		}
	}
}

// TestSLOTargetsDoNotPerturbRun pins satellite 4's accounting-only contract:
// configuring per-class deadline targets adds miss counts but changes no
// serving arithmetic — the full golden signature still matches bit for bit.
func TestSLOTargetsDoNotPerturbRun(t *testing.T) {
	ds, m := testSetup(t)
	cfg := goldenServeConfig(ds, m)
	cfg.SLOTargets = []ClassSLO{
		{Class: ClassInteractive, TargetSec: 0.2e-3},
		{Class: ClassStandard, TargetSec: 0.4e-3},
		{Class: ClassBulk, TargetSec: 1e-3},
	}
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := serveSig(st); got != goldenServeSig {
		t.Fatalf("SLO targets perturbed the run:\ngot:\n%s\nwant:\n%s", got, goldenServeSig)
	}
	// The interactive target sits between the class p50 and max, so some —
	// but not all — served interactive requests must miss.
	ics := st.PerClass[ClassInteractive]
	if ics.DeadlineMisses == 0 || ics.DeadlineMisses >= ics.Served {
		t.Fatalf("interactive deadline misses %d of %d served: want 0 < misses < served",
			ics.DeadlineMisses, ics.Served)
	}
	total := 0
	for c := range st.PerClass {
		total += st.PerClass[c].DeadlineMisses
		if want := cfg.SLOTargets[c].TargetSec; st.PerClass[c].SLOSec != want {
			t.Fatalf("class %d SLOSec %v, want %v", c, st.PerClass[c].SLOSec, want)
		}
	}
	if st.DeadlineMisses != total {
		t.Fatalf("DeadlineMisses %d != per-class sum %d", st.DeadlineMisses, total)
	}
	// A target above the run's max latency misses nothing.
	cfg2 := goldenServeConfig(ds, m)
	cfg2.SLOTargets = []ClassSLO{{Class: ClassInteractive, TargetSec: 10}}
	st2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DeadlineMisses != 0 {
		t.Fatalf("10s target missed %d deadlines", st2.DeadlineMisses)
	}
}

// faultServeConfig is the golden config with a scripted mid-run loss of the
// CPU peer (the pool's workhorse) plus an earlier straggler window on one
// FPGA — the drill the replay-determinism and failover tests share.
func faultServeConfig(t *testing.T, ds *datagen.Dataset, m *gnn.Model) (Config, *fault.Schedule) {
	t.Helper()
	sched, err := fault.Parse("fail,worker=2,at=0.1;slow,worker=0,from=0.02,to=0.05,factor=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenServeConfig(ds, m)
	cfg.Faults = sched
	return cfg, sched
}

// TestScriptedFaultReplayDeterminism: the same fault schedule replays
// bit-exactly — two runs agree on every counter, latency bit, and route.
func TestScriptedFaultReplayDeterminism(t *testing.T) {
	ds, m := testSetup(t)
	cfg, _ := faultServeConfig(t, ds, m)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sigA := serveSig(a) + fmt.Sprintf("shed=%d retries=%d redisp=%d failed=%d recovery=%s fwp99=%s fwserved=%d",
		a.Shed, a.Retries, a.Redispatched, a.FailedWorkers, hexf(a.RecoverySec), hexf(a.FaultWindowP99Sec), a.FaultWindowServed)
	sigB := serveSig(b) + fmt.Sprintf("shed=%d retries=%d redisp=%d failed=%d recovery=%s fwp99=%s fwserved=%d",
		b.Shed, b.Retries, b.Redispatched, b.FailedWorkers, hexf(b.RecoverySec), hexf(b.FaultWindowP99Sec), b.FaultWindowServed)
	if sigA != sigB {
		t.Fatalf("fault replay drifted:\n%s\nvs\n%s", sigA, sigB)
	}
}

// TestWorkerFailStopFailover drives the golden workload through a mid-run
// CPU-peer loss and checks the self-healing contract: the fleet keeps
// serving on the survivors, no request is lost silently (the ledger closes:
// offered = served + rejected + shed), routing never assigns a batch to the
// dead worker after its fail time, and admission tightens to surviving
// capacity (bulk sheds, interactive never does).
func TestWorkerFailStopFailover(t *testing.T) {
	ds, m := testSetup(t)
	cfg, _ := faultServeConfig(t, ds, m)
	cfg.RouteTrace = true
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.FailedWorkers != 1 {
		t.Fatalf("FailedWorkers %d, want 1", st.FailedWorkers)
	}
	if st.Served+st.Rejected+st.Shed != st.Offered {
		t.Fatalf("request ledger leaks: offered %d != served %d + rejected %d + shed %d",
			st.Offered, st.Served, st.Rejected, st.Shed)
	}
	if st.Served == 0 || st.FaultWindowServed == 0 {
		t.Fatalf("fleet stopped serving after the loss: served %d, fault-window served %d",
			st.Served, st.FaultWindowServed)
	}
	const failAt = 0.1
	for _, d := range st.RouteTrace {
		if d.CloseAt >= failAt && d.Worker == 2 {
			t.Fatalf("batch %d routed to dead worker 2 at %.4fs (fail at %.1fs)", d.Batch, d.CloseAt, failAt)
		}
	}
	// The run extends well past the fail time, so batches predicted onto the
	// dying peer must have re-dispatched — and the survivors absorbed them.
	if st.Retries == 0 || st.Redispatched == 0 {
		t.Fatalf("no failover happened: retries %d, redispatched %d", st.Retries, st.Redispatched)
	}
	if st.RecoverySec <= 0 {
		t.Fatalf("RecoverySec %v, want > 0 after a re-dispatch", st.RecoverySec)
	}
	// Degraded-mode admission: bulk pays first, interactive never sheds.
	if st.PerClass[ClassBulk].Shed == 0 {
		t.Fatal("bulk class shed nothing under degraded capacity")
	}
	if st.PerClass[ClassInteractive].Shed != 0 {
		t.Fatalf("interactive class shed %d requests; shedding order must protect it",
			st.PerClass[ClassInteractive].Shed)
	}
	if math.IsNaN(st.JainFairness) {
		t.Fatal("Jain fairness is NaN under shedding")
	}
}

// TestRouteTraceRowsMatchRoutes: the route trace holds exactly one row per
// executed batch — the decision that stuck — also when placing a batch took
// several attempts (a predicted mid-service loss re-routes it) or failed (a
// shed batch executes nowhere). Row i is batch i, names the worker Routes[i]
// ran it on, and predicts a completion that worker lives to see.
func TestRouteTraceRowsMatchRoutes(t *testing.T) {
	ds, m := testSetup(t)
	for _, c := range []struct {
		name        string
		retryBudget int
		wantRedisp  bool
	}{
		{"re-dispatch", 0, true}, // default budget: lost batches land on a survivor
		{"shed", -1, false},      // no retries: a lost batch is shed
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg, sched := faultServeConfig(t, ds, m)
			cfg.RouteTrace = true
			cfg.RetryBudget = c.retryBudget
			st, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Retries == 0 || (st.Redispatched > 0) != c.wantRedisp {
				t.Fatalf("drill did not fire: retries %d, redispatched %d", st.Retries, st.Redispatched)
			}
			if len(st.RouteTrace) != len(st.Routes) {
				t.Fatalf("%d trace rows for %d executed batches (%d retries)",
					len(st.RouteTrace), len(st.Routes), st.Retries)
			}
			failAt := map[int]float64{}
			for _, e := range sched.Events {
				if e.Kind == fault.FailStop {
					failAt[e.Worker] = e.AtSec
				}
			}
			for i, d := range st.RouteTrace {
				if d.Batch != i || d.Worker != st.Routes[i] {
					t.Fatalf("row %d: batch %d on worker %d, Routes[%d] = %d", i, d.Batch, d.Worker, i, st.Routes[i])
				}
				if ft, dies := failAt[d.Worker]; dies && d.PredictedDoneSec > ft {
					t.Fatalf("row %d: worker %d predicted done %.6fs, past its fail-stop at %.6fs",
						i, d.Worker, d.PredictedDoneSec, ft)
				}
			}
		})
	}
}

// TestStallAndStragglerWindows pins the transient-fault model: a stall or
// straggler window inflates the affected span's completions but leaves the
// run fault-counter-clean (no worker died, nothing shed or re-dispatched),
// and the whole fleet keeps the request ledger intact.
func TestStallAndStragglerWindows(t *testing.T) {
	ds, m := testSetup(t)
	base := goldenServeConfig(ds, m)
	stBase, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fault.Parse("stall,worker=2,from=0.02,to=0.06;slow,worker=2,from=0.06,to=0.12,factor=5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenServeConfig(ds, m)
	cfg.Faults = sched
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.FailedWorkers != 0 || st.Shed != 0 || st.Redispatched != 0 {
		t.Fatalf("transient windows must not kill or shed: %+v", st)
	}
	if st.Served+st.Rejected != st.Offered {
		t.Fatalf("ledger leaks under transient faults: offered %d served %d rejected %d",
			st.Offered, st.Served, st.Rejected)
	}
	// Stalling and slowing the workhorse worker for a third of the run must
	// push the tail out relative to the healthy fleet.
	if st.P99Sec <= stBase.P99Sec {
		t.Fatalf("p99 %v not above healthy p99 %v despite stall+straggler windows",
			st.P99Sec, stBase.P99Sec)
	}
}

// TestFaultScheduleTargetsValidated: a schedule naming a worker outside the
// pool must be rejected at construction, not at fail time.
func TestFaultScheduleTargetsValidated(t *testing.T) {
	ds, m := testSetup(t)
	sched, err := fault.Parse("fail,worker=9,at=0.1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenServeConfig(ds, m)
	cfg.Faults = sched
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "worker 9") {
		t.Fatalf("out-of-pool fault target accepted: %v", err)
	}
}

// TestJainFairnessAllClassesStarved is satellite 1's regression: every class
// offered traffic but nothing was served (sumX == sumX² == 0). The Jain
// index must report 1 — equally (un)served — not NaN from 0/0. The guard
// landed in PR 9 without a pinning test; this is that test.
func TestJainFairnessAllClassesStarved(t *testing.T) {
	var st Stats
	st.PerClass[ClassInteractive].Offered = 5
	st.PerClass[ClassStandard].Offered = 3
	st.PerClass[ClassBulk].Offered = 7
	st.summarizePerClass(nil, nil)
	if st.ActiveClasses != 3 {
		t.Fatalf("ActiveClasses %d, want 3", st.ActiveClasses)
	}
	if math.IsNaN(st.JainFairness) {
		t.Fatal("Jain fairness is NaN when all classes are starved")
	}
	if st.JainFairness != 1 {
		t.Fatalf("Jain fairness %v, want 1 for uniformly starved classes", st.JainFairness)
	}
}

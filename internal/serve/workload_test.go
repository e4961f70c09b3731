package serve

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/tensor"
)

// scriptedUniform scripts the uniform draws the arrival samplers see — the
// only way to exercise the u == 0 draw a SplitMix64 stream essentially never
// produces.
type scriptedUniform struct {
	draws []float64
	i     int
}

func (s *scriptedUniform) NormFloat64() float64 { panic("scriptedUniform: no normal draws scripted") }

func (s *scriptedUniform) Float64() float64 {
	if s.i >= len(s.draws) {
		return 0.5
	}
	v := s.draws[s.i]
	s.i++
	return v
}

// Regression for the dead degenerate-draw guard: Float64 spans [0, 1), so
// the draw to guard is u == 0 — which the old code passed straight through
// (-log(1-0) = 0, a zero gap that stalls the virtual clock) while guarding
// the unreachable u ≥ 1 end. The stream must redraw until the gap is
// positive.
func TestRequestStreamRedrawsZeroUniform(t *testing.T) {
	const rate = 1000.0
	// Two u == 0 draws, then 0.5 for the gap; 0.3 picks the vertex.
	s, err := newPoissonStream(10, rate, 0, &scriptedUniform{draws: []float64{0, 0, 0.5, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Next()
	if r.Arrival <= 0 {
		t.Fatalf("first arrival %v not strictly positive: the u == 0 draw was not redrawn", r.Arrival)
	}
	if want := -math.Log(0.5) / rate; r.Arrival != want {
		t.Fatalf("arrival = %v, want the gap from the first positive draw %v", r.Arrival, want)
	}
	if r.Class != ClassStandard {
		t.Fatalf("single-stream class = %v, want standard", r.Class)
	}
	prev := r.Arrival
	for i := 0; i < 100; i++ {
		r = s.Next()
		if r.Arrival <= prev {
			t.Fatalf("arrivals not strictly increasing: %v after %v", r.Arrival, prev)
		}
		prev = r.Arrival
	}
}

// arrivalSig renders requests one per line as "ID Vertex Arrival(%x) Class
// Cohort" — the trace line format, so two signatures match only when every
// arrival matches bit for bit.
func arrivalSig(reqs []Request) string {
	var b strings.Builder
	for _, r := range reqs {
		fmt.Fprintf(&b, "%d %d %x %d %d\n", r.ID, r.Vertex, r.Arrival, r.Class, r.Cohort)
	}
	return b.String()
}

// goldenStreamArrivals is the first 16 requests of the RatePerSec/ZipfExponent
// stream over 1000 vertices at 500 req/s, Zipf 1.2, seed 3;
// goldenTraceArrivals is the first 16 of GenerateTrace on the golden serve
// config with no Workload (12000 req/s, Zipf 1.1). Both were recorded from
// the stand-alone RequestStream type at c72ae29, before the single-stream
// path became a one-cohort WorkloadStream: that fold must not move a bit.
const goldenStreamArrivals = "0 13 0x1.3bdeefeca4051p-09 1 0\n" +
	"1 0 0x1.4fb441e303c4fp-09 1 0\n" +
	"2 0 0x1.2c64c8ef64b8ap-08 1 0\n" +
	"3 5 0x1.2617fc56b8de4p-07 1 0\n" +
	"4 27 0x1.b5e11a991418p-07 1 0\n" +
	"5 5 0x1.03b755d6b0ec5p-06 1 0\n" +
	"6 32 0x1.1122409e2ba38p-06 1 0\n" +
	"7 1 0x1.45b0c763552a7p-06 1 0\n" +
	"8 0 0x1.49491658b9f3ep-06 1 0\n" +
	"9 88 0x1.6657654891c7ep-06 1 0\n" +
	"10 21 0x1.c04368da6eb75p-06 1 0\n" +
	"11 14 0x1.c736818a4073p-06 1 0\n" +
	"12 0 0x1.07ca89cadd3d3p-05 1 0\n" +
	"13 17 0x1.09e72a71499efp-05 1 0\n" +
	"14 26 0x1.2b933c0837114p-05 1 0\n" +
	"15 0 0x1.40b3fb0f97338p-05 1 0\n"

const goldenTraceArrivals = "0 1 0x1.89be5b30378cbp-13 1 0\n" +
	"1 3 0x1.91cf00fb9951cp-13 1 0\n" +
	"2 537 0x1.c3868201f66efp-13 1 0\n" +
	"3 36 0x1.1e64e78356e07p-12 1 0\n" +
	"4 0 0x1.3cd6d44d04dafp-12 1 0\n" +
	"5 134 0x1.abbf78380871cp-12 1 0\n" +
	"6 1129 0x1.bca1a4bb38839p-12 1 0\n" +
	"7 1191 0x1.cfa26efbfaaap-12 1 0\n" +
	"8 1 0x1.f2171f57b9ad7p-12 1 0\n" +
	"9 0 0x1.1a3d4b7fda742p-11 1 0\n" +
	"10 2 0x1.28c2e8f2db7ebp-11 1 0\n" +
	"11 58 0x1.b5f9374802eadp-11 1 0\n" +
	"12 13 0x1.e3605a75ae288p-11 1 0\n" +
	"13 2 0x1.f36a1ceee4c95p-11 1 0\n" +
	"14 1 0x1.1c993999d17bep-10 1 0\n" +
	"15 0 0x1.4201e44e4861cp-10 1 0\n"

func TestSingleStreamArrivalGolden(t *testing.T) {
	s, err := newPoissonStream(1000, 500, 1.2, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = s.Next()
	}
	if got := arrivalSig(reqs); got != goldenStreamArrivals {
		t.Errorf("stream arrivals drifted:\ngot:\n%swant:\n%s", got, goldenStreamArrivals)
	}
	ds, m := testSetup(t)
	cfg := goldenServeConfig(ds, m)
	cfg.Workload = nil
	cfg.ZipfExponent = 1.1
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := arrivalSig(tr.Requests[:16]); got != goldenTraceArrivals {
		t.Errorf("generated trace arrivals drifted:\ngot:\n%swant:\n%s", got, goldenTraceArrivals)
	}
}

func TestParseWorkloadSpec(t *testing.T) {
	spec, err := ParseWorkloadSpec(
		"web,rate=4000,class=interactive,zipf=1.1,phases=0.3s@2x+0.3s@0.5x; " +
			"etl,rate=1500,dist=weibull,shape=0.7,class=bulk")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Cohorts) != 2 {
		t.Fatalf("parsed %d cohorts, want 2", len(spec.Cohorts))
	}
	web := spec.Cohorts[0]
	if web.Name != "web" || web.Class != ClassInteractive || web.Dist != DistPoisson ||
		web.RatePerSec != 4000 || web.Zipf != 1.1 {
		t.Fatalf("web cohort parsed wrong: %+v", web)
	}
	wantPhases := []RatePhase{{0.3, 2}, {0.3, 0.5}}
	if !reflect.DeepEqual(web.Phases, wantPhases) {
		t.Fatalf("web phases = %v, want %v", web.Phases, wantPhases)
	}
	etl := spec.Cohorts[1]
	if etl.Name != "etl" || etl.Class != ClassBulk || etl.Dist != DistWeibull || etl.Shape != 0.7 {
		t.Fatalf("etl cohort parsed wrong: %+v", etl)
	}
	for _, bad := range []string{
		"",                          // no cohorts
		"web",                       // missing rate
		"rate=100",                  // first field must be the name
		"web,rate=100,turbo=1",      // unknown key
		"web,rate=100,class=vip",    // unknown class
		"web,rate=100,phases=0.3s",  // phase without @mult
		"a,rate=100;a,rate=200",     // duplicate name
		"web,rate=100,shape=-1",     // negative shape
		"web,rate=100;etl,rate=-5",  // non-positive rate
		"web,rate=100,phases=1s@0x", // non-positive multiplier
	} {
		if _, err := ParseWorkloadSpec(bad); err == nil {
			t.Errorf("spec %q accepted, want error", bad)
		}
	}
	// Non-finite numbers pass a bare `<= 0`, and a repeated key used to let
	// the last one win silently; each is rejected naming the field.
	for _, c := range []struct{ spec, wantSub string }{
		{"web,rate=NaN", "rate NaN"},
		{"web,rate=+Inf", "rate +Inf"},
		{"web,rate=100,shape=NaN", "shape NaN"},
		{"web,rate=100,shape=Inf", "shape +Inf"},
		{"web,rate=100,zipf=NaN", "Zipf exponent NaN"},
		{"web,rate=100,phases=NaNs@1x", "duration NaN"},
		{"web,rate=100,phases=Infs@1x", "duration +Inf"},
		{"web,rate=100,phases=1s@NaNx", "rate multiplier NaN"},
		{"web,rate=10,rate=20", `key "rate" given twice`},
	} {
		if _, err := ParseWorkloadSpec(c.spec); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseWorkloadSpec(%q) error %v, want substring %q", c.spec, err, c.wantSub)
		}
	}
}

// The merged stream is a pure function of (spec, numVertices, seed): two
// streams replay identically, the merge is globally non-decreasing, each
// cohort's own arrivals strictly increase, and every request carries its
// cohort's class and tag.
func TestWorkloadStreamDeterministicAndOrdered(t *testing.T) {
	spec, err := ParseWorkloadSpec(
		"web,rate=3000,class=interactive,zipf=1.1,phases=0.02s@2x+0.02s@0.5x;" +
			"api,rate=2000,dist=gamma,shape=0.5;" +
			"etl,rate=1000,dist=weibull,shape=0.7,class=bulk")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewWorkloadStream(spec, 500, tensor.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorkloadStream(spec, 500, tensor.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	cohortPrev := make([]float64, len(spec.Cohorts))
	for i := 0; i < 3000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("request %d diverged across same-seed streams: %+v vs %+v", i, ra, rb)
		}
		if ra.ID != i {
			t.Fatalf("request %d has ID %d", i, ra.ID)
		}
		if ra.Arrival < prev {
			t.Fatalf("merged arrivals decreased: %v after %v", ra.Arrival, prev)
		}
		prev = ra.Arrival
		c := int(ra.Cohort)
		if c >= len(spec.Cohorts) {
			t.Fatalf("request %d: cohort tag %d out of range", i, c)
		}
		if ra.Class != spec.Cohorts[c].Class {
			t.Fatalf("request %d: class %v does not match cohort %q's %v",
				i, ra.Class, spec.Cohorts[c].Name, spec.Cohorts[c].Class)
		}
		if ra.Arrival <= cohortPrev[c] {
			t.Fatalf("cohort %d arrivals not strictly increasing: %v after %v", c, ra.Arrival, cohortPrev[c])
		}
		cohortPrev[c] = ra.Arrival
		if ra.Vertex < 0 || ra.Vertex >= 500 {
			t.Fatalf("request %d: vertex %d out of range", i, ra.Vertex)
		}
	}
}

// All three inter-arrival distributions are normalized to the same mean gap
// 1/rate, so the distribution knob changes burstiness, not offered load.
func TestArrivalGapMeans(t *testing.T) {
	const rate, n = 100.0, 20000
	cases := []struct {
		name string
		gap  func(rng *tensor.RNG) float64
	}{
		{"poisson", func(rng *tensor.RNG) float64 { return expGap(rng, rate) }},
		{"gamma-0.5", func(rng *tensor.RNG) float64 { return gammaGap(rng, 0.5, rate) }},
		{"gamma-2", func(rng *tensor.RNG) float64 { return gammaGap(rng, 2, rate) }},
		{"weibull-0.7", func(rng *tensor.RNG) float64 { return weibullGap(rng, 0.7, rate) }},
		{"weibull-1.5", func(rng *tensor.RNG) float64 { return weibullGap(rng, 1.5, rate) }},
	}
	for _, c := range cases {
		rng := tensor.NewRNG(123)
		sum := 0.0
		for i := 0; i < n; i++ {
			g := c.gap(rng)
			if g <= 0 {
				t.Fatalf("%s: non-positive gap %v", c.name, g)
			}
			sum += g
		}
		mean := sum / n
		if want := 1 / rate; math.Abs(mean-want) > 0.05*want {
			t.Errorf("%s: mean gap %v, want %v ± 5%%", c.name, mean, want)
		}
	}
}

// The phase envelope modulates the arrival density: a cohort spending half
// its period at 4× the base rate and half at 0.2× must land far more
// arrivals in the hot half.
func TestDiurnalPhaseEnvelope(t *testing.T) {
	spec := &WorkloadSpec{Cohorts: []Cohort{{
		Name: "diurnal", RatePerSec: 2000, Shape: 1,
		Phases: []RatePhase{{0.5, 4}, {0.5, 0.2}},
	}}}
	w, err := NewWorkloadStream(spec, 100, tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := 0, 0
	for i := 0; i < 6000; i++ {
		r := w.Next()
		if math.Mod(r.Arrival, 1.0) < 0.5 {
			hot++
		} else {
			cold++
		}
	}
	if hot < 3*cold {
		t.Fatalf("phase envelope not applied: %d arrivals in the 4x half vs %d in the 0.2x half", hot, cold)
	}
}

func workloadConfig(t *testing.T) Config {
	t.Helper()
	ds, m := testSetup(t)
	cfg := baseConfig(ds, m)
	spec, err := ParseWorkloadSpec(
		"web,rate=1200,class=interactive,zipf=1.1,phases=0.05s@2x+0.05s@0.5x;" +
			"api,rate=1200,dist=gamma,shape=0.5;" +
			"etl,rate=1200,dist=weibull,shape=0.7,class=bulk,zipf=0.8")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = spec
	cfg.CacheSize = 256
	return cfg
}

// The serialized trace round-trips exactly: parse(serialize(t)) == t, and
// the encoding is deterministic byte for byte.
func TestTraceRoundTrip(t *testing.T) {
	cfg := workloadConfig(t)
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != cfg.NumRequests {
		t.Fatalf("trace has %d requests, want %d", len(tr.Requests), cfg.NumRequests)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("trace did not round-trip through serialization")
	}
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialized trace differs byte for byte")
	}
	for _, bad := range []string{
		"not a trace\n",
		traceHeader + " n=2\n0 1 0x1p-10 0 0\n",                 // count mismatch
		traceHeader + " n=2\n0 1 0x1p-8 0 0\n1 1 0x1p-10 0 0\n", // out of order
		traceHeader + " n=1\n0 1 0x1p-10 7 0\n",                 // class out of range
	} {
		if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("trace %q accepted, want error", bad)
		}
	}
}

// Replaying a recorded trace pins the arrival process completely: the
// workload run, a replay of its generated trace, and a second replay all
// produce byte-identical Stats.
func TestTraceReplayByteIdentical(t *testing.T) {
	cfg := workloadConfig(t)
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Workload = nil
	replayCfg.Replay = tr
	replay1, err := Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	replay2, err := Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay1, replay2) {
		t.Fatal("two replays of the same trace diverged")
	}
	if !reflect.DeepEqual(direct, replay1) {
		t.Fatal("replaying the generated trace diverged from the direct workload run")
	}
}

// A replay run never reads Config.RatePerSec — the trace is the arrival
// process — so no part of its Stats may depend on the field, the analytic
// Prediction included (it is priced at the trace's own offered rate), and a
// replay config that leaves the field zero is a valid run.
func TestReplayIgnoresRatePerSec(t *testing.T) {
	cfg := workloadConfig(t)
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload, cfg.Replay = nil, tr
	var ref *Stats
	for _, rate := range []float64{cfg.RatePerSec, 0, 10 * cfg.RatePerSec} {
		cfg.RatePerSec = rate
		st, err := Run(cfg)
		if err != nil {
			t.Errorf("replay with RatePerSec = %v: %v", rate, err)
			continue
		}
		if ref == nil {
			ref = st
		} else if !reflect.DeepEqual(ref, st) {
			t.Errorf("replay Stats depend on RatePerSec = %v: utilisation %v, was %v",
				rate, st.Prediction.Utilization, ref.Prediction.Utilization)
		}
	}
	want := float64(len(tr.Requests)) / tr.Requests[len(tr.Requests)-1].Arrival
	if got := ref.Prediction.Utilization * ref.Prediction.CapacityRPS; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("prediction priced at %.3f req/s, the trace offered %.3f", got, want)
	}
}

// A replay serves min(NumRequests, len(trace)) requests, so a count far past
// the trace's length is a valid run — its per-request ledgers sized by the
// trace, not by the count — with the Stats of the exact count.
func TestReplayCountPastTraceLength(t *testing.T) {
	cfg := baseConfig(testSetup(t))
	cfg.NumRequests = 10
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replay = tr
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumRequests = math.MaxInt
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replay with NumRequests = MaxInt served %d routes, the exact count %d", len(got.Routes), len(want.Routes))
	}
}

// End-to-end over three cohorts: the per-class ledger balances, all three
// classes are active, and the fairness index is well-formed and printed.
func TestWorkloadEndToEnd(t *testing.T) {
	cfg := workloadConfig(t)
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sumOffered := 0
	for c := range stats.PerClass {
		cs := stats.PerClass[c]
		sumOffered += cs.Offered
		if cs.Served+cs.Rejected != cs.Offered {
			t.Errorf("class %v ledger: served %d + rejected %d != offered %d",
				SLOClass(c), cs.Served, cs.Rejected, cs.Offered)
		}
		if cs.Served > 0 && (cs.P50Sec <= 0 || cs.P99Sec < cs.P50Sec || cs.MaxSec < cs.P99Sec) {
			t.Errorf("class %v quantiles inconsistent: p50 %v p99 %v max %v",
				SLOClass(c), cs.P50Sec, cs.P99Sec, cs.MaxSec)
		}
	}
	if sumOffered != stats.Offered {
		t.Errorf("per-class offered sums to %d, global offered %d", sumOffered, stats.Offered)
	}
	if stats.ActiveClasses != 3 {
		t.Errorf("active classes = %d, want 3", stats.ActiveClasses)
	}
	if stats.JainFairness <= 0 || stats.JainFairness > 1 {
		t.Errorf("Jain fairness %v outside (0, 1]", stats.JainFairness)
	}
	out := stats.String()
	if !strings.Contains(out, "interactive") || !strings.Contains(out, "fairness") {
		t.Errorf("Stats.String missing the per-class report:\n%s", out)
	}
}

// Per-class token buckets meter admission without consuming queue capacity
// on rejection or tokens on a global reject.
func TestClassTokenBucket(t *testing.T) {
	a, err := NewAdmissionController(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetClassRate(ClassBulk, 10, 2); err != nil {
		t.Fatal(err)
	}
	if a.SetClassRate(ClassBulk, -1, 1) == nil || a.SetClassRate(NumClasses, 10, 1) == nil {
		t.Fatal("invalid class rate accepted")
	}
	// Burst 2: two immediate admits, then the bucket is dry.
	if !a.AdmitClass(0, ClassBulk) || !a.AdmitClass(0, ClassBulk) {
		t.Fatal("burst tokens not granted")
	}
	if a.AdmitClass(0, ClassBulk) {
		t.Fatal("dry bucket admitted")
	}
	if a.Outstanding() != 2 {
		t.Fatalf("bucket rejection consumed queue capacity: outstanding %d, want 2", a.Outstanding())
	}
	// Rate 10/s: 0.1s refills one token.
	if !a.AdmitClass(0.1, ClassBulk) {
		t.Fatal("refilled bucket rejected")
	}
	// Unmetered classes pass straight to the global bound.
	if !a.AdmitClass(0.1, ClassInteractive) {
		t.Fatal("unmetered class rejected")
	}

	// A global reject must not burn a token: with capacity 1 and a
	// near-zero refill rate, the token survives the global reject and is
	// still there once capacity frees up.
	b, err := NewAdmissionController(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetClassRate(ClassBulk, 1e-9, 2); err != nil {
		t.Fatal(err)
	}
	if !b.AdmitClass(0, ClassBulk) {
		t.Fatal("first admit rejected")
	}
	if b.AdmitClass(0, ClassBulk) {
		t.Fatal("admitted past global capacity")
	}
	b.DispatchedKind(hw.CPU, []float64{0.1}) // completes at t=0.1, freeing capacity
	if !b.AdmitClass(0.2, ClassBulk) {
		t.Fatal("token was consumed by the global reject")
	}
}

// Class rates end to end: metering the bulk cohort sheds bulk traffic at a
// far higher rate than the unmetered interactive cohort.
func TestClassRatesEndToEnd(t *testing.T) {
	cfg := workloadConfig(t)
	cfg.ClassRates = []ClassRateLimit{{Class: ClassBulk, RatePerSec: 200, Burst: 4}}
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bulk := stats.PerClass[ClassBulk]
	inter := stats.PerClass[ClassInteractive]
	if bulk.Rejected == 0 {
		t.Fatal("metered bulk class was never rejected")
	}
	rejRate := func(cs ClassStats) float64 { return float64(cs.Rejected) / float64(cs.Offered) }
	if rejRate(bulk) <= rejRate(inter) {
		t.Fatalf("bulk rejection rate %.3f not above interactive's %.3f", rejRate(bulk), rejRate(inter))
	}
}

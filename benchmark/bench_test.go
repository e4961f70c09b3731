package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := loadManifest(filepath.Join("..", manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// The metric registry in metrics.go and BENCHMARK.json must declare the same
// names, units and directions, within the contract's limits.
func TestManifestMatchesRegistry(t *testing.T) {
	man := testManifest(t)
	compare := func(kind string, defs []metricDef, got []manifestMetric, limit int) {
		if len(got) != len(defs) || len(got) > limit {
			t.Fatalf("%s: manifest declares %d metrics, registry %d, limit %d", kind, len(got), len(defs), limit)
		}
		seen := map[string]bool{}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: manifest %+v, registry %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s: name %q is malformed or repeated", kind, g.Name)
			}
			seen[g.Name] = true
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, g.Name, g.Better)
			}
		}
	}
	compare("end_to_end", endToEnd, man.EndToEnd, 16)
	compare("per_layer", perLayer, man.PerLayer, 128)
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if s := man.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s must be declared as seconds, lower is better: %+v", s)
	}
	ws := workloads(fullSizes)
	if len(man.Workloads) != len(ws) || len(ws) < 2 || len(ws) > 6 {
		t.Fatalf("manifest has %d workloads, the benchmark %d", len(man.Workloads), len(ws))
	}
	for i, w := range ws {
		if man.Workloads[i].Name != w.Name || man.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, benchmark %q / %q", i, man.Workloads[i], w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or why of %d characters", w.Name, len(w.Why))
		}
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 || len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", man.RunSeconds, man.Paths)
	}
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

func emittedNames(ms map[string]metric) []string {
	var names []string
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A short-sized run of every workload, untraced and traced: the names
// emitted are exactly the names declared, each once with its unit, every
// end-to-end value is finite and non-zero, and every correctness check
// passes.
func TestSmokeRun(t *testing.T) {
	pinProcs()
	dir := t.TempDir()
	for _, w := range workloads(shortSizes) {
		doc, err := runWorkload(w, shortSizes, 1, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got, want := emittedNames(doc.Metrics), metricNames(endToEnd); !sameNames(got, want) {
			t.Errorf("%s: untraced run emitted %v, declared %v", w.Name, got, want)
		}
		for name, m := range doc.Metrics {
			if m.Unit == "" || m.Value == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v %q", w.Name, name, m.Value, m.Unit)
			}
		}
		for _, c := range doc.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if doc.OpsAttempted < 1 || doc.OpsFailed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, doc.OpsAttempted, doc.OpsFailed)
		}
		line, err := json.Marshal(doc.result())
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
			t.Errorf("%s: result line %s", w.Name, line)
		}

		traced, err := traceWorkload(w, shortSizes, 1, dir)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if got, want := emittedNames(traced.Metrics), metricNames(perLayer); !sameNames(got, want) {
			t.Errorf("%s: traced run emitted %v, declared %v", w.Name, got, want)
		}
		for _, c := range traced.Checks {
			if !c.OK {
				t.Errorf("%s traced: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		raw, err := os.ReadFile(traced.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 {
			t.Fatalf("%s: trace file: %v, %d spans", w.Name, err, len(tf.Spans))
		}
		for _, s := range tf.Spans {
			if s.EndNS < s.StartNS || s.Parent >= s.ID || s.Workload != w.Name {
				t.Fatalf("%s: malformed span %+v", w.Name, s)
			}
		}
	}
}

func failed(cs []check) map[string]bool {
	out := map[string]bool{}
	for _, c := range cs {
		if !c.OK {
			out[c.Name] = true
		}
	}
	return out
}

func wantOnly(t *testing.T, what string, cs []check, names ...string) {
	t.Helper()
	got := failed(cs)
	if len(got) != len(names) {
		t.Errorf("%s: failed checks %v, want %v", what, got, names)
		return
	}
	for _, n := range names {
		if !got[n] {
			t.Errorf("%s: failed checks %v, want %v", what, got, names)
		}
	}
}

// Every correctness check must fire on an input broken in exactly the way it
// guards against, and stay quiet on a sound one.
func TestChecksFire(t *testing.T) {
	spec := trainSpec{Epochs: 2, Pipeline: core.PipelinePrefetch}
	good := func() *trainObs {
		return &trainObs{Spec: spec, Warm: epochObs{Loss: 3},
			Epochs:    []epochObs{{Loss: 2}, {Loss: 1}},
			OwnLosses: []float64{3, 2, 1}, TwinLosses: []float64{3, 2, 1}}
	}
	wantOnly(t, "sound training", good().checks())
	o := good()
	o.Epochs[1].Loss = 3
	wantOnly(t, "loss not decreasing", o.checks(), "train.loss_decreased")
	o = good()
	o.Divergence = 1e-9
	wantOnly(t, "replicas diverged", o.checks(), "train.replicas_in_sync")
	o = good()
	o.TwinLosses[2] = math.Nextafter(1, 2)
	wantOnly(t, "twin off by one ulp", o.checks(), "train.prefetch_equals_serial")

	stats := func() *serve.Stats {
		return &serve.Stats{Offered: 100, Served: 97, Rejected: 2, Shed: 1, P50Sec: 1e-3, P99Sec: 2e-3}
	}
	sound := func() *serveObs {
		return &serveObs{Stats: stats(), Identical: true, SLO: sloResult{Rate: 40000}}
	}
	wantOnly(t, "sound serving", sound().checks())
	s := sound()
	s.Stats.Served--
	wantOnly(t, "ledger off by one", s.checks(), "serve.ledger")
	s = sound()
	s.Stats.P50Sec = 3e-3
	wantOnly(t, "p50 above p99", s.checks(), "serve.p50_le_p99")
	s = sound()
	s.Identical = false
	wantOnly(t, "replays differ", s.checks(), "serve.replays_identical")
	s = sound()
	s.SLO.Rate = 0
	wantOnly(t, "no rate meets the SLO", s.checks(), "serve.slo_rate_found")

	eps := []epochObs{{Loss: 2, VirtualSec: 0.5, Iterations: 3, Assignment: perfmodel.Assignment{CPUBatch: 7}}}
	moved := []epochObs{eps[0]}
	moved[0].VirtualSec = math.Nextafter(0.5, 1)
	staticSpec := trainSpec{DRM: false}
	wantOnly(t, "sound traced training", tracedTrainChecks(staticSpec, eps, eps, 0, 10, 10))
	wantOnly(t, "virtual clock moved under tracing", tracedTrainChecks(staticSpec, eps, moved, 0, 10, 10),
		"train.traced_equals_untraced")
	wantOnly(t, "replay lost an edge", tracedTrainChecks(staticSpec, eps, eps, 0, 9, 10),
		"train.replay_regenerates_epoch")
	wantOnly(t, "traced replicas diverged", tracedTrainChecks(staticSpec, eps, eps, 1, 10, 10),
		"train.replicas_in_sync")

	traced := stats()
	traced.RouteTrace = []serve.RouteDecision{{Batch: 1}}
	wantOnly(t, "sound traced serving", tracedServeChecks(stats(), traced))
	traced.P99Sec = 2.5e-3
	wantOnly(t, "p99 moved under tracing", tracedServeChecks(stats(), traced), "serve.traced_equals_untraced")

	a := &document{Metrics: map[string]metric{"train_virt_mteps": {Value: 1}, "setup_s": {Value: 1}}}
	b := &document{Metrics: map[string]metric{"train_virt_mteps": {Value: 1}, "setup_s": {Value: 2}}}
	defs := []metricDef{endToEnd[0], endToEnd[3]}
	if got := exactMismatches(defs, a, b); len(got) != 0 {
		t.Errorf("wall metrics may differ between runs: %v", got)
	}
	b.Metrics["train_virt_mteps"] = metric{Value: math.Nextafter(1, 2)}
	if got := exactMismatches(defs, a, b); len(got) != 1 {
		t.Errorf("a virtual metric off by one ulp must be reported: %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q3 = quartiles([]float64{1, 2, 4, 8}); q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles of 1,2,4,8: %v, %v", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	at := func(v, spread float64) sideStat { return sideStat{Median: v, Spread: spread, Runs: 10} }
	cases := []struct {
		old, new sideStat
		better   string
		bound    float64
		want     string
	}{
		{at(100, 0.01), at(120, 0.01), "lower", 0.1, verdictWorse},
		{at(100, 0.01), at(80, 0.01), "higher", 0.1, verdictWorse},
		{at(100, 0.01), at(104, 0.01), "lower", 0.1, verdictSame},
		{at(100, 0.01), at(90, 0.01), "lower", 0.1, verdictBetter},
		{at(100, 0.01), at(110, 0.01), "higher", 0.1, verdictBetter},
		{at(100, 0.3), at(104, 0.01), "lower", 0.1, verdictUnresolved},
		{at(100, 0.3), at(150, 0.01), "lower", 0.1, verdictWorse},
		{at(100, 0), at(100, 0), "higher", 0.01, verdictSame},
	}
	for i, c := range cases {
		if got, _ := judge(c.old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

// -compare reads what a run prints: documents interleaved with result lines.
func TestCompareReadsPrintedOutput(t *testing.T) {
	man := testManifest(t)
	doc := func(wall float64) *document {
		d := &document{Workload: man.Workloads[0].Name, Metrics: map[string]metric{}, Correct: true,
			Timings: map[string]timing{"train_epoch_wall_s": {N: 3, Min: 1, Median: 1, Max: 1.02}}}
		for _, def := range endToEnd {
			d.Metrics[def.Name] = metric{Value: 10, Unit: def.Unit, Clock: def.Clock}
		}
		d.Metrics["train_wall_targets_per_s"] = metric{Value: wall, Unit: "1/s"}
		return d
	}
	write := func(name string, d *document) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
		line, _ := json.Marshal(d.result())
		buf.Write(append(line, '\n'))
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldDocs, err := readDocuments(write("old.json", doc(1000)))
	if err != nil || len(oldDocs) != 1 {
		t.Fatalf("old: %v, %d documents", err, len(oldDocs))
	}
	newDocs, err := readDocuments(write("new.json", doc(500)))
	if err != nil {
		t.Fatal(err)
	}
	rows := compareDocs(man, oldDocs, newDocs)
	if len(rows) != len(endToEnd) {
		t.Fatalf("%d rows for %d metrics", len(rows), len(endToEnd))
	}
	for _, r := range rows {
		want := verdictSame
		if r.Metric == "train_wall_targets_per_s" {
			want = verdictWorse
		}
		if r.Verdict != want {
			t.Errorf("%s: %s, want %s", r.Metric, r.Verdict, want)
		}
	}
}

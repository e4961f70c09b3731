package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// validOptions mirrors the flag defaults.
func validOptions() options {
	return options{
		dataset: "ogbn-products", model: "sage", platform: "cpu-fpga",
		scale: 2000, epochs: 5, batch: 256, lr: 0.3, seed: 1,
		hybrid: true, tfp: true, drm: true, pipeline: "serial", nodes: 1,
		serveRate: 5000, serveRequests: 20000, serveBatch: 32,
		serveWindowUs: 500, serveWorkers: 2, serveQueue: 1024,
		serveCache: 4096, serveZipf: 1.1, serveShards: 1,
	}
}

func TestBuildConfigDefaults(t *testing.T) {
	r, err := buildConfig(validOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != gnn.SAGE {
		t.Fatalf("kind = %v", r.Kind)
	}
	if r.Plat.Name == "" || len(r.Plat.Accels) == 0 {
		t.Fatalf("platform not resolved: %+v", r.Plat)
	}
	if r.Spec.NumVertices <= 0 || r.Spec.NumVertices >= 2_449_029 {
		t.Fatalf("spec not scaled: %d vertices", r.Spec.NumVertices)
	}
	if len(r.Fanouts) != r.Spec.Layers() {
		t.Fatalf("%d fanouts for %d layers", len(r.Fanouts), r.Spec.Layers())
	}
}

// -pipeline resolves to the core mode, reaches the training config, and
// rejects unknown schedules.
func TestBuildConfigPipelineMode(t *testing.T) {
	o := validOptions()
	o.pipeline = "prefetch"
	r, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pipeline != core.PipelinePrefetch {
		t.Fatalf("pipeline = %v, want prefetch", r.Pipeline)
	}
	if got := r.coreConfig(nil).Pipeline; got != core.PipelinePrefetch {
		t.Fatalf("coreConfig pipeline = %v, want prefetch", got)
	}
	o.pipeline = "overlapped"
	if _, err := buildConfig(o); err == nil || !strings.Contains(err.Error(), "pipeline") {
		t.Fatalf("unknown pipeline mode accepted (err=%v)", err)
	}
}

func TestBuildConfigResolvesAliases(t *testing.T) {
	o := validOptions()
	o.model = "GraphSAGE"
	if _, err := buildConfig(o); err != nil {
		t.Fatalf("GraphSAGE alias rejected: %v", err)
	}
	o.model = "gcn"
	r, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != gnn.GCN {
		t.Fatalf("kind = %v, want GCN", r.Kind)
	}
}

// -accels builds a heterogeneous fleet: device order follows the spec,
// counts expand, kinds are case-insensitive, and mixed fleets carry
// per-device links.
func TestBuildConfigAccelsSpec(t *testing.T) {
	o := validOptions()
	o.accels = "gpu:2,fpga:1"
	r, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Plat.Accels) != 3 {
		t.Fatalf("fleet size %d, want 3", len(r.Plat.Accels))
	}
	wantKinds := []hw.Kind{hw.GPU, hw.GPU, hw.FPGA}
	for i, k := range wantKinds {
		if r.Plat.Accels[i].Kind != k {
			t.Fatalf("device %d kind %v, want %v", i, r.Plat.Accels[i].Kind, k)
		}
	}
	if len(r.Plat.AccelLinks) != 3 {
		t.Fatalf("per-device links missing: %v", r.Plat.AccelLinks)
	}
	if r.Plat.AccelLink(0).Name == r.Plat.AccelLink(2).Name {
		t.Fatal("GPU and FPGA should sit on different links")
	}

	o.accels = "FPGA" // bare kind, count defaults to 1, case-insensitive
	r, err = buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Plat.Accels) != 1 || r.Plat.Accels[0].Kind != hw.FPGA {
		t.Fatalf("bare-kind spec: %+v", r.Plat.Accels)
	}

	o.accels = "" // no override: the -platform preset stands
	r, err = buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Plat.Accels) != 4 {
		t.Fatalf("platform preset lost: %d accels", len(r.Plat.Accels))
	}
}

func TestBuildConfigAccelsRejectsBadSpecs(t *testing.T) {
	cases := map[string]string{
		"tpu:2":      "tpu",   // unknown device kind
		"cpu:1":      "cpu",   // not an accelerator
		"gpu:0":      "count", // non-positive count
		"gpu:-1":     "count", // negative count
		"gpu:x":      "count", // non-numeric count
		"gpu:2,,":    "empty", // empty entry
		"gpu:2:fpga": "count", // malformed separator use

		"gpu:2000000000": "more than 64", // rejected before two billion kinds are appended
		"gpu:40,fpga:25": "more than 64", // the cap is on the fleet, not the entry
	}
	for spec, want := range cases {
		o := validOptions()
		o.accels = spec
		_, err := buildConfig(o)
		if err == nil {
			t.Fatalf("-accels %q: expected error", spec)
		}
		if !strings.Contains(strings.ToLower(err.Error()), want) {
			t.Fatalf("-accels %q: error %q does not mention %q", spec, err, want)
		}
	}
}

// Whatever parseAccelSpec accepts is a fleet hw.HeteroPlatform can build:
// at least one device, at most maxAccels, GPU and FPGA kinds only. Whatever
// it rejects, it rejects with an error — before sizing anything from it.
func FuzzParseAccelSpec(f *testing.F) {
	for _, seed := range []string{
		"gpu:2,fpga:1", "FPGA", " gpu : 1 ", "gpu:64", "gpu:65", "gpu:2000000000",
		"gpu:40,fpga:25", "gpu:-1", "gpu:2,,", "gpu:2:fpga", "tpu", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		kinds, err := parseAccelSpec(s)
		if err != nil {
			return
		}
		if len(kinds) < 1 || len(kinds) > maxAccels {
			t.Fatalf("parseAccelSpec(%q) accepted a fleet of %d devices", s, len(kinds))
		}
		for _, k := range kinds {
			if k != hw.GPU && k != hw.FPGA {
				t.Fatalf("parseAccelSpec(%q) accepted kind %v", s, k)
			}
		}
	})
}

// Every bad value must come back as an error mentioning the culprit — never
// a panic, never a silent default.
func TestBuildConfigRejectsBadValues(t *testing.T) {
	cases := map[string]struct {
		mutate func(*options)
		want   string // substring of the error
	}{
		"dataset":          {func(o *options) { o.dataset = "imagenet" }, "imagenet"},
		"model":            {func(o *options) { o.model = "transformer" }, "model"},
		"platform":         {func(o *options) { o.platform = "tpu-pod" }, "platform"},
		"scale":            {func(o *options) { o.scale = 0 }, "-scale"},
		"epochs":           {func(o *options) { o.epochs = -1 }, "-epochs"},
		"no-training":      {func(o *options) { o.epochs = 0 }, "-epochs"},
		"batch":            {func(o *options) { o.batch = 0 }, "-batch"},
		"lr":               {func(o *options) { o.lr = 0 }, "-lr"},
		"lr-nan":           {func(o *options) { o.lr = math.NaN() }, "-lr"},
		"lr-inf":           {func(o *options) { o.lr = math.Inf(1) }, "-lr"},
		"nodes":            {func(o *options) { o.nodes = 0 }, "-nodes"},
		"serve+nodes":      {func(o *options) { o.serveMode = true; o.nodes = 4 }, "-serve"},
		"serve-rate":       {func(o *options) { o.serveMode = true; o.serveRate = 0 }, "-serve-rate"},
		"serve-rate-nan":   {func(o *options) { o.serveMode = true; o.serveRate = math.NaN() }, "-serve-rate"},
		"serve-rate-inf":   {func(o *options) { o.serveMode = true; o.serveRate = math.Inf(1) }, "-serve-rate"},
		"serve-requests":   {func(o *options) { o.serveMode = true; o.serveRequests = 0 }, "-serve-requests"},
		"serve-batch":      {func(o *options) { o.serveMode = true; o.serveBatch = 0 }, "-serve-batch"},
		"serve-window":     {func(o *options) { o.serveMode = true; o.serveWindowUs = -1 }, "-serve-window-us"},
		"serve-window-nan": {func(o *options) { o.serveMode = true; o.serveWindowUs = math.NaN() }, "-serve-window-us"},
		"serve-window-inf": {func(o *options) { o.serveMode = true; o.serveWindowUs = math.Inf(1) }, "-serve-window-us"},
		"serve-workers":    {func(o *options) { o.serveMode = true; o.serveWorkers = 0 }, "-serve-workers"},
		"serve-queue":      {func(o *options) { o.serveMode = true; o.serveQueue = 0 }, "-serve-queue"},
		"batch-over-queue": {func(o *options) { o.serveMode = true; o.serveBatch = 2048 }, "-serve-batch 2048 exceeds"},
		"serve-cache":      {func(o *options) { o.serveMode = true; o.serveCache = -1 }, "-serve-cache"},
		"serve-zipf":       {func(o *options) { o.serveMode = true; o.serveZipf = -0.5 }, "-serve-zipf"},
		"serve-zipf-nan":   {func(o *options) { o.serveMode = true; o.serveZipf = math.NaN() }, "-serve-zipf"},
		"serve-zipf-inf":   {func(o *options) { o.serveMode = true; o.serveZipf = math.Inf(1) }, "-serve-zipf"},
		"serve-small":      {func(o *options) { o.serveMode = true; o.serveSmall = -1 }, "-serve-small"},
		"serve-shards":     {func(o *options) { o.serveMode = true; o.serveShards = -1 }, "-serve-shards"},
		"small-no-peer":    {func(o *options) { o.serveMode = true; o.serveSmall = 4 }, "-serve-cpu-peer"},
		"multinode-0ep":    {func(o *options) { o.nodes = 2; o.epochs = 0 }, "multi-node"},
	}
	for name, tc := range cases {
		o := validOptions()
		tc.mutate(&o)
		_, err := buildConfig(o)
		if err == nil {
			t.Fatalf("%s: expected error", name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %q", name, err, tc.want)
		}
	}
}

// -serve -epochs 0 is the one zero-epoch mode that is legal (serve an
// untrained model).
func TestBuildConfigServeWithoutTraining(t *testing.T) {
	o := validOptions()
	o.serveMode = true
	o.epochs = 0
	if _, err := buildConfig(o); err != nil {
		t.Fatalf("serve without training rejected: %v", err)
	}
}

func TestConfigConstructors(t *testing.T) {
	o := validOptions()
	o.serveMode = true
	o.servePeer = true
	o.serveSmall = 4
	o.serveShards = 4
	o.routeTrace = true
	r, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	cc := r.coreConfig(nil) // dataset wired by the caller; translation only
	if cc.BatchSize != 256 || cc.LR != 0.3 || !cc.Hybrid || !cc.TFP || !cc.DRM {
		t.Fatalf("core config lost flags: %+v", cc)
	}
	if len(cc.Fanouts) != 2 || cc.Fanouts[0] != 25 {
		t.Fatalf("fanouts = %v", cc.Fanouts)
	}
	sc := r.serveConfig(nil, nil)
	if sc.MaxBatch != 32 || sc.WindowSec != 500e-6 || sc.CacheSize != 4096 ||
		sc.RatePerSec != 5000 || sc.QueueCap != 1024 {
		t.Fatalf("serve config lost flags: %+v", sc)
	}
	if !sc.CPUPeer || sc.SmallBatchCut != 4 {
		t.Fatalf("serve fleet flags lost: %+v", sc)
	}
	if sc.CacheShards != 4 || !sc.RouteTrace {
		t.Fatalf("serve data-plane flags lost: %+v", sc)
	}
	if sc.ModelVersion != 1+o.epochs {
		t.Fatalf("model version %d", sc.ModelVersion)
	}
}

func TestBuildConfigTensorPar(t *testing.T) {
	o := validOptions()
	o.tensorPar = -1
	if _, err := buildConfig(o); err == nil {
		t.Fatal("expected error for negative -tensor-par")
	}
	for _, par := range []int{0, 1, 8} {
		o := validOptions()
		o.tensorPar = par
		r, err := buildConfig(o)
		if err != nil {
			t.Fatalf("-tensor-par %d rejected: %v", par, err)
		}
		if r.opts.tensorPar != par {
			t.Fatalf("run spec dropped -tensor-par: got %d want %d", r.opts.tensorPar, par)
		}
	}
}

func TestBuildConfigSIMD(t *testing.T) {
	for _, bad := range []string{"mmx", "sse"} {
		o := validOptions()
		o.simd = bad
		if _, err := buildConfig(o); err == nil {
			t.Fatalf("expected error for unknown -simd level %q", bad)
		}
	}
	// "auto" and "" both resolve to the detected ceiling; explicit levels
	// resolve to themselves (capability is checked later, at apply time).
	for _, tc := range []struct {
		in   string
		want tensor.SIMDLevel
	}{
		{"auto", tensor.DetectedSIMDLevel()},
		{"", tensor.DetectedSIMDLevel()},
		{"generic", tensor.SIMDGeneric},
		{"AVX2", tensor.SIMDAVX2},
		{"avx512", tensor.SIMDAVX512},
	} {
		o := validOptions()
		o.simd = tc.in
		r, err := buildConfig(o)
		if err != nil {
			t.Fatalf("-simd %q rejected: %v", tc.in, err)
		}
		if r.SIMD != tc.want {
			t.Fatalf("-simd %q resolved to %v, want %v", tc.in, r.SIMD, tc.want)
		}
	}
}

// The serving workload, formation, and trace flags parse and normalize, and
// bad directives are rejected before any work starts.
func TestBuildConfigServeWorkloadFlags(t *testing.T) {
	o := validOptions()
	o.serveMode = true
	o.serveWorkload = "web,rate=4000,class=interactive,zipf=1.1;etl,rate=1500,dist=weibull,shape=0.7,class=bulk"
	o.serveFormation = "priority-fcfs"
	o.serveTrace = "record=/tmp/hyscale-trace.txt"
	r, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload == nil || len(r.Workload.Cohorts) != 2 {
		t.Fatalf("workload spec not parsed: %+v", r.Workload)
	}
	if r.Formation != serve.FormationPriority {
		t.Fatalf("formation = %q, want normalized %q", r.Formation, serve.FormationPriority)
	}
	if r.TraceMode != "record" || r.TracePath != "/tmp/hyscale-trace.txt" {
		t.Fatalf("trace directive parsed to (%q, %q)", r.TraceMode, r.TracePath)
	}
	cfg := r.serveConfig(nil, nil)
	if cfg.Workload != r.Workload || cfg.Formation != serve.FormationPriority {
		t.Fatalf("serveConfig did not wire workload/formation: %+v", cfg)
	}

	bad := []func(*options){
		func(o *options) { o.serveFormation = "speculative" },
		func(o *options) { o.serveWorkload = "web" }, // missing rate
		func(o *options) { o.serveTrace = "dump=/tmp/x" },
		func(o *options) { o.serveTrace = "record=" },
		func(o *options) { // replay contradicts a generated workload
			o.serveWorkload = "web,rate=100"
			o.serveTrace = "replay=/tmp/x"
		},
	}
	for i, mutate := range bad {
		b := validOptions()
		b.serveMode = true
		mutate(&b)
		if _, err := buildConfig(b); err == nil {
			t.Errorf("bad serve flags case %d accepted", i)
		}
	}
}

// -faults, -retry-budget and -serve-slo parse, reach the runtime configs,
// and are rejected when the schedule's plane does not match the run mode.
func TestBuildConfigFaultFlags(t *testing.T) {
	o := validOptions()
	o.serveMode = true
	o.faults = "fail,worker=1,at=0.05;slow,worker=0,from=0.02,to=0.04,factor=3"
	o.retryBudget = 3
	o.serveSLO = "interactive=2,standard=10,bulk=50"
	r, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults == nil || len(r.Faults.Events) != 2 {
		t.Fatalf("fault schedule not parsed: %+v", r.Faults)
	}
	if len(r.SLOTargets) != 3 {
		t.Fatalf("SLO targets not parsed: %+v", r.SLOTargets)
	}
	cfg := r.serveConfig(nil, nil)
	if cfg.Faults != r.Faults || cfg.RetryBudget != 3 || len(cfg.SLOTargets) != 3 {
		t.Fatalf("serveConfig did not wire the fault plane: %+v", cfg)
	}

	// Cluster events route to multi-node runs and are accepted there.
	o = validOptions()
	o.nodes = 4
	o.faults = "fail,node=2,at=iter:5;degrade,link,from=iter:2,to=iter:6,factor=4"
	if r, err = buildConfig(o); err != nil {
		t.Fatal(err)
	}
	if r.Faults == nil || !r.Faults.HasCluster() {
		t.Fatalf("cluster fault schedule not parsed: %+v", r.Faults)
	}

	bad := []struct {
		name   string
		mutate func(*options)
	}{
		{"garbage spec", func(o *options) { o.serveMode = true; o.faults = "melt,worker=1" }},
		{"worker events without -serve", func(o *options) { o.faults = "fail,worker=1,at=0.05" }},
		{"node events without -nodes", func(o *options) { o.faults = "fail,node=2,at=iter:5" }},
		{"bad slo spec", func(o *options) { o.serveMode = true; o.serveSLO = "interactive=fast" }},
	}
	for _, tc := range bad {
		b := validOptions()
		tc.mutate(&b)
		if _, err := buildConfig(b); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// -cpuprofile: an unwritable path is a clean error naming the flag (after
// set-up, before any training) and a writable one leaves a non-empty profile
// behind.
func TestRunCPUProfile(t *testing.T) {
	o := validOptions()
	o.scale, o.epochs = 20000, 1
	dir := t.TempDir()

	o.cpuProfile = filepath.Join(dir, "missing", "cpu.prof")
	if err := run(o); err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Fatalf("unwritable -cpuprofile path: err = %v, want one naming the flag", err)
	}

	o.cpuProfile = filepath.Join(dir, "cpu.prof")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(o.cpuProfile); err != nil || fi.Size() == 0 {
		t.Fatalf("profile not written: %v, %v", fi, err)
	}
	// The profiler must be stopped again: a second start fails otherwise.
	if err := run(o); err != nil {
		t.Fatalf("second profiled run: %v", err)
	}
}

// -memprofile: an unwritable path is a clean error naming the flag before any
// training, a writable one leaves a non-empty heap profile behind, and no flag
// leaves nothing.
func TestRunMemProfile(t *testing.T) {
	o := validOptions()
	o.scale, o.epochs = 20000, 1
	dir := t.TempDir()

	o.memProfile = filepath.Join(dir, "missing", "mem.prof")
	if err := run(o); err == nil || !strings.Contains(err.Error(), "-memprofile") {
		t.Fatalf("unwritable -memprofile path: err = %v, want one naming the flag", err)
	}

	o.memProfile = filepath.Join(dir, "mem.prof")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(o.memProfile); err != nil || fi.Size() == 0 {
		t.Fatalf("profile not written: %v, %v", fi, err)
	}

	o.memProfile = ""
	if err := os.Remove(filepath.Join(dir, "mem.prof")); err != nil {
		t.Fatal(err)
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("a run without -memprofile left %v behind", left)
	}
}

// -trace: an unwritable path fails the run before its first epoch, with an
// error naming the flag, in single- and multi-node runs alike; a writable one
// leaves the header and one row per epoch behind.
func TestRunTraceCSV(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing", "epochs.csv")
	ran := false
	if err := withEpochCSV(missing, func(*trace.Recorder) error { ran = true; return nil }); err == nil || ran {
		t.Fatalf("unwritable -trace path: err = %v, training ran = %v; want an error and no epoch", err, ran)
	}
	for _, nodes := range []int{1, 2} {
		o := validOptions()
		o.scale, o.epochs, o.nodes = 20000, 2, nodes
		o.trace = missing
		if err := run(o); err == nil || !strings.Contains(err.Error(), "-trace") {
			t.Fatalf("%d node(s), unwritable -trace path: err = %v, want one naming the flag", nodes, err)
		}
		o.trace = filepath.Join(dir, fmt.Sprintf("epochs%d.csv", nodes))
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(o.trace)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(data), "\n"); lines != 1+o.epochs {
			t.Fatalf("%d node(s): CSV has %d lines, want a header and %d epochs:\n%s", nodes, lines, o.epochs, data)
		}
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed along with f's error.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // a read error shows up as missing output
		printed <- string(b)
	}()
	prev := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = prev
	w.Close()
	return <-printed, ferr
}

// Single-node training ends with one line of held-out accuracy: the trained
// engine's Evaluate(nil), exact full-graph inference over the vertices
// outside the training split — the figure the same training, repeated by
// hand, reports.
func TestRunReportsHeldOutAccuracy(t *testing.T) {
	o := validOptions()
	o.scale, o.epochs = 20000, 2
	out, err := captureStdout(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	r, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := datagen.Materialize(r.Spec, 0.2, tensor.NewRNG(o.seed))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(r.coreConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < o.epochs; ep++ {
		if _, err := e.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := e.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("Held-out accuracy (full-graph inference over the non-training vertices): %.3f\n", acc)
	if n := strings.Count(out, "Held-out accuracy"); n != 1 || !strings.Contains(out, want) {
		t.Fatalf("%d held-out lines, want one reading %q in:\n%s", n, want, out)
	}
}

// Synchronous SGD is bit-exact, so the fleet's consistency check accepts no
// divergence at all — not a rounding-sized one, not a NaN.
func TestInSyncDemandsExactEquality(t *testing.T) {
	if err := inSync(0); err != nil {
		t.Fatalf("zero divergence rejected: %v", err)
	}
	for _, d := range []float64{1e-7, math.Inf(1), math.NaN()} {
		if inSync(d) == nil {
			t.Errorf("fleet divergence %v accepted", d)
		}
	}
}

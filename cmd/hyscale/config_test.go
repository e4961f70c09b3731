package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// validOptions mirrors the flag defaults.
func validOptions() options {
	return options{
		dataset: "ogbn-products", model: "sage", platform: "cpu-fpga",
		scale: 2000, epochs: 5, batch: 256, lr: 0.3, seed: 1,
		hybrid: true, tfp: true, drm: true, nodes: 1, retryBudget: 2,
		serveRequests: 20000, serveBatch: 32,
		serveWindowUs: 500, serveWorkers: 2, serveQueue: 1024,
		serveCache: 4096, serveShards: 1, serveWorkload: defaultServeWorkload,
	}
}

func TestBuildConfigDefaults(t *testing.T) {
	r, err := buildConfig(validOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Core.Model.Kind != gnn.SAGE {
		t.Fatalf("kind = %v", r.Core.Model.Kind)
	}
	if r.Core.Plat.Name == "" || len(r.Core.Plat.Accels) == 0 {
		t.Fatalf("platform not resolved: %+v", r.Core.Plat)
	}
	if r.Spec.NumVertices <= 0 || r.Spec.NumVertices >= 2_449_029 {
		t.Fatalf("spec not scaled: %d vertices", r.Spec.NumVertices)
	}
	if len(r.Core.Fanouts) != r.Spec.Layers() {
		t.Fatalf("%d fanouts for %d layers", len(r.Core.Fanouts), r.Spec.Layers())
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
	if r.Core.Model.Kind != gnn.GCN {
		t.Fatalf("kind = %v, want GCN", r.Core.Model.Kind)
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
	if len(r.Core.Plat.Accels) != 3 {
		t.Fatalf("fleet size %d, want 3", len(r.Core.Plat.Accels))
	}
	wantKinds := []hw.Kind{hw.GPU, hw.GPU, hw.FPGA}
	for i, k := range wantKinds {
		if r.Core.Plat.Accels[i].Kind != k {
			t.Fatalf("device %d kind %v, want %v", i, r.Core.Plat.Accels[i].Kind, k)
		}
	}
	if len(r.Core.Plat.AccelLinks) != 3 {
		t.Fatalf("per-device links missing: %v", r.Core.Plat.AccelLinks)
	}
	if r.Core.Plat.AccelLink(0).Name == r.Core.Plat.AccelLink(2).Name {
		t.Fatal("GPU and FPGA should sit on different links")
	}

	o.accels = "FPGA" // bare kind, count defaults to 1, case-insensitive
	r, err = buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Core.Plat.Accels) != 1 || r.Core.Plat.Accels[0].Kind != hw.FPGA {
		t.Fatalf("bare-kind spec: %+v", r.Core.Plat.Accels)
	}

	o.accels = "" // no override: the -platform preset stands
	r, err = buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Core.Plat.Accels) != 4 {
		t.Fatalf("platform preset lost: %d accels", len(r.Core.Plat.Accels))
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
// a panic, never a silent default. The training and serving values are
// rejected by core.Config.Validate and serve.Config.Validate, so their
// errors name the Config field or the rule, not the flag.
func TestBuildConfigRejectsBadValues(t *testing.T) {
	cases := map[string]struct {
		mutate func(*options)
		want   string // substring of the error
	}{
		"dataset":           {func(o *options) { o.dataset = "imagenet" }, "imagenet"},
		"model":             {func(o *options) { o.model = "transformer" }, "model"},
		"platform":          {func(o *options) { o.platform = "tpu-pod" }, "platform"},
		"scale":             {func(o *options) { o.scale = 0 }, "-scale"},
		"epochs":            {func(o *options) { o.epochs = -1 }, "-epochs"},
		"no-training":       {func(o *options) { o.epochs = 0 }, "-epochs"},
		"batch":             {func(o *options) { o.batch = 0 }, "batch size 0"},
		"lr":                {func(o *options) { o.lr = 0 }, "learning rate 0"},
		"lr-nan":            {func(o *options) { o.lr = math.NaN() }, "learning rate NaN"},
		"lr-inf":            {func(o *options) { o.lr = math.Inf(1) }, "learning rate +Inf"},
		"nodes":             {func(o *options) { o.nodes = 0 }, "-nodes"},
		"serve+nodes":       {func(o *options) { o.serveMode = true; o.nodes = 4 }, "-serve"},
		"workload-rate":     {func(o *options) { o.serveMode = true; o.serveWorkload = "poisson,rate=0" }, "rate 0"},
		"workload-rate-nan": {func(o *options) { o.serveMode = true; o.serveWorkload = "poisson,rate=NaN" }, "rate NaN"},
		"workload-rate-inf": {func(o *options) { o.serveMode = true; o.serveWorkload = "poisson,rate=+Inf" }, "rate +Inf"},
		"serve-requests":    {func(o *options) { o.serveMode = true; o.serveRequests = 0 }, "NumRequests 0"},
		"serve-batch":       {func(o *options) { o.serveMode = true; o.serveBatch = 0 }, "max batch 0"},
		"serve-window":      {func(o *options) { o.serveMode = true; o.serveWindowUs = -1 }, "batch window -1e-06"},
		"serve-window-nan":  {func(o *options) { o.serveMode = true; o.serveWindowUs = math.NaN() }, "batch window NaN"},
		"serve-window-inf":  {func(o *options) { o.serveMode = true; o.serveWindowUs = math.Inf(1) }, "batch window +Inf"},
		"serve-workers":     {func(o *options) { o.serveMode = true; o.serveWorkers = -1 }, "Workers -1"},
		"serve-queue":       {func(o *options) { o.serveMode = true; o.serveQueue = -1 }, "QueueCap -1"},
		"batch-over-queue":  {func(o *options) { o.serveMode = true; o.serveBatch = 2048 }, "MaxBatch 2048 exceeds"},
		"serve-cache":       {func(o *options) { o.serveMode = true; o.serveCache = -1 }, "CacheSize -1"},
		"workload-zipf":     {func(o *options) { o.serveMode = true; o.serveWorkload = "poisson,rate=5000,zipf=-0.5" }, "Zipf exponent -0.5"},
		"workload-zipf-nan": {func(o *options) { o.serveMode = true; o.serveWorkload = "poisson,rate=5000,zipf=NaN" }, "Zipf exponent NaN"},
		"workload-zipf-inf": {func(o *options) { o.serveMode = true; o.serveWorkload = "poisson,rate=5000,zipf=+Inf" }, "Zipf exponent +Inf"},
		"serve-small":       {func(o *options) { o.serveMode = true; o.serveSmall = -1 }, "small-batch cut -1"},
		"serve-shards":      {func(o *options) { o.serveMode = true; o.serveShards = -1 }, "CacheShards -1"},
		"small-no-peer":     {func(o *options) { o.serveMode = true; o.serveSmall = 4 }, "SmallBatchCut 4 needs the CPU peer"},
		"multinode-0ep":     {func(o *options) { o.nodes = 2; o.epochs = 0 }, "multi-node"},
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

// -serve-workers 0 means what serve.Config says it means (every
// accelerator), so the CLI accepts it; -serve-queue 0 has no second meaning
// and is rejected.
func TestBuildConfigServeZeroMeansDefault(t *testing.T) {
	o := validOptions()
	o.serveMode = true
	o.serveWorkers = 0
	r, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Serve.Workers != 0 {
		t.Fatalf("zero worker count rewritten: workers %d", r.Serve.Workers)
	}
	o.serveQueue = 0
	if _, err := buildConfig(o); err == nil || !strings.Contains(err.Error(), "QueueCap 0") {
		t.Fatalf("-serve-queue 0: err = %v, want one naming QueueCap 0", err)
	}
}

// A value the serving plane rejects, or a TENSOR_SIMD spelling the tensor
// package cannot parse, fails the run before the dataset is materialized: the
// error comes back and "Materializing" is never printed.
func TestRunRejectsBeforeMaterializing(t *testing.T) {
	for _, tc := range []struct {
		env  string
		want string
	}{
		{"", "CacheSize -1"},
		{"avx9", `TENSOR_SIMD: tensor: unknown SIMD level "avx9"`},
	} {
		t.Setenv("TENSOR_SIMD", tc.env)
		o := validOptions()
		o.serveMode = true
		if tc.env == "" {
			o.serveCache = -1
		}
		out, err := captureStdout(t, func() error { return run(o) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("err = %v, want one naming %s", err, tc.want)
		}
		if strings.Contains(out, "Materializing") {
			t.Fatalf("the run materialized before rejecting its config:\n%s", out)
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
	cc := r.Core // dataset wired by the caller; translation only
	if cc.BatchSize != 256 || cc.LR != 0.3 || !cc.Hybrid || !cc.TFP || !cc.DRM {
		t.Fatalf("core config lost flags: %+v", cc)
	}
	if len(cc.Fanouts) != 2 || cc.Fanouts[0] != 25 {
		t.Fatalf("fanouts = %v", cc.Fanouts)
	}
	sc := r.Serve
	if sc.MaxBatch != 32 || sc.WindowSec != 500e-6 || sc.CacheSize != 4096 ||
		sc.QueueCap != 1024 || sc.RetryBudget != 2 {
		t.Fatalf("serve config lost flags: %+v", sc)
	}
	// The default stream is the one Poisson cohort of class standard.
	want := serve.Cohort{Name: "poisson", Class: serve.ClassStandard, Dist: serve.DistPoisson, RatePerSec: 5000, Shape: 1, Zipf: 1.1}
	if sc.Workload == nil || len(sc.Workload.Cohorts) != 1 || !reflect.DeepEqual(sc.Workload.Cohorts[0], want) {
		t.Fatalf("default workload = %+v, want the one cohort %+v", sc.Workload, want)
	}
	if !sc.CPUPeer || sc.SmallBatchCut != 4 {
		t.Fatalf("serve fleet flags lost: %+v", sc)
	}
	if sc.CacheShards != 4 || !sc.RouteTrace {
		t.Fatalf("serve data-plane flags lost: %+v", sc)
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

// TENSOR_SIMD is the one way to set the SIMD level, and buildConfig rejects
// a spelling the tensor package cannot parse instead of running at the
// detected ceiling.
func TestBuildConfigSIMD(t *testing.T) {
	for _, bad := range []string{"avx9", "sse"} {
		t.Setenv("TENSOR_SIMD", bad)
		_, err := buildConfig(validOptions())
		if err == nil || !strings.Contains(err.Error(), "TENSOR_SIMD") || !strings.Contains(err.Error(), bad) {
			t.Fatalf("TENSOR_SIMD=%s: err = %v, want one naming the variable and its value", bad, err)
		}
	}
	for _, ok := range []string{"", "auto", "generic", "AVX2", "avx512"} {
		t.Setenv("TENSOR_SIMD", ok)
		if _, err := buildConfig(validOptions()); err != nil {
			t.Fatalf("TENSOR_SIMD=%q rejected: %v", ok, err)
		}
	}
}

// The serving workload, formation, and trace flags parse and reach the
// serving config, a replayed trace is read up front, and bad directives are
// rejected before any work starts.
func TestBuildConfigServeWorkloadFlags(t *testing.T) {
	o := validOptions()
	o.serveMode = true
	o.serveWorkload = "web,rate=4000,class=interactive,zipf=1.1;etl,rate=1500,dist=weibull,shape=0.7,class=bulk"
	o.serveFormation = "priority"
	o.serveTrace = "record=/tmp/hyscale-trace.txt"
	r, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Serve.Workload == nil || len(r.Serve.Workload.Cohorts) != 2 {
		t.Fatalf("workload spec not parsed: %+v", r.Serve.Workload)
	}
	if r.Serve.Formation != "priority" {
		t.Fatalf("formation = %q, want the flag's %q", r.Serve.Formation, "priority")
	}
	if r.TraceMode != "record" || r.TracePath != "/tmp/hyscale-trace.txt" {
		t.Fatalf("trace directive parsed to (%q, %q)", r.TraceMode, r.TracePath)
	}

	// A replayed trace is read here, and serves at most its own length.
	replay := filepath.Join(t.TempDir(), "trace.txt")
	f, err := os.Create(replay)
	if err != nil {
		t.Fatal(err)
	}
	tr := &serve.Trace{Requests: []serve.Request{{ID: 0, Vertex: 1, Arrival: 1e-3}, {ID: 1, Vertex: 2, Arrival: 2e-3}}}
	if err := serve.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// -serve-workload at its default steps aside for the trace.
	o = validOptions()
	o.serveMode = true
	o.serveTrace = "replay=" + replay
	if r, err = buildConfig(o); err != nil {
		t.Fatal(err)
	}
	if r.Serve.Replay == nil || len(r.Serve.Replay.Requests) != 2 || r.Serve.NumRequests != 2 || r.Serve.Workload != nil {
		t.Fatalf("replayed trace not read: %+v requests %d, workload %+v", r.Serve.Replay, r.Serve.NumRequests, r.Serve.Workload)
	}

	bad := []func(*options){
		func(o *options) { o.serveFormation = "speculative" },
		func(o *options) { o.serveWorkload = "web" }, // missing rate
		func(o *options) { o.serveTrace = "dump=/tmp/x" },
		func(o *options) { o.serveTrace = "record=" },
		func(o *options) { // replay contradicts a generated workload
			o.serveWorkload = "web,rate=100"
			o.serveTrace = "replay=" + replay
		},
		func(o *options) { // even the default stream at another rate
			o.serveWorkload = "poisson,rate=4000,zipf=1.1"
			o.serveTrace = "replay=" + replay
		},
		func(o *options) { o.serveTrace = "replay=" + filepath.Join(t.TempDir(), "missing") },
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
// -retry-budget N ≥ 0 is N re-dispatch attempts, 0 none (serve.Config's
// negative budget, since its 0 means its default), and below 0 an error.
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
	cfg := r.Serve
	if len(cfg.SLOTargets) != 3 {
		t.Fatalf("SLO targets not parsed: %+v", cfg.SLOTargets)
	}
	if cfg.Faults != r.Faults || cfg.RetryBudget != 3 || len(cfg.SLOTargets) != 3 {
		t.Fatalf("serveConfig did not wire the fault plane: %+v", cfg)
	}
	for _, tc := range []struct{ flag, want int }{{0, -1}, {2, 2}} {
		o := validOptions()
		o.serveMode = true
		o.retryBudget = tc.flag
		if r, err = buildConfig(o); err != nil {
			t.Fatalf("-retry-budget %d rejected: %v", tc.flag, err)
		}
		if r.Serve.RetryBudget != tc.want {
			t.Fatalf("-retry-budget %d: serve.Config.RetryBudget %d, want %d", tc.flag, r.Serve.RetryBudget, tc.want)
		}
	}
	o.retryBudget = -1
	if _, err := buildConfig(o); err == nil || !strings.Contains(err.Error(), "-retry-budget -1") {
		t.Fatalf("-retry-budget -1: err = %v, want one naming it", err)
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
// holds, inside every epoch span, one prepare and one compute span per
// iteration (the prepare on the epoch's lane or the prefetch worker's, the
// next one).
func TestRunTraceSpans(t *testing.T) {
	dir := t.TempDir()
	for _, nodes := range []int{1, 2} {
		o := validOptions()
		o.scale, o.epochs, o.nodes, o.batch = 20000, 2, nodes, 1 // six iterations an epoch on one node
		o.trace = filepath.Join(dir, "missing", "spans.jsonl")
		out, err := captureStdout(t, func() error { return run(o) })
		if err == nil || !strings.Contains(err.Error(), "-trace") || strings.Contains(out, "epoch") {
			t.Fatalf("%d node(s), unwritable -trace path: err = %v, want one naming the flag before any epoch:\n%s", nodes, err, out)
		}
		o.trace = filepath.Join(dir, fmt.Sprintf("spans%d.jsonl", nodes))
		if _, err := captureStdout(t, func() error { return run(o) }); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(o.trace)
		if err != nil {
			t.Fatal(err)
		}
		type span struct {
			Lane       int
			Kind       string
			Index      int
			Start, End int64
		}
		var spans []span
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var s span
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatalf("span line %q: %v", line, err)
			}
			spans = append(spans, s)
		}
		// The baseline engine of a multi-node run trains two epochs too.
		epochs := 0
		for _, ep := range spans {
			if ep.Kind != "epoch" {
				continue
			}
			epochs++
			per := map[string][]int{}
			for _, s := range spans {
				inside := s.Start >= ep.Start && s.End <= ep.End
				if inside && (s.Kind == "compute" && s.Lane == ep.Lane || s.Kind == "prepare" && (s.Lane == ep.Lane || s.Lane == ep.Lane+1)) {
					per[s.Kind] = append(per[s.Kind], s.Index)
				}
			}
			n := len(per["compute"])
			for _, kind := range []string{"prepare", "compute"} {
				sort.Ints(per[kind])
				ok := n > 0 && len(per[kind]) == n
				for i, it := range per[kind] {
					ok = ok && it == i
				}
				if !ok {
					t.Fatalf("%d node(s), epoch %d on lane %d: %s spans of iterations %v, want one per iteration 0..%d",
						nodes, ep.Index, ep.Lane, kind, per[kind], n-1)
				}
			}
		}
		if want := map[int]int{1: 2, 2: 6}[nodes]; epochs != want {
			t.Fatalf("%d node(s): %d epoch spans, want %d", nodes, epochs, want)
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
	cfg := r.Core
	cfg.Data = ds
	e, err := core.NewEngine(cfg)
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

// A diverged run is an error, so hyscale exits non-zero (main exits 1 on any
// error run returns), single- and multi-node alike, and reports no result.
func TestRunFailsOnDivergence(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		o := validOptions()
		o.scale, o.epochs, o.nodes = 20000, 2, nodes
		o.lr = math.MaxFloat32
		out, err := captureStdout(t, func() error { return run(o) })
		if err == nil || !strings.Contains(err.Error(), "training diverged") {
			t.Fatalf("%d node(s): err = %v, want the divergence error", nodes, err)
		}
		if strings.Contains(out, "Final task mapping") {
			t.Fatalf("%d node(s): the diverged run reported a result:\n%s", nodes, out)
		}
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

package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// options mirrors the command-line flags one-to-one; buildConfig translates
// and validates them. Keeping the translation free of flag.* makes the
// dataset/model/platform/mode validation unit-testable.
type options struct {
	dataset   string
	model     string
	platform  string
	accels    string // heterogeneous fleet spec, e.g. "gpu:2,fpga:1"
	scale     int64
	epochs    int
	batch     int
	lr        float64
	seed      uint64
	hybrid    bool
	tfp       bool
	drm       bool
	tensorPar int
	simd      string
	quantize  bool
	saint     bool
	pipeline  string
	nodes     int
	trace     string
	// cpuProfile is the -cpuprofile path; run profiles everything after the
	// dataset is materialized.
	cpuProfile string
	// memProfile is the -memprofile path; run writes a heap profile there
	// when the training and serving planes have finished.
	memProfile string
	// faults is the -faults deterministic fault schedule (see fault.Parse);
	// empty runs fault-free (byte-identical to a build without the fault
	// plane).
	faults string
	// retryBudget is -retry-budget: serving re-dispatch attempts per batch
	// after a worker failure (0 = runtime default, negative = no retries).
	retryBudget int

	serveMode     bool
	serveRate     float64
	serveRequests int
	serveBatch    int
	serveWindowUs float64
	serveWorkers  int
	servePeer     bool
	serveSmall    int
	serveQueue    int
	serveCache    int
	serveZipf     float64
	serveShards   int
	routeTrace    bool
	// serveWorkload is the -serve-workload cohort spec (see
	// serve.ParseWorkloadSpec); empty keeps the single Poisson/Zipf stream.
	serveWorkload string
	// serveFormation is the -serve-formation batch-formation policy
	// (fcfs | priority | sjf; empty = fcfs).
	serveFormation string
	// serveTrace is the -serve-trace directive: "record=PATH" records the
	// run's arrival stream to PATH and replays it in-run; "replay=PATH"
	// serves a previously recorded trace.
	serveTrace string
	// serveSLO is the -serve-slo per-class latency target spec in
	// milliseconds (see serve.ParseSLOTargets); empty disables deadline-miss
	// accounting.
	serveSLO string
}

// runSpec is a fully validated run: the scaled dataset spec, resolved model
// kind and platform, and constructors for the runtime configs that only
// need the materialized dataset.
type runSpec struct {
	Spec    datagen.Spec
	Kind    gnn.Kind
	Plat    hw.Platform
	Fanouts []int
	// SIMD is the parsed -simd dispatch level ("auto" resolves to the
	// detected ceiling here; asking for a level the CPU lacks fails later,
	// at SetSIMDLevel time, so syntax and capability errors stay distinct).
	SIMD tensor.SIMDLevel
	// Pipeline is the parsed -pipeline epoch schedule (serial|prefetch).
	Pipeline core.PipelineMode
	// Workload is the parsed -serve-workload cohort spec (nil = the
	// one-cohort -serve-rate/-serve-zipf stream).
	Workload *serve.WorkloadSpec
	// Formation is the normalized -serve-formation policy name.
	Formation string
	// TraceMode/TracePath are the parsed -serve-trace directive
	// ("record" or "replay"; empty = no trace).
	TraceMode string
	TracePath string
	// Faults is the parsed -faults schedule (nil = fault-free).
	Faults *fault.Schedule
	// SLOTargets is the parsed -serve-slo per-class deadline spec.
	SLOTargets []serve.ClassSLO
	opts       options
}

// buildConfig resolves and validates every flag. Bad values return errors
// (never panics): unknown names, non-positive counts, and incompatible mode
// combinations are all rejected here, before any work starts.
func buildConfig(o options) (*runSpec, error) {
	spec, err := datagen.SpecByName(o.dataset)
	if err != nil {
		return nil, err
	}
	if o.scale < 1 {
		return nil, fmt.Errorf("-scale %d: need at least 1", o.scale)
	}
	r := &runSpec{Spec: spec.Scaled(o.scale), Fanouts: []int{25, 10}, opts: o}
	switch strings.ToLower(o.model) {
	case "gcn":
		r.Kind = gnn.GCN
	case "sage", "graphsage":
		r.Kind = gnn.SAGE
	default:
		return nil, fmt.Errorf("unknown model %q", o.model)
	}
	switch o.platform {
	case "cpu-gpu":
		r.Plat = hw.CPUGPUPlatform()
	case "cpu-fpga":
		r.Plat = hw.CPUFPGAPlatform()
	default:
		return nil, fmt.Errorf("unknown platform %q", o.platform)
	}
	if o.accels != "" {
		kinds, err := parseAccelSpec(o.accels)
		if err != nil {
			return nil, err
		}
		plat, err := hw.HeteroPlatform(kinds...)
		if err != nil {
			return nil, fmt.Errorf("-accels %q: %w", o.accels, err)
		}
		r.Plat = plat
	}
	if o.epochs < 0 {
		return nil, fmt.Errorf("-epochs %d: negative", o.epochs)
	}
	if o.tensorPar < 0 {
		return nil, fmt.Errorf("-tensor-par %d: negative (0 means up to one goroutine per CPU)", o.tensorPar)
	}
	lvl, err := tensor.ParseSIMDLevel(o.simd)
	if err != nil {
		return nil, fmt.Errorf("-simd %q: %w", o.simd, err)
	}
	r.SIMD = lvl
	pipe, err := core.ParsePipelineMode(o.pipeline)
	if err != nil {
		return nil, fmt.Errorf("-pipeline %q: %w", o.pipeline, err)
	}
	r.Pipeline = pipe
	if o.batch < 1 {
		return nil, fmt.Errorf("-batch %d: need at least 1", o.batch)
	}
	if !finitePositive(o.lr) {
		return nil, fmt.Errorf("-lr %v: need a finite positive learning rate", o.lr)
	}
	if o.nodes < 1 {
		return nil, fmt.Errorf("-nodes %d: need at least 1", o.nodes)
	}
	if o.nodes > 1 && o.epochs < 1 {
		return nil, fmt.Errorf("-epochs %d: multi-node needs at least 1", o.epochs)
	}
	if !o.serveMode && o.epochs < 1 {
		return nil, fmt.Errorf("-epochs %d: training needs at least 1", o.epochs)
	}
	if o.faults != "" {
		sched, err := fault.Parse(o.faults)
		if err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
		if sched.HasServing() && !o.serveMode {
			return nil, fmt.Errorf("-faults %q: worker fault events need -serve", o.faults)
		}
		if sched.HasCluster() && o.nodes <= 1 {
			return nil, fmt.Errorf("-faults %q: node/link fault events need -nodes > 1", o.faults)
		}
		r.Faults = sched
	}
	if o.serveMode {
		if o.nodes > 1 {
			return nil, fmt.Errorf("-serve with -nodes %d: serving a partitioned fleet is not supported", o.nodes)
		}
		if !finitePositive(o.serveRate) {
			return nil, fmt.Errorf("-serve-rate %v: need a finite positive request rate", o.serveRate)
		}
		if o.serveRequests < 1 {
			return nil, fmt.Errorf("-serve-requests %d: need at least 1", o.serveRequests)
		}
		if o.serveBatch < 1 {
			return nil, fmt.Errorf("-serve-batch %d: need at least 1", o.serveBatch)
		}
		if !finiteAtLeast(o.serveWindowUs, 0) {
			return nil, fmt.Errorf("-serve-window-us %v: need a finite non-negative window", o.serveWindowUs)
		}
		if o.serveWorkers < 1 {
			return nil, fmt.Errorf("-serve-workers %d: need at least 1", o.serveWorkers)
		}
		if o.serveSmall < 0 {
			return nil, fmt.Errorf("-serve-small %d: negative", o.serveSmall)
		}
		if o.serveSmall > 0 && !o.servePeer && len(r.Plat.Accels) > 0 {
			return nil, fmt.Errorf("-serve-small %d: the small-batch split needs -serve-cpu-peer", o.serveSmall)
		}
		if o.serveQueue < 1 {
			return nil, fmt.Errorf("-serve-queue %d: need at least 1", o.serveQueue)
		}
		if o.serveCache < 0 {
			return nil, fmt.Errorf("-serve-cache %d: negative", o.serveCache)
		}
		if !finiteAtLeast(o.serveZipf, 0) {
			return nil, fmt.Errorf("-serve-zipf %v: need a finite non-negative exponent", o.serveZipf)
		}
		if o.serveShards < 0 {
			return nil, fmt.Errorf("-serve-shards %d: negative", o.serveShards)
		}
		formation, err := serve.ParseFormation(o.serveFormation)
		if err != nil {
			return nil, fmt.Errorf("-serve-formation %q: %w", o.serveFormation, err)
		}
		r.Formation = formation
		if o.serveWorkload != "" {
			spec, err := serve.ParseWorkloadSpec(o.serveWorkload)
			if err != nil {
				return nil, fmt.Errorf("-serve-workload: %w", err)
			}
			r.Workload = spec
		}
		if o.serveSLO != "" {
			targets, err := serve.ParseSLOTargets(o.serveSLO)
			if err != nil {
				return nil, fmt.Errorf("-serve-slo: %w", err)
			}
			r.SLOTargets = targets
		}
		if o.serveTrace != "" {
			mode, path, ok := strings.Cut(o.serveTrace, "=")
			if !ok || path == "" || (mode != "record" && mode != "replay") {
				return nil, fmt.Errorf("-serve-trace %q: want record=PATH or replay=PATH", o.serveTrace)
			}
			if mode == "replay" && r.Workload != nil {
				return nil, fmt.Errorf("-serve-trace replay with -serve-workload: a replayed trace already pins the arrival stream")
			}
			r.TraceMode, r.TracePath = mode, path
		}
	}
	return r, nil
}

// finiteAtLeast reports whether v is a finite number ≥ min, finitePositive
// whether it is a finite number > 0 — NaN and ±Inf are neither, though a bare
// comparison lets them through. serve's workload validation states the same
// rule for the same numbers.
func finiteAtLeast(v, min float64) bool { return v >= min && !math.IsInf(v, 1) }
func finitePositive(v float64) bool     { return v > 0 && !math.IsInf(v, 1) }

// maxAccels bounds the -accels fleet: paper Fig. 9 stops at 16 accelerators
// (and saturates near 12), so 64 leaves what-if room while a typo
// ("gpu:2000000000") no longer sizes a replica and a batch share per device.
const maxAccels = 64

// parseAccelSpec parses the -accels fleet specification: a comma-separated
// list of kind[:count] entries, e.g. "gpu:2,fpga:1" or "fpga". Device order
// follows the spec. Unknown kinds, non-positive counts and fleets past
// maxAccels are rejected before anything is sized from them.
func parseAccelSpec(s string) ([]hw.Kind, error) {
	var kinds []hw.Kind
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("-accels %q: empty device entry", s)
		}
		name, countStr, hasCount := strings.Cut(entry, ":")
		count := 1
		if hasCount {
			n, err := strconv.Atoi(countStr)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("-accels %q: bad device count %q", s, countStr)
			}
			count = n
		}
		if count > maxAccels-len(kinds) {
			return nil, fmt.Errorf("-accels %q: more than %d devices", s, maxAccels)
		}
		var k hw.Kind
		switch strings.ToLower(name) {
		case "gpu":
			k = hw.GPU
		case "fpga":
			k = hw.FPGA
		default:
			return nil, fmt.Errorf("-accels %q: unknown device kind %q (want gpu or fpga)", s, name)
		}
		for i := 0; i < count; i++ {
			kinds = append(kinds, k)
		}
	}
	return kinds, nil
}

// coreConfig assembles the training runtime config for a materialized
// dataset.
func (r *runSpec) coreConfig(ds *datagen.Dataset) core.Config {
	return core.Config{
		Plat:             r.Plat,
		Data:             ds,
		Model:            gnn.Config{Kind: r.Kind, Dims: r.Spec.FeatDims},
		LR:               float32(r.opts.lr),
		BatchSize:        r.opts.batch,
		Fanouts:          r.Fanouts,
		Hybrid:           r.opts.hybrid,
		TFP:              r.opts.tfp,
		DRM:              r.opts.drm,
		QuantizeTransfer: r.opts.quantize,
		UseSaint:         r.opts.saint,
		Pipeline:         r.Pipeline,
		Seed:             r.opts.seed,
	}
}

// serveConfig assembles the serving config for a materialized dataset and a
// trained model.
func (r *runSpec) serveConfig(ds *datagen.Dataset, model *gnn.Model) serve.Config {
	return serve.Config{
		Plat:             r.Plat,
		Data:             ds,
		Model:            model,
		Fanouts:          r.Fanouts,
		ModelVersion:     1 + r.opts.epochs, // version advances with training
		NumRequests:      r.opts.serveRequests,
		RatePerSec:       r.opts.serveRate,
		ZipfExponent:     r.opts.serveZipf,
		MaxBatch:         r.opts.serveBatch,
		WindowSec:        r.opts.serveWindowUs * 1e-6,
		Workers:          r.opts.serveWorkers,
		CPUPeer:          r.opts.servePeer,
		SmallBatchCut:    r.opts.serveSmall,
		Workload:         r.Workload,
		Formation:        r.Formation,
		QueueCap:         r.opts.serveQueue,
		CacheSize:        r.opts.serveCache,
		CacheShards:      r.opts.serveShards,
		RouteTrace:       r.opts.routeTrace,
		QuantizeTransfer: r.opts.quantize,
		Seed:             r.opts.seed,
		Faults:           r.Faults,
		RetryBudget:      r.opts.retryBudget,
		SLOTargets:       r.SLOTargets,
	}
}

package main

import (
	"fmt"
	"os"
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
	// after a worker failure (0 = none).
	retryBudget int

	serveMode     bool
	serveRequests int
	serveBatch    int
	serveWindowUs float64
	serveWorkers  int
	servePeer     bool
	serveSmall    int
	serveQueue    int
	serveCache    int
	serveShards   int
	routeTrace    bool
	// serveWorkload is the -serve-workload cohort spec (see
	// serve.ParseWorkloadSpec); it describes every generated stream.
	serveWorkload string
	// serveFormation is the -serve-formation batch-formation policy
	// (fcfs | priority; empty = fcfs).
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

// runSpec is a fully validated run: the scaled dataset spec, the training
// and serving configs the runtime packages validated, and the rest of the
// flags that only cmd/hyscale interprets.
type runSpec struct {
	Spec datagen.Spec
	// Core is the training config and Serve the serving one (zero without
	// -serve). Both lack only the dataset and, for Serve, the model, which
	// the run fills in once they exist.
	Core  core.Config
	Serve serve.Config
	// TraceMode/TracePath are the parsed -serve-trace directive
	// ("record" or "replay"; empty = no trace). A replayed trace is read
	// here, into Serve.Replay.
	TraceMode string
	TracePath string
	// Faults is the parsed -faults schedule (nil = fault-free).
	Faults *fault.Schedule
	opts   options
}

// defaultServeWorkload is -serve-workload's default: one Poisson cohort of
// class standard, 5000 requests a second over Zipf(1.1) vertex popularity.
const defaultServeWorkload = "poisson,rate=5000,zipf=1.1"

// buildConfig resolves and validates every flag and TENSOR_SIMD. Bad values
// return errors (never panics), before any work starts: cmd/hyscale checks
// what no runtime package owns — names, -scale, -tensor-par, TENSOR_SIMD,
// the epoch and node counts, -retry-budget, the -faults plane against the
// mode and the -serve-trace directive — and core.Config.Validate and
// serve.Config.Validate check the rest.
func buildConfig(o options) (*runSpec, error) {
	spec, err := datagen.SpecByName(o.dataset)
	if err != nil {
		return nil, err
	}
	if o.scale < 1 {
		return nil, fmt.Errorf("-scale %d: need at least 1", o.scale)
	}
	r := &runSpec{Spec: spec.Scaled(o.scale), opts: o}
	var kind gnn.Kind
	switch strings.ToLower(o.model) {
	case "gcn":
		kind = gnn.GCN
	case "sage", "graphsage":
		kind = gnn.SAGE
	default:
		return nil, fmt.Errorf("unknown model %q", o.model)
	}
	var plat hw.Platform
	switch o.platform {
	case "cpu-gpu":
		plat = hw.CPUGPUPlatform()
	case "cpu-fpga":
		plat = hw.CPUFPGAPlatform()
	default:
		return nil, fmt.Errorf("unknown platform %q", o.platform)
	}
	if o.accels != "" {
		kinds, err := parseAccelSpec(o.accels)
		if err != nil {
			return nil, err
		}
		if plat, err = hw.HeteroPlatform(kinds...); err != nil {
			return nil, fmt.Errorf("-accels %q: %w", o.accels, err)
		}
	}
	if o.epochs < 0 {
		return nil, fmt.Errorf("-epochs %d: negative", o.epochs)
	}
	if o.tensorPar < 0 {
		return nil, fmt.Errorf("-tensor-par %d: negative (0 means up to one goroutine per CPU)", o.tensorPar)
	}
	// The tensor package applied TENSOR_SIMD at start, but skips a misspelling.
	if _, err := tensor.ParseSIMDLevel(os.Getenv("TENSOR_SIMD")); err != nil {
		return nil, fmt.Errorf("TENSOR_SIMD: %w", err)
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
	fanouts := []int{25, 10}
	r.Core = core.Config{
		Plat:      plat,
		Model:     gnn.Config{Kind: kind, Dims: r.Spec.FeatDims},
		LR:        float32(o.lr),
		BatchSize: o.batch,
		Fanouts:   fanouts,
		Hybrid:    o.hybrid,
		TFP:       o.tfp,
		DRM:       o.drm,
		Seed:      o.seed,
	}
	if err := r.Core.Validate(); err != nil {
		return nil, err
	}
	if !o.serveMode {
		return r, nil
	}
	if o.nodes > 1 {
		return nil, fmt.Errorf("-serve with -nodes %d: serving a partitioned fleet is not supported", o.nodes)
	}
	if o.retryBudget < 0 {
		return nil, fmt.Errorf("-retry-budget %d: negative (0 means no retries)", o.retryBudget)
	}
	retries := o.retryBudget
	if retries == 0 {
		retries = -1 // serve.Config reads 0 as its default of 2
	}
	r.Serve = serve.Config{
		Plat:          plat,
		Fanouts:       fanouts,
		NumRequests:   o.serveRequests,
		MaxBatch:      o.serveBatch,
		WindowSec:     o.serveWindowUs * 1e-6,
		Workers:       o.serveWorkers,
		CPUPeer:       o.servePeer,
		SmallBatchCut: o.serveSmall,
		Formation:     o.serveFormation,
		QueueCap:      o.serveQueue,
		CacheSize:     o.serveCache,
		CacheShards:   o.serveShards,
		RouteTrace:    o.routeTrace,
		Seed:          o.seed,
		Faults:        r.Faults,
		RetryBudget:   retries,
	}
	if r.Serve.Workload, err = serve.ParseWorkloadSpec(o.serveWorkload); err != nil {
		return nil, fmt.Errorf("-serve-workload: %w", err)
	}
	if o.serveSLO != "" {
		if r.Serve.SLOTargets, err = serve.ParseSLOTargets(o.serveSLO); err != nil {
			return nil, fmt.Errorf("-serve-slo: %w", err)
		}
	}
	if o.serveTrace != "" {
		mode, path, ok := strings.Cut(o.serveTrace, "=")
		if !ok || path == "" || (mode != "record" && mode != "replay") {
			return nil, fmt.Errorf("-serve-trace %q: want record=PATH or replay=PATH", o.serveTrace)
		}
		r.TraceMode, r.TracePath = mode, path
		if mode == "replay" {
			if o.serveWorkload == defaultServeWorkload {
				r.Serve.Workload = nil // any other workload contradicts the trace: Validate rejects the pair
			}
			if r.Serve.Replay, err = readTrace(path); err != nil {
				return nil, fmt.Errorf("-serve-trace %q: %w", o.serveTrace, err)
			}
			r.Serve.NumRequests = min(r.Serve.NumRequests, len(r.Serve.Replay.Requests))
		}
	}
	if err := r.Serve.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// readTrace reads the serving trace recorded at path.
func readTrace(path string) (*serve.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return serve.ReadTrace(f)
}

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

package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/serve"
)

// A workload is one benchmark run: a training configuration followed by a
// serving configuration, measured back to back in one process. The driver
// contract wants every end-to-end metric from every run, so the six
// configurations of the benchmark (T1–T3, S1–S3) are paired by the layer
// they stress: each pair reports the train_* metrics of its training half
// and the serve_* metrics of its serving half.
type workload struct {
	Name  string
	Why   string
	Train trainSpec
	Serve serveSpec
}

// trainSpec is one training configuration. Everything not listed is fixed
// across workloads: train fraction 0.2, LR 0.3, fanouts (25,10), Hybrid and
// TFP on, one warm-up epoch before the timed ones.
type trainSpec struct {
	Name     string
	Data     datagen.Spec
	Model    gnn.Config
	Plat     hw.Platform
	Batch    int
	DRM      bool
	Pipeline core.PipelineMode
	Nodes    int // > 1 runs cluster.MultiNode over hw.Ethernet100G
	// Epochs is the fixed number of timed epochs the virtual metrics are
	// read after; epochs past it only add wall/cpu samples.
	Epochs int
}

// serveSpec is one serving configuration. Fixed across workloads: fanouts
// (10,5), MaxBatch 32, QueueCap 512, policy earliest, offered rate
// serveRate; every run replays one pre-generated trace.
type serveSpec struct {
	Name          string
	Plat          hw.Platform
	Workers       int
	CPUPeer       bool
	SmallBatchCut int
	WindowSec     float64
	CacheSize     int
	CacheShards   int
	Formation     string
	SLO           string // serve.ParseSLOTargets syntax, milliseconds
	// Zipf is the single Poisson stream's popularity exponent; Cohorts, when
	// set, replaces the stream with a multi-cohort mix at the given rate.
	Zipf    float64
	Cohorts func(rate float64) []serve.Cohort
	// Faults renders the fault schedule for a trace spanning span virtual
	// seconds ("" = fault-free).
	Faults   func(span float64) string
	Requests int
	// Replays is the fixed number of timed replays; more follow while the
	// time budget lasts.
	Replays int
}

const (
	trainFraction = 0.2
	learningRate  = 0.3
	serveRate     = 60000.0
	serveMaxBatch = 32
	serveQueueCap = 512

	// SLO-rate search: the highest rate on sloGridBase·sloGridStep^k,
	// k = 0..sloGridMax, that keeps every class's p99 within its target and
	// (rejected+shed+late)/offered ≤ sloMissFrac.
	sloGridBase = 40000.0
	sloGridStep = 1.1
	sloGridMax  = 19
	sloMissFrac = 0.01
)

var (
	trainFanouts = []int{25, 10}
	serveFanouts = []int{10, 5}
	serveDims    = []int{100, 128, 47}
)

// sizes scales every workload: the full size is what BENCHMARK.json is
// measured at, the short size keeps the package's smoke test to seconds.
type sizes struct {
	ProductsScale int64
	PapersScale   int64
	MaxRequests   int // cap on a trace's length (0 = none)
	MaxEpochs     int // cap on the fixed timed epochs (0 = none)
	SLORequests   int // trace length of one SLO-search probe
	Setups        int // set-up repetitions behind the setup_s median
}

var (
	fullSizes  = sizes{ProductsScale: 40, PapersScale: 1000, SLORequests: 20000, Setups: 3}
	shortSizes = sizes{ProductsScale: 2000, PapersScale: 50000, MaxRequests: 2000, MaxEpochs: 2,
		SLORequests: 1000, Setups: 1}
)

func capped(full, limit int) int {
	if limit > 0 && full > limit {
		return limit
	}
	return full
}

func (sz sizes) requests(full int) int { return capped(full, sz.MaxRequests) }
func (sz sizes) epochs(full int) int   { return capped(full, sz.MaxEpochs) }

// workloads returns the three benchmark workloads at the given size.
func workloads(sz sizes) []workload {
	products := datagen.OGBNProducts.Scaled(sz.ProductsScale)
	papersNarrow := datagen.OGBNPapers100M
	papersNarrow.FeatDims = []int{128, 32, 172}
	papersNarrow = papersNarrow.Scaled(sz.PapersScale)
	sage := gnn.Config{Kind: gnn.SAGE, Dims: []int{100, 256, 47}}
	hetero, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		panic(err) // both kinds are accelerators: only a bug in hw can fail this
	}

	return []workload{
		{
			Name: "fpga-hot",
			Why:  "paper-default FPGA training (accel kernels + GEMM dominate, DRM live) then a Zipf-hot cached stream (hit rate 0.85: cache, batcher and event loop at their largest share)",
			Train: trainSpec{
				Name: "train-products-fpga", Data: products, Model: sage,
				Plat: hw.CPUFPGAPlatform(), Batch: 1024, DRM: true,
				Epochs: sz.epochs(4),
			},
			Serve: serveSpec{
				Name: "serve-hot-zipf", Plat: hw.CPUFPGAPlatform(), Workers: 2,
				WindowSec: 0.5e-3, CacheSize: 16384, CacheShards: 1,
				SLO: "interactive=2,standard=2,bulk=2", Zipf: 1.1,
				Requests: sz.requests(100000), Replays: 3,
			},
		},
		{
			Name: "gpu-lean",
			Why:  "sparse graph, narrow GCN, prefetch pipeline (sampler + gather matter, DRM off) then uncached uniform requests (every request samples, gathers, propagates)",
			Train: trainSpec{
				Name: "train-papers-narrow-prefetch", Data: papersNarrow,
				Model: gnn.Config{Kind: gnn.GCN, Dims: papersNarrow.FeatDims},
				Plat:  hw.CPUGPUPlatform(), Batch: 1024, DRM: false,
				Pipeline: core.PipelinePrefetch, Epochs: sz.epochs(8),
			},
			Serve: serveSpec{
				Name: "serve-cold-uniform", Plat: hw.CPUGPUPlatform(), Workers: 2,
				WindowSec: 0.5e-3, CacheSize: 0,
				SLO: "interactive=2,standard=2,bulk=2", Zipf: 0,
				Requests: sz.requests(40000), Replays: 3,
			},
		},
		{
			Name: "scaleout-faulted",
			Why:  "two-node training (partitioner, ring all-reduce, remote rows, two engines sharing the cores) then a cohort mix on a faulted GPU+FPGA+CPU fleet with a small evicting cache",
			Train: trainSpec{
				Name: "train-products-multinode", Data: products, Model: sage,
				Plat: hw.CPUGPUPlatform(), Batch: 256, DRM: true, Nodes: 2,
				Epochs: sz.epochs(6),
			},
			Serve: serveSpec{
				Name:    "serve-slo-faulted",
				Plat:    hetero,
				CPUPeer: true, SmallBatchCut: 4, WindowSec: 1e-3,
				CacheSize: 2048, CacheShards: 4, Formation: serve.FormationPriority,
				SLO: "interactive=2,standard=10", Cohorts: faultedCohorts,
				Faults:   faultedSchedule,
				Requests: sz.requests(60000), Replays: 3,
			},
		},
	}
}

// faultedCohorts is the serve-slo-faulted mix. The etl cohort is class
// standard, not bulk: degraded-mode admission sheds every bulk request after
// a fail-stop, and the contract asks for workloads on which no operation
// fails. The fail-stop, re-split admission caps and health-aware routing
// still run; only the shed branch is left to internal/serve's own tests.
func faultedCohorts(rate float64) []serve.Cohort {
	return []serve.Cohort{
		{Name: "web", Class: serve.ClassInteractive, Dist: serve.DistPoisson,
			RatePerSec: 0.25 * rate, Zipf: 1.1,
			Phases: []serve.RatePhase{{DurationSec: 0.05, Mult: 2}, {DurationSec: 0.05, Mult: 0.5}}},
		{Name: "api", Class: serve.ClassStandard, Dist: serve.DistGamma, Shape: 0.5,
			RatePerSec: 0.45 * rate, Zipf: 1.1},
		{Name: "etl", Class: serve.ClassStandard, Dist: serve.DistWeibull, Shape: 0.7,
			RatePerSec: 0.30 * rate, Zipf: 0.8},
	}
}

// faultedSchedule slows worker 0 (the GPU) 3× over 10–20 % of the span,
// then stalls worker 1 (the FPGA) for 10 ms and fail-stops it at 40 %.
func faultedSchedule(span float64) string {
	failAt := 0.4 * span
	return fmt.Sprintf("slow,worker=0,from=%g,to=%g,factor=3;stall,worker=1,from=%g,to=%g;fail,worker=1,at=%g",
		0.1*span, 0.2*span, math.Max(0, failAt-0.01), failAt, failAt)
}

func workloadByName(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

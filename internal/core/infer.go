package core

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// InferConfig assembles one serving worker's pipeline.
type InferConfig struct {
	Plat hw.Platform
	Data *datagen.Dataset
	// Model is the trained model the worker serves. It is shared between
	// workers and read-only during serving.
	Model   *gnn.Model
	Fanouts []int
	// Device selects the propagation device: 0 is the host CPU peer, i > 0
	// is Plat.Accels[i-1] (features then cross that device's own host link,
	// as in training). The worker is *bound* to this device: FPGA-kind
	// devices charge the §IV-C dataflow's cycle account of each batch,
	// framework-driven devices (Device.LoaderGBs) gather features through
	// their own loader stack, and every device carries its inference-stack
	// overheads (perfmodel.ServingOverheads). The logits are the reference
	// forward's on every device.
	Device int
	// SampThreads/LoadThreads are the CPU threads charged for sampling and
	// feature gathering; zero defaults to a quarter of the cores each, the
	// training runtime's initial split.
	SampThreads, LoadThreads int
	// QuantizeTransfer int8-quantizes accelerator-bound features on the PCIe
	// link, with the real rounding error injected (as in training).
	QuantizeTransfer bool
	Seed             uint64
}

// InferResult is one served batch: the computed logits (row i answers
// targets[i]) and the virtual stage times the batch cost.
type InferResult struct {
	Stage     perfmodel.StageTimes
	Logits    *tensor.Matrix
	Targets   []int32
	Edges     float64 // edges traversed by fanout sampling
	InputRows int     // feature rows layer 0 reads (|V0|), staged or in place
	// FPGA carries the dataflow's hardware account of the batch when it ran
	// on an FPGA-bound worker (nil otherwise).
	FPGA *accel.ForwardStats
}

// InferencePipeline is the serving-side counterpart of the training
// StageExecutor: one worker's sample → gather → transfer → propagate
// pipeline over the shared runtime layers, bound to one device the way a
// trainer is. Real numeric propagation runs through the same gnn
// layer kernels as training on every device; virtual time is charged by the
// same perfmodel primitives — on an FPGA-bound worker, the accel dataflow's
// cycle account, as training's propSec charges — and composed by the same
// max-plus perfmodel.Pipeline, so serving latency and training throughput
// are priced on one clock.
type InferencePipeline struct {
	cfg     InferConfig
	dev     hw.Device
	backend *accel.Backend // non-nil iff the bound device is FPGA-kind
	pm      *perfmodel.Model
	smp     *sampler.Sampler
	clock   perfmodel.Pipeline
	rng     *tensor.RNG
	// ws is the worker's numeric arena: every propagation intermediate of a
	// batch borrows from it (and, on an accelerator under QuantizeTransfer,
	// the staged int8 round trip of its feature rows — every other worker
	// reads the feature table in place), and RunBatch resets it at batch
	// entry — so the steady-state numeric path of a serving worker allocates
	// nothing once the arena has grown to the largest batch.
	ws *tensor.Workspace
	// mb/sizes are RunBatch's retained sampling and pricing scratch, rebuilt
	// in place per batch (the same reuse discipline as ws; results that
	// borrow them are valid until the next RunBatch).
	mb    sampler.MiniBatch
	sizes perfmodel.Sizes
	// res is RunBatch's retained result (the contract already scopes a
	// result's validity to the next RunBatch, so the header is reused too —
	// the serving loop's last per-batch allocation).
	res InferResult
	// svcSec memoizes ServiceSec by computed-target count (NaN = unfilled).
	// The count is bounded by the serving batcher's size cap, so a small
	// dense slice replaces the map the serving router used to consult on
	// every dispatch — no hashing, no map overhead, no allocation.
	svcSec []float64
}

// NewInferencePipeline validates the configuration and builds one worker.
func NewInferencePipeline(cfg InferConfig) (*InferencePipeline, error) {
	if cfg.Data == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if err := checkFeatures(cfg.Data, cfg.Model.Cfg.Dims[0]); err != nil {
		return nil, err
	}
	if len(cfg.Fanouts) != cfg.Model.Cfg.Layers() {
		return nil, fmt.Errorf("core: %d fanouts for %d layers", len(cfg.Fanouts), cfg.Model.Cfg.Layers())
	}
	if cfg.Device < 0 || cfg.Device > len(cfg.Plat.Accels) {
		return nil, fmt.Errorf("core: device %d outside [0,%d]", cfg.Device, len(cfg.Plat.Accels))
	}
	quarter := cfg.Plat.TotalCPUCores() / 4
	if cfg.SampThreads <= 0 {
		cfg.SampThreads = max(1, quarter)
	}
	if cfg.LoadThreads <= 0 {
		cfg.LoadThreads = max(1, quarter)
	}
	work := perfmodel.Workload{
		Spec: cfg.Data.Spec, Model: cfg.Model.Cfg.Kind,
		BatchSize: 1, Fanouts: cfg.Fanouts,
	}
	if cfg.QuantizeTransfer {
		work.TransferBytesPerFeat = 1
	}
	pm, err := perfmodel.New(cfg.Plat, work)
	if err != nil {
		return nil, err
	}
	smp, err := sampler.New(cfg.Data.Graph, cfg.Fanouts, nil)
	if err != nil {
		return nil, err
	}
	p := &InferencePipeline{
		cfg:   cfg,
		dev:   cfg.Plat.CPU,
		pm:    pm,
		smp:   smp,
		clock: perfmodel.Pipeline{TFP: true},
		rng:   tensor.NewRNG(cfg.Seed),
		ws:    tensor.NewWorkspace(),
	}
	if cfg.Device > 0 {
		p.dev = cfg.Plat.Accels[cfg.Device-1]
		if p.dev.Kind == hw.FPGA {
			bk := accel.U250Backend(cfg.Model.Cfg.Dims[0])
			p.backend = &bk
		}
	}
	return p, nil
}

// Model returns the perfmodel pricing this pipeline's virtual charges.
func (p *InferencePipeline) Model() *perfmodel.Model { return p.pm }

// Device returns the hardware this worker is bound to.
func (p *InferencePipeline) Device() hw.Device { return p.dev }

// DeviceIndex returns the binding in InferConfig.Device convention: 0 for
// the CPU peer, i > 0 for Plat.Accels[i-1].
func (p *InferencePipeline) DeviceIndex() int { return p.cfg.Device }

// AvailableAt returns the virtual completion time of the worker's last batch
// (0 when idle since start) — the dispatcher's load signal.
func (p *InferencePipeline) AvailableAt() float64 { return p.clock.Now() }

// PredictBatchStage prices a batch of `computed` cache-missing targets on
// this worker's bound device — the stage vector the router turns into a
// predicted completion time.
func (p *InferencePipeline) PredictBatchStage(computed int) (perfmodel.StageTimes, error) {
	return p.pm.ServingBatchStage(p.cfg.Device, computed, p.cfg.SampThreads, p.cfg.LoadThreads)
}

// ServiceSec returns the predicted serial service time of a batch of
// `computed` cache-missing targets on this worker's device, memoized in a
// dense slice. The first call per count prices the batch (which allocates
// its stage rows); every later call is a bounds check and a load — callers
// that prefill counts 1..MaxBatch at construction keep the dispatch hot
// path allocation-free.
func (p *InferencePipeline) ServiceSec(computed int) (float64, error) {
	if computed < 0 {
		return 0, fmt.Errorf("core: negative computed-target count %d", computed)
	}
	if computed >= len(p.svcSec) {
		grown := make([]float64, computed+1)
		copy(grown, p.svcSec)
		for i := len(p.svcSec); i < len(grown); i++ {
			grown[i] = math.NaN()
		}
		p.svcSec = grown
	}
	if s := p.svcSec[computed]; !math.IsNaN(s) {
		return s, nil
	}
	st, err := p.PredictBatchStage(computed)
	if err != nil {
		return 0, err
	}
	s := perfmodel.ServingServiceSec(st)
	p.svcSec[computed] = s
	return s, nil
}

// RunBatch samples the L-hop fanout of the target vertices and propagates
// only that subgraph, reading its input features from the dataset's table in
// place (staging a quantized copy only on an accelerator under
// QuantizeTransfer), returning the logits
// and the virtual stage times of the batch. The returned Logits (and the
// rest of the result's matrices) borrow the worker's arena, and Targets
// borrows the worker's retained mini-batch: all of it is valid until this
// pipeline's next RunBatch, so callers that outlive the batch (the serving
// cache does) copy the rows they keep.
func (p *InferencePipeline) RunBatch(targets []int32) (*InferResult, error) {
	p.ws.Reset()
	if err := p.smp.SampleInto(&p.mb, targets, p.rng); err != nil {
		return nil, err
	}
	mb := &p.mb
	res := &p.res
	*res = InferResult{
		Targets:   mb.Targets,
		Edges:     float64(mb.EdgesTraversed()),
		InputRows: len(mb.InputNodes()),
	}
	x, rows := p.cfg.Data.Features, mb.InputNodes()
	if p.cfg.Device > 0 && p.cfg.QuantizeTransfer {
		// The device computes on the int8 round trip of its rows: stage them.
		x = p.ws.Get(len(rows), x.Cols)
		tensor.GatherRows(x, p.cfg.Data.Features, rows)
		tensor.QuantizeRoundTrip(x) // inject the real int8 loss
		rows = nil
	}
	logits, err := p.cfg.Model.InferMiniBatchRowsWS(p.ws, mb, x, rows)
	if err != nil {
		return nil, err
	}
	res.Logits = logits
	forwardSec := -1.0 // priced analytically unless the device accounts itself
	if p.backend != nil {
		// FPGA worker: the clock is charged the scatter-gather + systolic
		// dataflow's cycle account of this batch's blocks, not the analytic
		// Eq. 10 — the account training's propSec charges too (serving has
		// no backward half).
		stats, err := p.backend.Account(p.cfg.Model.Cfg, mb)
		if err != nil {
			return nil, fmt.Errorf("core: fpga serving worker: %w", err)
		}
		forwardSec = stats.Sec
		res.FPGA = stats
	}
	res.Stage = p.pm.ServingStageFor(p.cfg.Device, sizesInto(&p.sizes, mb), res.Edges,
		p.cfg.SampThreads, p.cfg.LoadThreads, forwardSec)
	return res, nil
}

// CompleteAfter pushes a batch's stage times through the worker's pipeline
// clock, starting no earlier than ready, and returns the virtual completion
// time. Consecutive batches overlap stage-wise exactly as training
// iterations do (sampling batch k+1 runs while batch k propagates).
func (p *InferencePipeline) CompleteAfter(ready float64, st perfmodel.StageTimes) float64 {
	return p.clock.AdvanceAfter(ready, st)
}

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

// InferResult is one served batch: the virtual stage times the batch cost,
// what its sample held, and — once Propagate has run — the computed logits
// (row i answers targets[i]). Sample fills every field but Logits; Propagate
// writes only Logits.
//
// The result lives in one of its pipeline's two batch slots, beside the
// mini-batch Targets borrows and the arena Logits borrows: all three are
// valid until the pipeline's next-but-one Sample, which rebuilds the slot.
type InferResult struct {
	Stage     perfmodel.StageTimes
	Logits    *tensor.Matrix
	Targets   []int32
	Edges     float64 // edges traversed by fanout sampling
	InputRows int     // feature rows layer 0 reads (|V0|), staged or in place
	// ForwardWork is the numeric forward's work in tensor.FanOut's
	// element-operations (gnn.Model.ForwardWork of the sampled blocks).
	ForwardWork int
	// FPGA carries the dataflow's hardware account of the batch when it ran
	// on an FPGA-bound worker (nil otherwise). It points into the worker's
	// accel.Backend scratch, which the pipeline's next Sample overwrites.
	FPGA *accel.ForwardStats
}

// inferSlot is one batch a pipeline holds: the mini-batch Sample draws into,
// the result it fills, and the arena Propagate's forward borrows from.
type inferSlot struct {
	mb  sampler.MiniBatch
	res InferResult
	ws  *tensor.Workspace
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
//
// A batch runs in two halves: Sample (sampling, the FPGA account and the
// pricing — everything the clock, the router and the serving Stats read)
// and Propagate (the numeric forward into the batch's arena). The pipeline
// holds two batches, each in its own slot — mini-batch, result and arena —
// and Samples fill the slots in turn, the shape of training's iteration ring.
// So a caller may run Propagate on another goroutine — meanwhile pricing and
// clocking this pipeline (ServiceSec, AvailableAt, CompleteAfter), sampling
// its next batch, even propagating that one — but must let it finish before
// its slot is sampled again (the next-but-one Sample) and before reading
// Logits. RunBatch is the two back to back.
type InferencePipeline struct {
	cfg     InferConfig
	dev     hw.Device
	backend *accel.Backend // non-nil iff the bound device is FPGA-kind
	pm      *perfmodel.Model
	smp     *sampler.Sampler
	clock   perfmodel.Pipeline
	rng     *tensor.RNG
	// slots are the two batches, rebuilt in place in turn (next is the one
	// the coming Sample fills), so the steady state allocates nothing once
	// each slot has seen the largest batch. A slot's arena holds every
	// propagation intermediate of its batch (and, on an accelerator under
	// QuantizeTransfer, the staged int8 round trip of its feature rows —
	// every other worker reads the feature table in place); Propagate resets
	// it at entry and Sample never touches it.
	slots [2]inferSlot
	next  int
	// sizes is Sample's retained pricing scratch.
	sizes perfmodel.Sizes
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
	}
	for i := range p.slots {
		p.slots[i].ws = tensor.NewWorkspace()
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
// dense slice that grows by doubling, so prefilling counts 1..n copies O(n)
// entries in O(log n) allocations. The first call per count prices the batch
// (which allocates its stage rows); every later call is a bounds check and a
// load — callers that prefill counts 1..MaxBatch at construction keep the
// dispatch hot path allocation-free.
func (p *InferencePipeline) ServiceSec(computed int) (float64, error) {
	if computed < 0 {
		return 0, fmt.Errorf("core: negative computed-target count %d", computed)
	}
	if computed >= len(p.svcSec) {
		grown := make([]float64, max(computed+1, 2*len(p.svcSec)))
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
// only that subgraph — Sample then Propagate — returning the logits and the
// virtual stage times of the batch. The result, its Logits (which borrow
// the batch's arena) and its Targets (which borrow the batch's mini-batch)
// live in one of the pipeline's two slots: valid until this pipeline's
// next-but-one Sample, so callers that outlive the batch (the serving cache
// does) copy the rows they keep.
func (p *InferencePipeline) RunBatch(targets []int32) (*InferResult, error) {
	res, err := p.Sample(targets)
	if err != nil {
		return nil, err
	}
	if err := p.Propagate(res); err != nil {
		return nil, err
	}
	return res, nil
}

// Sample is a batch's first half: it samples the L-hop fanout of the target
// vertices into the next of the pipeline's two slots, charges an FPGA-bound
// worker the dataflow's account of its blocks, and prices the batch. The
// result carries everything but Logits, which Propagate fills. It makes
// every RNG draw of the batch and never touches an arena. The slot it
// rebuilds is the one the next-but-one previous Sample filled: that batch's
// Propagate must have finished.
func (p *InferencePipeline) Sample(targets []int32) (*InferResult, error) {
	slot := &p.slots[p.next]
	if err := p.smp.SampleInto(&slot.mb, targets, p.rng); err != nil {
		return nil, err
	}
	p.next = 1 - p.next
	mb := &slot.mb
	res := &slot.res
	*res = InferResult{
		Targets:     mb.Targets,
		Edges:       float64(mb.EdgesTraversed()),
		InputRows:   len(mb.InputNodes()),
		ForwardWork: p.cfg.Model.ForwardWork(mb),
	}
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

// Propagate is a batch's second half: the numeric forward over the blocks
// the Sample that returned res drew, reading the input features from the
// dataset's table in place (staging a quantized copy only on an accelerator
// under QuantizeTransfer), into the arena of res's slot. res must be one of
// this pipeline's two results — anything else is an error — and only its
// Logits are written. Propagate reads the shared model and feature table
// and writes only its slot's arena, so pipelines — and the two slots of one
// pipeline — may propagate concurrently, beside this pipeline's Sample of
// the other slot.
func (p *InferencePipeline) Propagate(res *InferResult) error {
	slot := p.slotOf(res)
	if slot == nil {
		return fmt.Errorf("core: Propagate on a result this pipeline's Sample did not return")
	}
	slot.ws.Reset()
	x, rows := p.cfg.Data.Features, slot.mb.InputNodes()
	if p.cfg.Device > 0 && p.cfg.QuantizeTransfer {
		// The device computes on the int8 round trip of its rows: stage them.
		x = slot.ws.Get(len(rows), x.Cols)
		tensor.GatherRows(x, p.cfg.Data.Features, rows)
		tensor.QuantizeRoundTrip(x) // inject the real int8 loss
		rows = nil
	}
	logits, err := p.cfg.Model.InferMiniBatchRowsWS(slot.ws, &slot.mb, x, rows)
	if err != nil {
		return err
	}
	res.Logits = logits
	return nil
}

// slotOf returns the slot whose result res is (nil: none of them).
func (p *InferencePipeline) slotOf(res *InferResult) *inferSlot {
	for i := range p.slots {
		if res == &p.slots[i].res {
			return &p.slots[i]
		}
	}
	return nil
}

// CompleteAfter pushes a batch's stage times through the worker's pipeline
// clock, starting no earlier than ready, and returns the virtual completion
// time. Consecutive batches overlap stage-wise exactly as training
// iterations do (sampling batch k+1 runs while batch k propagates) — on the
// virtual clock, and in the serving loop on the wall clock too, which runs a
// large batch's Propagate on the worker's own goroutine while it samples the
// worker's next batch into the other slot.
func (p *InferencePipeline) CompleteAfter(ready float64, st perfmodel.StageTimes) float64 {
	return p.clock.AdvanceAfter(ready, st)
}

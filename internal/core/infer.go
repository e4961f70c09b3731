package core

import (
	"fmt"
	"math"
	"math/bits"

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
	// forward's on every device. Sampling and feature gathering are charged
	// to a quarter of Plat's cores each (perfmodel.ServingStageFor).
	Device int
	Seed   uint64
}

// InferResult is one served batch: the virtual stage times the batch cost,
// what its sample held, and — once Propagate has run — the computed logits
// (row i answers targets[i]). Sample fills every field but Logits; Propagate
// writes only Logits.
//
// The result lives in one of its pipeline's inferDepth batch slots, beside
// the mini-batch Targets borrows and the logits buffer Logits borrows: all
// three are valid until the pipeline's inferDepth-th next Sample, which
// rebuilds the slot.
type InferResult struct {
	Stage   perfmodel.StageTimes
	Logits  *tensor.Matrix
	Targets []int32
	Edges   float64 // edges traversed by fanout sampling
	// FPGA carries the dataflow's hardware account of the batch when it ran
	// on an FPGA-bound worker (nil otherwise). It points into the worker's
	// accel.Backend scratch, which the pipeline's next Sample overwrites.
	FPGA *accel.ForwardStats
}

// inferDepth is how many batches a pipeline holds, one per slot. A serving
// worker keeps up to inferDepth forwards outstanding on its executor (see
// serve's worker), so the event loop rarely waits on one or wakes an idle
// goroutine. On the benchmark's fpga-hot (2-core Xeon), serving wall
// throughput over the depth-2 ring read +44 % at depth 4, +66 % at 8 and
// +77 % at 16, but sixteen slots do not all warm up within the serving
// zero-allocation gate's warm-up, and eight do (README, "Forwards leave the
// event loop whenever the worker has room").
const inferDepth = 8

// inferSlot is one batch a pipeline holds: the mini-batch Sample draws into,
// the result it fills, and the logits Propagate copies out of its arena.
// reserved is the target count the mini-batch and logits are sized for, need
// what the slot's last forward asked of its arena.
type inferSlot struct {
	mb       sampler.MiniBatch
	res      InferResult
	logits   tensor.Matrix
	reserved int
	need     tensor.Demand
}

// InferencePipeline is the serving-side counterpart of the training
// stageExecutor: one worker's sample → gather → transfer → propagate
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
// and Propagate (the numeric forward, in an arena its caller owns). The
// pipeline holds inferDepth batches, each in its own slot — mini-batch,
// result and logits — and Samples fill the slots in turn, the shape of
// training's iteration ring. So a caller may run Propagate on another
// goroutine, in that goroutine's arena — meanwhile pricing and clocking this
// pipeline (ServiceSec, AvailableAt, CompleteAfter), sampling its next
// batches, even propagating those in its own arena — but must let it finish
// before its slot is sampled again (the inferDepth-th next Sample) and
// before reading Logits. RunBatch is the two back to back.
type InferencePipeline struct {
	cfg     InferConfig
	dev     hw.Device
	backend *accel.Backend // non-nil iff the bound device is FPGA-kind
	pm      *perfmodel.Model
	smp     *sampler.Sampler
	clock   perfmodel.Pipeline
	rng     *tensor.RNG
	// slots are the held batches, rebuilt in place in turn (next is the one
	// the coming Sample fills). Sample sizes a slot — the mini-batch by the
	// fanout bound, the logits exactly — for capTargets: the most targets any
	// Sample has drawn, rounded up to a power of two, so a batch size that
	// creeps up regrows the ring a few times rather than once per target, no
	// slot finds its own high-water mark one allocation at a time, and the
	// steady state allocates nothing.
	slots      [inferDepth]inferSlot
	next       int
	capTargets int
	// ws is the arena of the goroutine that calls Sample (Arena). Propagate's
	// caller brings an arena: a forward's intermediates live only until its
	// logits are copied into the slot, so one arena per goroutine serves
	// every slot. Another goroutine's arena may run most of the forwards, so
	// Sample sizes ws for the largest forward any slot has run (roof, read
	// from a slot only once its forward is finished, when Sample rebuilds
	// it).
	ws   *tensor.Workspace
	roof tensor.Demand
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
	work := perfmodel.Workload{Spec: datagen.Spec{FeatDims: cfg.Model.Cfg.Dims}, BatchSize: 1, Fanouts: cfg.Fanouts}
	if err := work.Validate(); err != nil {
		return nil, err
	}
	if cfg.Device < 0 || cfg.Device > len(cfg.Plat.Accels) {
		return nil, fmt.Errorf("core: device %d outside [0,%d]", cfg.Device, len(cfg.Plat.Accels))
	}
	pm, err := perfmodel.New(cfg.Plat, perfmodel.Workload{
		Spec: cfg.Data.Spec, Model: cfg.Model.Cfg.Kind,
		BatchSize: 1, Fanouts: cfg.Fanouts,
	})
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

// Depth returns how many batches the pipeline holds: a result stays valid
// until the Depth()-th next Sample.
func (p *InferencePipeline) Depth() int { return len(p.slots) }

// Arena returns the pipeline's own arena, for Propagates on the goroutine
// that calls Sample (RunBatch's). Sample keeps it sized for the largest
// forward any of the pipeline's slots has run, in whichever arena.
func (p *InferencePipeline) Arena() *tensor.Workspace { return p.ws }

// DeviceIndex returns the binding in InferConfig.Device convention: 0 for
// the CPU peer, i > 0 for Plat.Accels[i-1].
func (p *InferencePipeline) DeviceIndex() int { return p.cfg.Device }

// AvailableAt returns the virtual completion time of the worker's last batch
// (0 when idle since start) — the dispatcher's load signal.
func (p *InferencePipeline) AvailableAt() float64 { return p.clock.Now() }

// predictBatchStage prices a batch of `computed` cache-missing targets on
// this worker's bound device — the stage vector the router turns into a
// predicted completion time.
func (p *InferencePipeline) predictBatchStage(computed int) (perfmodel.StageTimes, error) {
	return p.pm.ServingBatchStage(p.cfg.Device, computed)
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
	st, err := p.predictBatchStage(computed)
	if err != nil {
		return 0, err
	}
	s := perfmodel.ServingServiceSec(st)
	p.svcSec[computed] = s
	return s, nil
}

// RunBatch samples the L-hop fanout of the target vertices and propagates
// only that subgraph — Sample then Propagate, in the pipeline's own arena —
// returning the logits and the virtual stage times of the batch. The result,
// its Logits and its Targets live in one of the pipeline's Depth() slots:
// valid until this pipeline's Depth()-th next Sample, so callers that
// outlive the batch (the serving cache does) copy the rows they keep.
func (p *InferencePipeline) RunBatch(targets []int32) (*InferResult, error) {
	res, err := p.Sample(targets)
	if err != nil {
		return nil, err
	}
	if err := p.Propagate(p.Arena(), res); err != nil {
		return nil, err
	}
	return res, nil
}

// Sample is a batch's first half: it samples the L-hop fanout of the target
// vertices into the next of the pipeline's Depth() slots, charges an
// FPGA-bound worker the dataflow's account of its blocks, and prices the
// batch. The result carries everything but Logits, which Propagate fills. It
// makes every RNG draw of the batch and never touches an arena. The slot it
// rebuilds is the one the Depth()-th previous Sample filled: that batch's
// Propagate must have finished.
func (p *InferencePipeline) Sample(targets []int32) (*InferResult, error) {
	slot := &p.slots[p.next]
	if len(targets) > p.capTargets {
		p.capTargets = 1 << bits.Len(uint(len(targets)-1))
	}
	if slot.reserved < p.capTargets {
		p.smp.Reserve(&slot.mb, p.capTargets)
		dims := p.cfg.Model.Cfg.Dims
		slot.logits.Data = make([]float32, 0, p.capTargets*dims[len(dims)-1])
		slot.reserved = p.capTargets
	}
	p.roof = tensor.Demand{F32: max(p.roof.F32, slot.need.F32), I32: max(p.roof.I32, slot.need.I32)}
	p.ws.Expect(p.roof)
	if err := p.smp.SampleInto(&slot.mb, targets, p.rng); err != nil {
		return nil, err
	}
	p.next = (p.next + 1) % len(p.slots)
	mb := &slot.mb
	res := &slot.res
	*res = InferResult{Targets: mb.Targets, Edges: float64(mb.EdgesTraversed())}
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
	res.Stage = p.pm.ServingStageFor(p.cfg.Device, sizesInto(&p.sizes, mb), res.Edges, forwardSec)
	return res, nil
}

// Propagate is a batch's second half: the numeric forward over the blocks
// the Sample that returned res drew, reading the input features from the
// dataset's table in place, in the arena ws, which it resets at entry. The
// logits are copied out of ws into res's slot, so ws is free again when
// Propagate returns. res must be one of this pipeline's results — anything
// else is an error — and only its Logits are written. Propagate reads the
// shared model and feature table and writes only ws and res's slot, so
// pipelines — and the slots of one pipeline — may propagate concurrently in
// distinct arenas, beside this pipeline's Sample of another slot.
func (p *InferencePipeline) Propagate(ws *tensor.Workspace, res *InferResult) error {
	slot := p.slotOf(res)
	if slot == nil {
		return fmt.Errorf("core: Propagate on a result this pipeline's Sample did not return")
	}
	ws.Reset()
	logits, err := p.cfg.Model.InferMiniBatchRowsWS(ws, &slot.mb, p.cfg.Data.Features, slot.mb.InputNodes())
	slot.need = ws.Demand()
	if err != nil {
		return err
	}
	out := &slot.logits
	out.Rows, out.Cols = logits.Rows, logits.Cols
	out.Data = append(out.Data[:0], logits.Data...)
	res.Logits = out
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
// virtual clock, and in the serving loop on the wall clock too, which hands
// a batch's Propagate to one of its executor goroutines, whenever there is
// room, while it samples the worker's next batches into the other slots.
func (p *InferencePipeline) CompleteAfter(ready float64, st perfmodel.StageTimes) float64 {
	return p.clock.AdvanceAfter(ready, st)
}

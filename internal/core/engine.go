package core

import (
	"fmt"
	"io"

	"repro/internal/accel"
	"repro/internal/datagen"
	"repro/internal/drm"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/optim"
	"repro/internal/perfmodel"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// Engine is the runtime: the replica fleet and the composable layers that
// drive it (clock, stage executor, gradient sync).
type Engine struct {
	cfg      Config
	pm       *perfmodel.Model
	drmEng   *drm.Engine
	smp      *sampler.Sampler
	saint    *sampler.SaintSampler // non-nil when Config.UseSaint
	batcher  *sampler.Batcher
	replicas []*gnn.Model // replica 0 = CPU trainer, 1..n = accelerators
	// backends is aligned with Plat.Accels: the §IV-C dataflow account of
	// each FPGA-kind device, nil for every other kind. Only prepare calls it.
	backends []*accel.Backend
	opts     []*optim.SGD
	assign   perfmodel.Assignment
	rng      *tensor.RNG
	epoch    int

	clock   perfmodel.Pipeline
	exec    StageExecutor
	gsync   GradientSync
	locator FeatureLocator

	// slots is the iteration-scratch ring, created lazily: each entry holds
	// everything one in-flight iteration needs (share slices, retained
	// mini-batches SampleInto refills, each trainer's layer-0 input — the
	// feature table read in place, or a quantized accelerator share's staging
	// arena — per-accelerator stage vectors, the result struct). Inline
	// prepares use slot 0 only; the prefetch worker's schedule uses the
	// depth-2 ring so prepare(i+1) fills one slot while the trainers still
	// read the other. Together with the trainer pool the slots make
	// the whole steady-state training iteration — sample, price, propagate —
	// allocation-free (gated by a test).
	slots [pipelineDepth]*iterSlot

	// pool is compute's trainer pool: the step arenas (one per worker, not
	// per trainer), each trainer's gradient and the fold's scratch.
	pool trainerPool

	// prefetch is the per-engine channel pair the epoch loop's prepare
	// worker lives on, created on the first worker-backed epoch and reused
	// after (the worker itself is per-epoch so an idle engine holds no
	// goroutine).
	prefetch *prefetcher

	// eval* is Evaluate(nil)'s persistent scratch: a generation-stamped
	// membership stamp over all vertices (same trick as sampler.SampleInto)
	// and the reused held-out index slice.
	evalGen  uint32
	evalSeen []uint32
	evalIdx  []int32
}

// slot returns ring entry i, creating it on first use.
func (e *Engine) slot(i int) *iterSlot {
	if e.slots[i] == nil {
		e.slots[i] = &iterSlot{}
	}
	return e.slots[i]
}

// NewEngine validates the configuration and builds the runtime: one model
// replica per trainer (identically initialised — synchronous SGD keeps them
// in lock-step), the design-phase task mapping from the performance model,
// the DRM engine when enabled, and the runtime layers (defaulting to the
// single-node pipeline clock and identity gradient sync).
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Data == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	if cfg.LR <= 0 {
		return nil, fmt.Errorf("core: non-positive learning rate %v", cfg.LR)
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("core: non-positive batch size %d", cfg.BatchSize)
	}
	if cfg.Pipeline != PipelineSerial && cfg.Pipeline != PipelinePrefetch {
		return nil, fmt.Errorf("core: unknown pipeline mode %d", int(cfg.Pipeline))
	}
	if len(cfg.Model.Dims) < 2 {
		return nil, fmt.Errorf("core: model needs at least 2 dims, got %v", cfg.Model.Dims)
	}
	if err := checkFeatures(cfg.Data, cfg.Model.Dims[0]); err != nil {
		return nil, err
	}
	numClasses := cfg.Model.Dims[len(cfg.Model.Dims)-1]
	for _, l := range cfg.Data.Labels {
		if l < 0 || int(l) >= numClasses {
			return nil, fmt.Errorf("core: label %d outside model's %d classes", l, numClasses)
		}
	}
	work := perfmodel.Workload{
		Spec: cfg.Data.Spec, Model: cfg.Model.Kind,
		BatchSize: cfg.BatchSize, Fanouts: cfg.Fanouts,
	}
	if cfg.QuantizeTransfer {
		work.TransferBytesPerFeat = 1
	}
	pm, err := perfmodel.New(cfg.Plat, work)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	smp, err := sampler.New(cfg.Data.Graph, cfg.Fanouts, cfg.Data.Labels)
	if err != nil {
		return nil, err
	}
	var saint *sampler.SaintSampler
	if cfg.UseSaint {
		saint, err = sampler.NewSaint(cfg.Data.Graph, cfg.BatchSize, 3,
			len(cfg.Model.Dims)-1, cfg.Data.Labels)
		if err != nil {
			return nil, err
		}
	}
	batcher, err := sampler.NewBatcher(cfg.Data.TrainIdx, effectiveTotalBatch(cfg), rng.Split())
	if err != nil {
		return nil, err
	}
	nTrainers := 1 + len(cfg.Plat.Accels) // CPU replica always exists; unused if !Hybrid
	replicas := make([]*gnn.Model, nTrainers)
	opts := make([]*optim.SGD, nTrainers)
	initRNG := rng.Split()
	m0, err := gnn.NewModel(cfg.Model, initRNG)
	if err != nil {
		return nil, err
	}
	for i := range replicas {
		replicas[i] = &gnn.Model{Cfg: cfg.Model, Params: m0.Params.Clone()}
		opt, err := optim.NewSGD(cfg.LR, cfg.Momentum)
		if err != nil {
			return nil, err
		}
		opts[i] = opt
	}
	backends := make([]*accel.Backend, len(cfg.Plat.Accels))
	for i, dev := range cfg.Plat.Accels {
		if dev.Kind == hw.FPGA {
			bk := accel.U250Backend(cfg.Model.Dims[0])
			backends[i] = &bk
		}
	}
	e := &Engine{
		cfg: cfg, pm: pm, smp: smp, saint: saint, batcher: batcher,
		replicas: replicas, pool: newTrainerPool(nTrainers, m0.Params), backends: backends,
		opts: opts, rng: rng,
		assign:  pm.InitialAssignment(cfg.Hybrid),
		clock:   perfmodel.Pipeline{TFP: cfg.TFP, Networked: cfg.networked()},
		gsync:   cfg.Sync,
		locator: cfg.Locator,
	}
	if e.gsync == nil {
		e.gsync = localSync{}
	}
	e.exec = &hybridExecutor{e: e}
	if cfg.DRM {
		e.drmEng = drm.New(cfg.Plat.TotalCPUCores())
		e.drmEng.FusedPrefetch = !cfg.TFP
	}
	return e, nil
}

// checkFeatures validates a dataset's feature table against its graph and
// the model's input width. Layer 0 reads the table in place at every sampled
// vertex's row — on trainer goroutines and kernel fan-out workers, where an
// index panic kills the process — so a table that does not cover the graph is
// an error here, not a panic mid-epoch.
func checkFeatures(d *datagen.Dataset, f0 int) error {
	if d.Features.Rows != d.Graph.NumVertices {
		return fmt.Errorf("core: dataset has %d feature rows for %d graph vertices",
			d.Features.Rows, d.Graph.NumVertices)
	}
	if d.Features.Cols != f0 {
		return fmt.Errorf("core: dataset features are %d-dim, model expects %d", d.Features.Cols, f0)
	}
	return nil
}

// Assignment returns the current task mapping (after any DRM moves).
func (e *Engine) Assignment() perfmodel.Assignment { return e.assign.Clone() }

// Params returns trainer 0's parameters (all replicas are identical; the
// invariant is checked by ReplicasInSync).
func (e *Engine) Params() *gnn.Parameters { return e.replicas[0].Params }

// Evaluate runs exact full-graph inference with the trained weights and
// returns accuracy over idx (pass nil to evaluate every non-training
// vertex — the held-out set).
func (e *Engine) Evaluate(idx []int32) (float64, error) {
	if idx == nil {
		idx = e.heldOut()
	}
	return e.replicas[0].Evaluate(e.cfg.Data.Graph, e.cfg.Data.Features, e.cfg.Data.Labels, idx)
}

// heldOut returns every non-training vertex, into scratch reused across
// calls. Training-set membership is tracked with a generation-stamped array
// rather than a per-call map (the same trick as sampler.SampleInto): bumping
// evalGen invalidates the previous call's stamps in O(1), so repeated
// evaluation — the epoch loop's per-epoch accuracy probe — allocates nothing
// after the first call.
func (e *Engine) heldOut() []int32 {
	n := e.cfg.Data.Graph.NumVertices
	if len(e.evalSeen) < n {
		e.evalSeen = make([]uint32, n)
		e.evalIdx = make([]int32, 0, n)
	}
	e.evalGen++
	if e.evalGen == 0 { // wrapped: stale stamps could collide, clear and restart
		for i := range e.evalSeen {
			e.evalSeen[i] = 0
		}
		e.evalGen = 1
	}
	for _, v := range e.cfg.Data.TrainIdx {
		e.evalSeen[v] = e.evalGen
	}
	idx := e.evalIdx[:0]
	for v := int32(0); int(v) < n; v++ {
		if e.evalSeen[v] != e.evalGen {
			idx = append(idx, v)
		}
	}
	e.evalIdx = idx
	return idx
}

// SaveModel writes a checkpoint of the trained weights.
func (e *Engine) SaveModel(w io.Writer) error { return e.replicas[0].Save(w) }

// ReplicasInSync reports the maximum parameter divergence across replicas —
// zero when the synchronous-SGD protocol is working.
func (e *Engine) ReplicasInSync() float64 {
	var worst float64
	ref := e.replicas[0].Params
	for _, r := range e.replicas[1:] {
		for l := range ref.Weights {
			if d := ref.Weights[l].MaxAbsDiff(r.Params.Weights[l]); d > worst {
				worst = d
			}
			if d := ref.Biases[l].MaxAbsDiff(r.Params.Biases[l]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

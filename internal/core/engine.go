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
	"repro/internal/trace"
)

// Engine is the runtime: the one parameter set every trainer steps, and the
// composable layers that drive it (clock, stage executor, gradient sync).
type Engine struct {
	cfg     Config
	pm      *perfmodel.Model
	drmEng  *drm.Engine
	smp     *sampler.Sampler
	batcher *sampler.Batcher
	// model is the node's parameter set. Trainer 0 (the CPU) and trainers
	// 1..n (the accelerators) all step it: the accelerators are clock charges
	// whose numerics run on the host, so n bit-identical replicas would only
	// be n copies to keep equal. The pool's workers read it concurrently
	// during compute; consumeIteration writes it after the join.
	model *gnn.Model
	opt   *optim.SGD
	// backends is aligned with Plat.Accels: the §IV-C dataflow account of
	// each FPGA-kind device, nil for every other kind. Only prepare calls it.
	backends []*accel.Backend
	assign   perfmodel.Assignment
	rng      *tensor.RNG
	epoch    int

	clock   perfmodel.Pipeline
	exec    stageExecutor
	gsync   GradientSync
	locator FeatureLocator

	// slots is the iteration-scratch ring, created lazily: each entry holds
	// everything one in-flight iteration needs (share slices, retained
	// mini-batches SampleInto refills, per-accelerator stage vectors, the
	// result struct; every trainer reads its layer-0 input from the feature
	// table in place, so no slot stages features). Inline
	// prepares use slot 0 only; the prefetch worker uses the
	// depth-2 ring so prepare(i+1) fills one slot while the trainers still
	// read the other. Together with the trainer pool the slots make
	// the whole steady-state training iteration — sample, price, propagate —
	// allocation-free (gated by a test).
	slots [pipelineDepth]*iterSlot

	// lane is the first of the engine's span lanes (see laneAt), 0 when it
	// was built outside a span recording.
	lane int

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

// Validate checks every rule of c that needs no dataset — the learning rate
// (optim.NewSGD's rule), the pipeline mode, the model's shape
// (gnn.Config.Validate), the workload it describes (perfmodel's rule: a
// positive batch size and one fan-out per layer of the model) and each
// fan-out non-negative (sampler.New's rule) — and names the rejected value
// in its error.
// NewEngine calls it first; a front end calls it to reject a bad
// configuration before it materializes a dataset.
func (c Config) Validate() error {
	if _, err := optim.NewSGD(c.LR); err != nil {
		return err
	}
	if c.Pipeline != PipelineSerial && c.Pipeline != PipelinePrefetch {
		return fmt.Errorf("core: unknown pipeline mode %d", int(c.Pipeline))
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	work := perfmodel.Workload{
		Spec: datagen.Spec{FeatDims: c.Model.Dims}, Model: c.Model.Kind,
		BatchSize: c.BatchSize, Fanouts: c.Fanouts,
	}
	if err := work.Validate(); err != nil {
		return err
	}
	if _, err := sampler.New(nil, c.Fanouts, nil); err != nil {
		return fmt.Errorf("core: Fanouts %v: %w", c.Fanouts, err)
	}
	return nil
}

// NewEngine validates the configuration (Config.Validate, then the dataset
// against the model) and builds the runtime: the model and its optimizer,
// the design-phase task mapping from the performance model, the DRM engine
// when enabled, and the runtime layers (defaulting to the single-node
// pipeline clock and identity gradient sync).
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Data == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	opt, err := optim.NewSGD(cfg.LR)
	if err != nil {
		return nil, err
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
	pm, err := perfmodel.New(cfg.Plat, perfmodel.Workload{
		Spec: cfg.Data.Spec, Model: cfg.Model.Kind,
		BatchSize: cfg.BatchSize, Fanouts: cfg.Fanouts,
	})
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	smp, err := sampler.New(cfg.Data.Graph, cfg.Fanouts, cfg.Data.Labels)
	if err != nil {
		return nil, err
	}
	batcher, err := sampler.NewBatcher(cfg.Data.TrainIdx, effectiveTotalBatch(cfg), rng.Split())
	if err != nil {
		return nil, err
	}
	nTrainers := 1 + len(cfg.Plat.Accels) // the CPU trainer always exists; idle if !Hybrid
	model, err := gnn.NewModel(cfg.Model, rng.Split())
	if err != nil {
		return nil, err
	}
	backends := make([]*accel.Backend, len(cfg.Plat.Accels))
	for i, dev := range cfg.Plat.Accels {
		if dev.Kind == hw.FPGA {
			bk := accel.U250Backend(cfg.Model.Dims[0])
			backends[i] = &bk
		}
	}
	lanes := poolLanes(nTrainers)
	e := &Engine{
		cfg: cfg, pm: pm, smp: smp, batcher: batcher, lane: trace.Lanes(lanes),
		model: model, opt: opt, pool: newTrainerPool(nTrainers, model.Params),
		backends: backends, rng: rng,
		assign:  pm.InitialAssignment(cfg.Hybrid),
		clock:   perfmodel.Pipeline{TFP: cfg.TFP, Networked: cfg.networked()},
		gsync:   cfg.Sync,
		locator: cfg.Locator,
	}
	if e.gsync == nil {
		e.gsync = localSync{}
	}
	for k := 1; k < lanes-lanePrefetch; k++ { // worker 0 is the epoch goroutine; workers past the lanes record on lane 0
		e.pool.workers[k].st.Lane = e.laneAt(lanePrefetch + k)
	}
	e.pool.workers[0].st.Lane = e.lane
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

// Params returns the engine's parameters — every trainer's.
func (e *Engine) Params() *gnn.Parameters { return e.model.Params }

// Evaluate runs exact full-graph inference with the trained weights and
// returns accuracy over idx (pass nil to evaluate every non-training
// vertex — the held-out set).
func (e *Engine) Evaluate(idx []int32) (float64, error) {
	if idx == nil {
		idx = e.heldOut()
	}
	return e.model.Evaluate(e.cfg.Data.Graph, e.cfg.Data.Features, e.cfg.Data.Labels, idx)
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

// saveModel writes a checkpoint of the trained weights.
func (e *Engine) saveModel(w io.Writer) error { return e.model.Save(w) }

// ReplicasInSync reports the parameter divergence across the engine's
// trainers: 0 by construction, since they all step one parameter set. Kept
// for the benchmark's consistency check; the real check is across nodes
// (cluster.MultiNode.ReplicasInSync).
func (e *Engine) ReplicasInSync() float64 { return 0 }

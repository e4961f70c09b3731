package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// epochRunner is one way to run an epoch on an engine: RunEpoch, or one of
// the seams that force the inline path or the prefetch worker.
type epochRunner func(*Engine) (*EpochStats, error)

var (
	runInline epochRunner = (*Engine).runEpochInline
	runWorker epochRunner = (*Engine).runEpochAsync
)

// trainEpochs builds an engine from cfg and runs it for the given number of
// epochs with run, returning the per-epoch stats and the engine.
func trainEpochs(t *testing.T, cfg Config, epochs int, run epochRunner) ([]*EpochStats, *Engine) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]*EpochStats, 0, epochs)
	for i := 0; i < epochs; i++ {
		st, err := run(e)
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
	}
	return stats, e
}

func sameAssignment(a, b perfmodel.Assignment) bool {
	return a.CPUBatch == b.CPUBatch && slices.Equal(a.AccelBatch, b.AccelBatch) &&
		a.SampThreads == b.SampThreads && a.LoadThreads == b.LoadThreads &&
		a.TrainThreads == b.TrainThreads && a.AccelSampleFrac == b.AccelSampleFrac
}

// requireSameTrajectory asserts two runs produced bit-identical training:
// per-epoch loss/accuracy, virtual-clock time and task mapping compared
// exactly, and every parameter matrix compared bitwise.
func requireSameTrajectory(t *testing.T, label string,
	sa, sb []*EpochStats, pa, pb *gnn.Parameters) {
	t.Helper()
	for i := range sa {
		a, b := sa[i], sb[i]
		if a.Loss != b.Loss || a.Accuracy != b.Accuracy {
			t.Fatalf("%s: epoch %d diverged: loss %v vs %v, acc %v vs %v",
				label, i+1, a.Loss, b.Loss, a.Accuracy, b.Accuracy)
		}
		if a.VirtualSec != b.VirtualSec || a.MTEPS != b.MTEPS {
			t.Fatalf("%s: epoch %d virtual clock diverged: %v vs %v sec",
				label, i+1, a.VirtualSec, b.VirtualSec)
		}
		if !sameAssignment(a.Assignment, b.Assignment) {
			t.Fatalf("%s: epoch %d task mapping diverged: %+v vs %+v",
				label, i+1, a.Assignment, b.Assignment)
		}
	}
	for l := range pa.Weights {
		if !pa.Weights[l].Equal(pb.Weights[l]) || !pa.Biases[l].Equal(pb.Biases[l]) {
			t.Fatalf("%s: layer %d parameters diverged bitwise", label, l)
		}
	}
}

// prepare depends only on the batcher/RNG stream and the task mapping —
// never on weights — and the mapping moves only while no prepare is in
// flight, so overlapping prepare(i+1) with compute(i) on the prefetch worker
// must not change a single bit of the inline path's trajectory, DRM off or
// on, at any GOMAXPROCS. 3 epochs × 5 iterations = 15 steps, past the
// ≥10-step bar.
func TestPipelinedBitwiseIdenticalToSerial(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for _, drm := range []bool{false, true} {
				t.Run(fmt.Sprintf("DRM=%v", drm), func(t *testing.T) {
					cfg := baseConfig(t)
					cfg.DRM = drm
					si, ei := trainEpochs(t, cfg, 3, runInline)
					sw, ew := trainEpochs(t, cfg, 3, runWorker)
					requireSameTrajectory(t, "inline vs worker", si, sw, ei.Params(), ew.Params())
					if drm && ew.drmEng.MovesWork+ew.drmEng.MovesThread == 0 {
						t.Fatal("DRM never moved the mapping: the DRM-on leg compared two static runs")
					}
				})
			}
		})
	}
}

// The same invariant must hold on the CPU-only fleet (one trainer, stepped
// inline by compute) and with tensor parallelism enabled — the prefetch worker
// and ParallelRows workers coexist. The default test batch is far below
// tensor's fan-out grain, so this one trains a model and batch big enough
// that compute's GEMMs really split (asserted on the output layer's, whose
// shape the config alone fixes; every other layer's is larger).
func TestPipelinedBitwiseIdenticalSingleTrainer(t *testing.T) {
	prev := tensor.SetParallelism(4)
	defer tensor.SetParallelism(prev)
	dims := []int{96, 144, 16}
	spec := datagen.Spec{Name: "core-fanout", NumVertices: 4500, NumEdges: 300000, FeatDims: dims}
	ds, err := datagen.Materialize(spec, 0.9, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Plat.Accels = nil
	cfg.DRM = false
	cfg.Data, cfg.Model.Dims = ds, dims
	cfg.BatchSize, cfg.Fanouts = 2048, []int{40, 40}
	if tensor.FanOut(cfg.BatchSize, 2*dims[1]*dims[2]) <= 1 {
		t.Fatalf("a %d-target batch's output GEMM is below the fan-out grain; no ParallelRows worker would run", cfg.BatchSize)
	}
	si, ei := trainEpochs(t, cfg, 2, runInline)
	sw, ew := trainEpochs(t, cfg, 2, runWorker)
	requireSameTrajectory(t, "single-trainer inline vs worker", si, sw, ei.Params(), ew.Params())
}

// RunEpoch runs every prepare inline at GOMAXPROCS=1, so the worker hand-off
// is forced here explicitly: with DRM on and a single proc — cooperative
// scheduling at its most adversarial — the worker-backed epochs must still
// match a twin's plain RunEpoch bit for bit.
func TestPipelinedWorkerForcedAtOneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	cfg := baseConfig(t) // DRM on
	sf, forced := trainEpochs(t, cfg, 3, runWorker)
	ss, plain := trainEpochs(t, cfg, 3, (*Engine).RunEpoch)
	if plain.prefetch != nil {
		t.Fatal("RunEpoch started the prefetch worker at GOMAXPROCS=1: the twin compared the worker with itself")
	}
	requireSameTrajectory(t, "forced worker vs RunEpoch", sf, ss, forced.Params(), plain.Params())
}

// The virtual clock is an accounting convention: the schedule must not
// change what an iteration is *charged*, only when its stages run in
// wall-clock. Per-epoch VirtualSec agrees exactly across the inline path,
// RunEpoch as it schedules at this GOMAXPROCS, and the forced worker.
func TestVirtualClockUnchangedByExecutionMode(t *testing.T) {
	si, _ := trainEpochs(t, baseConfig(t), 2, runInline)
	sr, _ := trainEpochs(t, baseConfig(t), 2, (*Engine).RunEpoch)
	sw, _ := trainEpochs(t, baseConfig(t), 2, runWorker)
	for i := range si {
		if si[i].VirtualSec != sr[i].VirtualSec || si[i].VirtualSec != sw[i].VirtualSec {
			t.Fatalf("epoch %d: VirtualSec differs by schedule: inline %v RunEpoch %v worker %v",
				i+1, si[i].VirtualSec, sr[i].VirtualSec, sw[i].VirtualSec)
		}
	}
}

// RunEpoch's one rule: the prefetch worker runs exactly when a second
// processor exists, whatever the vestigial Config.Pipeline says.
func TestRunEpochWorkerFollowsProcessors(t *testing.T) {
	for _, tc := range []struct {
		procs  int
		mode   PipelineMode
		worker bool
	}{
		{2, PipelineSerial, true},
		{1, PipelinePrefetch, false},
	} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", tc.procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(tc.procs)
			defer runtime.GOMAXPROCS(prev)
			cfg := baseConfig(t)
			cfg.Pipeline = tc.mode
			_, e := trainEpochs(t, cfg, 1, (*Engine).RunEpoch)
			if started := e.prefetch != nil; started != tc.worker {
				t.Fatalf("Pipeline %d: prefetch worker started = %v, want %v", tc.mode, started, tc.worker)
			}
		})
	}
}

// mappingRecorder wraps the hybrid executor and watches the engine's task
// mapping from both halves of every iteration. Entries are per slot, so the
// prefetch worker and the orchestrating goroutine never share one.
type mappingRecorder struct {
	*hybridExecutor
	atPrepare    [pipelineDepth]perfmodel.Assignment // the mapping the slot's prepare ran under
	afterCompute perfmodel.Assignment                // the mapping the previous compute left
	computes     int
	moved        int // iterations whose DRM reaction changed the mapping
}

func (r *mappingRecorder) slotIndex(s *iterSlot) int {
	for k, sl := range r.e.slots {
		if sl == s {
			return k
		}
	}
	return -1
}

func (r *mappingRecorder) prepare(s *iterSlot, targets []int32) error {
	entry := &r.atPrepare[r.slotIndex(s)]
	r.e.assign.CloneInto(entry)
	if err := r.hybridExecutor.prepare(s, targets); err != nil {
		return err
	}
	if !sameAssignment(r.e.assign, *entry) {
		// An error, not t.Fatal: this may be the worker's goroutine.
		return fmt.Errorf("the mapping moved under a prepare: %+v at entry, %+v at exit", *entry, r.e.assign)
	}
	return nil
}

func (r *mappingRecorder) compute(s *iterSlot) (*iterResult, error) {
	prepared := r.atPrepare[r.slotIndex(s)]
	// This slot's prepare was issued after the previous iteration's DRM
	// reaction; the previous compute and consume ran since, and neither may
	// have written the mapping.
	if r.computes > 0 && !sameAssignment(prepared, r.afterCompute) {
		return nil, fmt.Errorf("iteration %d prepared under %+v, but the previous compute left %+v: the mapping moved outside the wait→issue window",
			r.computes, prepared, r.afterCompute)
	}
	entry := r.e.assign.Clone()
	if !sameAssignment(entry, prepared) {
		r.moved++ // Adjust, between this slot's wait and the next issue
	}
	res, err := r.hybridExecutor.compute(s)
	if err != nil {
		return nil, err
	}
	if !sameAssignment(r.e.assign, entry) {
		return nil, fmt.Errorf("the mapping moved under compute %d: %+v at entry, %+v at exit", r.computes, entry, r.e.assign)
	}
	r.afterCompute = entry
	r.computes++
	return res, nil
}

// One iteration is priced under one mapping, and the mapping has one writer:
// the live mapping is the same at a prepare's entry and exit, moves only
// between that prepare's wait and the next issue (so it is still across
// compute and consume, which the worker's next prepare overlaps) — inline
// and on the prefetch worker alike.
func TestPipelinedIterationPricedUnderOneSnapshot(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			e, err := NewEngine(baseConfig(t)) // DRM on
			if err != nil {
				t.Fatal(err)
			}
			rec := &mappingRecorder{hybridExecutor: e.exec.(*hybridExecutor)}
			e.exec = rec
			for ep := 0; ep < 3; ep++ {
				if _, err := e.runEpoch(async); err != nil {
					t.Fatal(err)
				}
			}
			if rec.moved == 0 {
				t.Fatalf("DRM never moved the mapping in %d iterations: the test exercised nothing", rec.computes)
			}
		})
	}
}

// panicExecutor is the hybrid executor with a compute that panics at one
// iteration, as a failed t.Fatal inside a wrapped compute does.
type panicExecutor struct {
	*hybridExecutor
	at, iter int
}

func (p *panicExecutor) compute(s *iterSlot) (*iterResult, error) {
	if p.iter == p.at {
		panic("compute failed")
	}
	p.iter++
	return p.hybridExecutor.compute(s)
}

// A panic inside compute on the prefetch worker's schedule must surface. At
// iteration 1 the worker holds prepare(2)'s result and blocks handing it
// back, so an unwinding runIterations that just sent the stop sentinel would
// hang on it — and the panic with it. The deferred path settles the in-flight
// prepare first. The worker is forced so the GOMAXPROCS=1 leg hands off too.
func TestPipelinedComputePanicSurfaces(t *testing.T) {
	e, err := NewEngine(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if iters := e.batcher.BatchesPerEpoch(); iters < 3 {
		t.Fatalf("%d iterations per epoch: nothing is in flight at iteration 1", iters)
	}
	e.exec = &panicExecutor{hybridExecutor: e.exec.(*hybridExecutor), at: 1}
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _ = e.runEpochAsync()
	}()
	select {
	case r := <-recovered:
		if r != "compute failed" {
			t.Fatalf("epoch ended with %v, want compute's panic", r)
		}
	case <-time.After(time.Second):
		t.Fatal("compute's panic did not surface within a second: the epoch hangs stopping its prefetch worker")
	}
}

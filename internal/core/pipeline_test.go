package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// trainEpochs builds an engine from cfg and runs it for the given number of
// epochs, returning the per-epoch stats and the final parameters.
func trainEpochs(t *testing.T, cfg Config, epochs int) ([]*EpochStats, *gnn.Parameters) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]*EpochStats, 0, epochs)
	for i := 0; i < epochs; i++ {
		st, err := e.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
	}
	return stats, e.Params()
}

// requireSameTrajectory asserts two runs produced bit-identical training:
// per-epoch loss/accuracy and virtual-clock time compared exactly, and every
// parameter matrix compared bitwise.
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
	}
	for l := range pa.Weights {
		if !pa.Weights[l].Equal(pb.Weights[l]) || !pa.Biases[l].Equal(pb.Biases[l]) {
			t.Fatalf("%s: layer %d parameters diverged bitwise", label, l)
		}
	}
}

// With DRM off, prepare depends only on the batcher/RNG stream — never on
// weights — so overlapping prepare(i+1) with compute(i) must not change a
// single bit of the trajectory, at any GOMAXPROCS. 3 epochs × 5 iterations
// = 15 steps, past the ≥10-step bar.
func TestPipelinedBitwiseIdenticalToSerial(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			base := func() Config {
				cfg := baseConfig(t)
				cfg.DRM = false
				return cfg
			}
			serial := base()
			serial.Pipeline = PipelineSerial
			ss, ps := trainEpochs(t, serial, 3)

			prefetch := base()
			prefetch.Pipeline = PipelinePrefetch
			sp, pp := trainEpochs(t, prefetch, 3)

			requireSameTrajectory(t, "serial vs prefetch", ss, sp, ps, pp)
		})
	}
}

// The same invariant must hold on the CPU-only fleet (the serial fast path
// inside compute) and with tensor parallelism enabled — the prefetch worker
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
	base := func() Config {
		cfg := baseConfig(t)
		cfg.Plat.Accels = nil
		cfg.DRM = false
		cfg.Data, cfg.Model.Dims = ds, dims
		cfg.BatchSize, cfg.Fanouts = 2048, []int{40, 40}
		return cfg
	}
	if cfg := base(); tensor.FanOut(cfg.BatchSize, 2*dims[1]*dims[2]) <= 1 {
		t.Fatalf("a %d-target batch's output GEMM is below the fan-out grain; no ParallelRows worker would run", cfg.BatchSize)
	}
	serial := base()
	ss, ps := trainEpochs(t, serial, 2)
	prefetch := base()
	prefetch.Pipeline = PipelinePrefetch
	sp, pp := trainEpochs(t, prefetch, 2)
	requireSameTrajectory(t, "single-trainer serial vs prefetch", ss, sp, ps, pp)
}

// With DRM on, prepare(i+1) consumes the assignment one iteration late (the
// snapshot is taken before DRM reacts to iteration i). That lag is pinned
// bitwise against the serial oracle: the identical schedule run with no
// worker goroutine. Again at GOMAXPROCS 1 and 4 — scheduling cannot perturb
// which assignment a prepare sees.
func TestPipelinedDRMLagMatchesSerialOracle(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			cfg := baseConfig(t) // DRM on
			cfg.Pipeline = PipelinePrefetch
			sp, pp := trainEpochs(t, cfg, 3)

			oracle, err := NewEngine(baseConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			so := make([]*EpochStats, 0, 3)
			for i := 0; i < 3; i++ {
				st, err := oracle.runEpochOracle()
				if err != nil {
					t.Fatal(err)
				}
				so = append(so, st)
			}
			requireSameTrajectory(t, "prefetch vs lagged oracle", sp, so, pp, oracle.Params())

			// The lag must also move the same assignment: DRM's final mapping
			// agrees across the two schedules.
			a, b := sp[2].Assignment, so[2].Assignment
			if a.CPUBatch != b.CPUBatch || a.SampThreads != b.SampThreads ||
				a.LoadThreads != b.LoadThreads || a.TrainThreads != b.TrainThreads ||
				a.AccelSampleFrac != b.AccelSampleFrac {
				t.Fatalf("DRM assignments diverged: %+v vs %+v", a, b)
			}
		})
	}
}

// RunEpoch degenerates to the inline pipelined schedule at GOMAXPROCS=1, so
// the worker hand-off is forced here explicitly: with DRM on and a single
// proc — cooperative scheduling at its most adversarial — the worker-backed
// epochs must still match the lagged serial oracle bit for bit.
func TestPipelinedWorkerForcedAtOneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	forced, err := NewEngine(func() Config {
		cfg := baseConfig(t) // DRM on
		cfg.Pipeline = PipelinePrefetch
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEngine(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	sf := make([]*EpochStats, 0, 3)
	so := make([]*EpochStats, 0, 3)
	for i := 0; i < 3; i++ {
		stf, err := forced.runEpochAsync()
		if err != nil {
			t.Fatal(err)
		}
		sto, err := oracle.runEpochOracle()
		if err != nil {
			t.Fatal(err)
		}
		sf = append(sf, stf)
		so = append(so, sto)
	}
	requireSameTrajectory(t, "forced worker vs lagged oracle", sf, so,
		forced.Params(), oracle.Params())
}

// The virtual clock is an accounting convention: execution mode must not
// change what an iteration is *charged*, only when its stages run in
// wall-clock. With DRM off, per-epoch VirtualSec agrees exactly across
// serial, prefetch, and oracle schedules (the serial/prefetch half is also
// covered by requireSameTrajectory above; this pins the oracle too).
func TestVirtualClockUnchangedByExecutionMode(t *testing.T) {
	base := func() Config {
		cfg := baseConfig(t)
		cfg.DRM = false
		return cfg
	}
	serial, err := NewEngine(base())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEngine(base())
	if err != nil {
		t.Fatal(err)
	}
	cfgP := base()
	cfgP.Pipeline = PipelinePrefetch
	prefetch, err := NewEngine(cfgP)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ss, err := serial.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		so, err := oracle.runEpochOracle()
		if err != nil {
			t.Fatal(err)
		}
		sp, err := prefetch.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if ss.VirtualSec != so.VirtualSec || ss.VirtualSec != sp.VirtualSec {
			t.Fatalf("epoch %d: VirtualSec differs by mode: serial %v oracle %v prefetch %v",
				i+1, ss.VirtualSec, so.VirtualSec, sp.VirtualSec)
		}
	}
}

// ParsePipelineMode round-trips the flag values and rejects junk.
func TestParsePipelineMode(t *testing.T) {
	for _, want := range []PipelineMode{PipelineSerial, PipelinePrefetch} {
		got, err := ParsePipelineMode(want.String())
		if err != nil || got != want {
			t.Fatalf("round trip %v: got %v, err %v", want, got, err)
		}
	}
	if _, err := ParsePipelineMode("overlapped"); err == nil {
		t.Fatal("expected error for unknown mode")
	}
}

// snapshotRecorder wraps the hybrid executor on the pipelined schedule: at
// prepare time it records what the CPU trainer's propagation must cost under
// the snapshot that split the iteration's shares, and at compute time it
// checks the iteration's stage vector against that. Entries are per slot, so
// the prefetch worker and the orchestrating goroutine never share one.
type snapshotRecorder struct {
	*hybridExecutor
	wantSec     [pipelineDepth]float64
	snapThreads [pipelineDepth]int
	checked     int // iterations with a CPU share
	moved       int // of those, snapshots a balance_thread move had outdated by compute time
}

func (r *snapshotRecorder) slotIndex(s *iterSlot) int {
	for k, sl := range r.e.slots {
		if sl == s {
			return k
		}
	}
	return -1
}

func (r *snapshotRecorder) prepare(s *iterSlot, targets []int32) error {
	if err := r.hybridExecutor.prepare(s, targets); err != nil {
		return err
	}
	if mb := s.batches[0]; mb != nil {
		e, k := r.e, r.slotIndex(s)
		var sz perfmodel.Sizes
		share := float64(s.assign.TrainThreads) / float64(e.cfg.Plat.TotalCPUCores())
		r.wantSec[k] = e.pm.PropWithOverheads(e.cfg.Plat.CPU, sizesInto(&sz, mb), share)
		r.snapThreads[k] = s.assign.TrainThreads
	}
	return nil
}

func (r *snapshotRecorder) compute(s *iterSlot) (*IterResult, error) {
	res, err := r.hybridExecutor.compute(s)
	if err != nil || s.batches[0] == nil {
		return res, err
	}
	k := r.slotIndex(s)
	r.checked++
	if r.snapThreads[k] != r.e.assign.TrainThreads {
		r.moved++
	}
	if got, want := res.Stage.TrainCPU, r.wantSec[k]; got != want {
		// An error, not t.Fatal: the epoch loop must drain its worker.
		return nil, fmt.Errorf("iteration %d: TrainCPU %x, but the snapshot that split its shares (%d train threads; live mapping now %d) prices it %x",
			r.checked, got, r.snapThreads[k], r.e.assign.TrainThreads, want)
	}
	return res, nil
}

// One iteration is priced under one mapping. On the lagged schedule the slot
// snapshot is taken before DRM reacts to the previous iteration, so by the
// time compute(i) runs the live mapping may have moved on; the CPU trainer's
// Stage-4 price must still be the snapshot's — the mapping that split the
// shares and priced sampling and loading of the same iteration — on the
// worker-backed schedule and on its synchronous twin alike.
func TestPipelinedIterationPricedUnderOneSnapshot(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			cfg := baseConfig(t) // DRM on
			cfg.Pipeline = PipelinePrefetch
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &snapshotRecorder{hybridExecutor: e.exec.(*hybridExecutor)}
			e.exec = rec
			run := e.runEpochOracle
			if async {
				run = e.runEpochAsync
			}
			for ep := 0; ep < 3; ep++ {
				if _, err := run(); err != nil {
					t.Fatal(err)
				}
			}
			if e.drmEng.MovesThread == 0 || rec.moved == 0 {
				t.Fatalf("no balance_thread move landed between a snapshot and its compute (%d thread moves, %d of %d iterations outdated): the test exercised nothing",
					e.drmEng.MovesThread, rec.moved, rec.checked)
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

func (p *panicExecutor) compute(s *iterSlot) (*IterResult, error) {
	if p.iter == p.at {
		panic("compute failed")
	}
	p.iter++
	return p.hybridExecutor.compute(s)
}

// A panic inside compute on the worker-backed schedule must surface. At
// iteration 1 the worker holds prepare(2)'s result and blocks handing it
// back, so an unwinding runPipelined that just sent the stop sentinel would
// hang on it — and the panic with it. The deferred path settles the in-flight
// prepare first. The worker is forced so the GOMAXPROCS=1 leg hands off too.
func TestPipelinedComputePanicSurfaces(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Pipeline = PipelinePrefetch
	e, err := NewEngine(cfg)
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

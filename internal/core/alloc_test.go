package core

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// The whole training iteration — sampling, pricing,
// propagation, gradient reduction, weight update, clock advance — must run
// allocation-free once warm. This is the end-to-end gate over the reuse
// discipline that is otherwise enforced piecewise (sampler.SampleInto,
// gnn.TrainStepWS, the workspace arenas): any new per-iteration make/clone
// anywhere in the loop fails it. compute runs the trainers with a share on
// min(GOMAXPROCS, active) pool workers, the caller being the first, so the
// P−1 spawns are all an iteration may allocate: a single trainer runs inline
// and allocates nothing at all, and the five-trainer fleet every benchmark
// workload trains with (CPU + 4 accelerators, FPGA accounting included)
// spawns at most four — step arenas, gradients and fold scratch are
// retained. With DRM on, drm.Engine.Adjust runs between prepare and
// compute and rewrites the mapping in storage the engine owns; the bound is
// still the spawns. The spans-on leg runs the same gate inside a span
// recording, so its engine holds lanes and every step records: a span costs
// no allocation either.
func TestTrainingIterationZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation gate is skipped under -race")
	}
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	for _, leg := range []struct {
		name   string
		accels int
		drm    bool
		spans  bool
	}{
		{"one trainer", 0, false, false},
		{"five trainers", 4, false, false},
		{"five trainers, DRM on", 4, true, false},
		{"five trainers, DRM on, spans on", 4, true, true},
	} {
		t.Run(leg.name, func(t *testing.T) {
			path := ""
			if leg.spans {
				path = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			err := trace.WithSpans(path, func() error {
				gateTrainingIteration(t, leg.accels, leg.drm, leg.spans)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// gateTrainingIteration is TestTrainingIterationZeroAlloc's gate over a CPU
// + accels FPGA fleet; spans says whether its engine must hold lanes.
func gateTrainingIteration(t *testing.T, accels int, drm, spans bool) {
	spawns := float64(min(runtime.GOMAXPROCS(0), accels+1) - 1)
	cfg := baseConfig(t)
	cfg.Plat = hw.CPUFPGAPlatform()
	cfg.Plat.Accels = cfg.Plat.Accels[:accels]
	cfg.DRM = drm
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if (e.lane != 0) != spans {
		t.Fatalf("engine lane %d inside a recording = %v", e.lane, spans)
	}
	start := e.Assignment()
	targets := e.batcher.Next()
	var stats EpochStats
	var acc epochAccum
	it := 0
	// The epoch loop's inline iteration, on fixed targets.
	iterate := func() {
		s := e.slot(0)
		s.it, s.lane = it, e.lane
		if err := e.prepare(prepReq{s, targets}); err != nil {
			t.Fatal(err)
		}
		if e.drmEng != nil {
			e.assign = e.drmEng.Adjust(it, s.st, e.assign)
		}
		res, err := e.exec.compute(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.consumeIteration(it, res, &stats, &acc); err != nil {
			t.Fatal(err)
		}
		it++
	}
	// Warm every arena to steady state: the rng advances each iteration, so
	// sampled sizes vary and the retained storage must grow to its roof.
	for i := 0; i < 60; i++ {
		iterate()
	}
	if n := len(e.pool.active); n != accels+1 {
		t.Fatalf("%d trainers have a share, want %d", n, accels+1)
	}
	if a := testing.AllocsPerRun(20, iterate); a > spawns {
		t.Fatalf("training iteration allocated %.1f times per run, want at most its %v goroutine spawns", a, spawns)
	}
	if drm && sameAssignment(e.Assignment(), start) {
		t.Fatal("DRM never moved: the leg did not exercise Adjust's rewrite")
	}
}

// The pipelined steady state must be allocation-free too: with a live
// prefetch worker, one iteration is wait-for-prepared-slot, issue the next
// prepare (a channel hand-off), compute, reduce, step, advance — none of
// which may allocate once the depth-2 ring is warm. The worker's own prepare
// allocations count against the gate (AllocsPerRun reads global malloc
// counters), so this covers both sides of the overlap.
func TestTrainingIterationZeroAllocPipelined(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation gate is skipped under -race")
	}
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	cfg := baseConfig(t)
	cfg.Plat.Accels = nil // one CPU trainer: its step runs inline
	cfg.DRM = false
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	targets := e.batcher.Next()
	p := e.startPrefetch()

	// Fill the pipeline: prepare slot 0 on the worker.
	p.issue(prepReq{e.slot(0), targets})

	var stats EpochStats
	var acc epochAccum
	it := 0
	iterate := func() {
		cur := e.slot(it % pipelineDepth)
		if err := p.wait(); err != nil {
			t.Fatal(err)
		}
		p.issue(prepReq{e.slot((it + 1) % pipelineDepth), targets})
		res, err := e.exec.compute(cur)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.consumeIteration(it, res, &stats, &acc); err != nil {
			t.Fatal(err)
		}
		it++
	}
	for i := 0; i < 60; i++ {
		iterate()
	}
	a := testing.AllocsPerRun(20, iterate)
	_ = p.wait() // settle the last issued prepare, then stop the worker
	p.stop()
	if a != 0 {
		t.Fatalf("pipelined training iteration allocated %.1f times per run, want 0", a)
	}
}

// heldOut (Evaluate(nil)'s vertex selection) must return exactly the
// non-training vertices — pinned against a map-based reference — and must
// not allocate once warm: it used to build a map[int32]bool over the
// training set plus an appended slice on every call, which the
// generation-stamped scratch replaces.
func TestEvaluateHeldOutScratch(t *testing.T) {
	e, err := NewEngine(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	inTrain := make(map[int32]bool, len(e.cfg.Data.TrainIdx))
	for _, v := range e.cfg.Data.TrainIdx {
		inTrain[v] = true
	}
	var want []int32
	for v := int32(0); int(v) < e.cfg.Data.Graph.NumVertices; v++ {
		if !inTrain[v] {
			want = append(want, v)
		}
	}
	for call := 0; call < 2; call++ { // second call reuses the scratch
		got := e.heldOut()
		if len(got) != len(want) {
			t.Fatalf("call %d: %d held-out vertices, want %d", call, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("call %d: held-out[%d] = %d, want %d", call, i, got[i], want[i])
			}
		}
	}
	if raceEnabled {
		return // exact allocation gate is skipped under -race
	}
	if a := testing.AllocsPerRun(10, func() { e.heldOut() }); a != 0 {
		t.Fatalf("heldOut allocated %.1f times per call once warm, want 0", a)
	}
}

// A single-trainer fleet steps inline on the caller's one pool worker, whose
// arena every iteration reuses: two identically seeded engines must agree
// bit for bit, which catches nondeterminism sneaking into the scratch reuse.
func TestSerialIterationDeterministic(t *testing.T) {
	run := func() (*EpochStats, float32) {
		cfg := baseConfig(t)
		cfg.Plat.Accels = nil
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var st *EpochStats
		for i := 0; i < 2; i++ {
			if st, err = e.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		return st, e.Params().Weights[0].Data[0]
	}
	st1, w1 := run()
	st2, w2 := run()
	if st1.Loss != st2.Loss || st1.Accuracy != st2.Accuracy || w1 != w2 {
		t.Fatalf("single-trainer run nondeterministic: loss %v vs %v, acc %v vs %v, w %v vs %v",
			st1.Loss, st2.Loss, st1.Accuracy, st2.Accuracy, w1, w2)
	}
}

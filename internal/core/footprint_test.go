package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// footprintRecorder wraps the hybrid executor and, after every compute,
// records each trainer's step demand, keeping the largest per trainer: it
// replays the same step on a fresh arena (the model is only read, and the
// slot's mini-batch is live until its next prepare).
type footprintRecorder struct {
	*hybridExecutor
	step  []int64 // per trainer, any worker
	st    gnn.ForwardState
	grads *gnn.Gradients
}

// cycleDemand is a lower bound on the bytes the one cycle a fresh arena saw
// borrowed from it: such an arena retains the demand plus an eighth, rounded
// up to a cache line, plus under a line of alignment slack, per slab (the law
// tensor's TestWorkspaceHighWater pins on exact bytes).
func cycleDemand(fresh *tensor.Workspace) int64 {
	fresh.Reset()
	return (fresh.Bytes() - 2*2*64) * 8 / 9
}

func (r *footprintRecorder) compute(s *iterSlot) (*iterResult, error) {
	res, err := r.hybridExecutor.compute(s)
	if err != nil {
		return nil, err
	}
	if r.step == nil {
		r.step = make([]int64, len(s.mbs))
		r.grads = gnn.NewGradients(r.e.model.Params)
	}
	for i, mb := range s.mbs {
		if len(s.shares[i]) == 0 {
			continue
		}
		fresh := tensor.NewWorkspace()
		if _, _, err := r.e.model.TrainStepRowsWS(fresh, &r.st, mb, r.e.cfg.Data.Features, mb.InputNodes(), r.grads); err != nil {
			return nil, err
		}
		r.step[i] = max(r.step[i], cycleDemand(fresh))
	}
	return res, nil
}

// TestWorkspaceFootprintBounded is the regression gate for "an arena holds a
// buffer twice": after three epochs of the five-trainer fleet with DRM on —
// inline ("serial"), and on the prefetch worker with its second slot —
// every step arena retains at most 1.25 × the largest single-step demand of
// any trainer. Step arenas belong to the trainer pool's workers, so the
// engine holds at most min(GOMAXPROCS, trainers) of them, whichever trainers
// each one ran. (The power-of-two bucket maps this replaced retained up to
// 3 ×: a buffer that jittered across a class boundary was held at both
// sizes.)
func TestWorkspaceFootprintBounded(t *testing.T) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	for _, leg := range []struct {
		name string
		run  epochRunner
	}{
		{"serial", runInline},
		{"prefetch", runWorker},
	} {
		t.Run(leg.name, func(t *testing.T) {
			cfg := baseConfig(t) // DRM on
			cfg.Plat = hw.CPUFPGAPlatform()
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &footprintRecorder{hybridExecutor: e.exec.(*hybridExecutor)}
			e.exec = rec
			for ep := 0; ep < 3; ep++ {
				if _, err := leg.run(e); err != nil {
					t.Fatal(err)
				}
			}
			workers, retained := 0, int64(0)
			stepDemand := slices.Max(rec.step)
			for k, w := range e.pool.workers {
				if w.ws == nil {
					continue
				}
				workers++
				retained += w.ws.Bytes()
				if limit := stepDemand + stepDemand/4; w.ws.Bytes() > limit {
					t.Errorf("worker %d step arena retains %d B, the largest step borrowed %d B: over the 1.25× bound of %d B",
						k, w.ws.Bytes(), stepDemand, limit)
				}
			}
			if limit := min(runtime.GOMAXPROCS(0), len(e.pool.res)); workers == 0 || workers > limit || retained == 0 {
				t.Fatalf("%d step arenas held %d B in all, want 1..%d (min of GOMAXPROCS and the trainers)", workers, retained, limit)
			}
			if e.drmEng.MovesWork+e.drmEng.MovesThread == 0 {
				t.Fatal("DRM never moved: the run did not exercise a mapping that changes under the arenas")
			}
		})
	}
}

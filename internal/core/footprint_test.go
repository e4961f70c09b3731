package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// footprintRecorder wraps the hybrid executor and, after every compute,
// records what each arena owner's cycle borrowed, keeping the largest per
// owner: a slot's staging arena — only a quantized accelerator share has one —
// holds one gathered feature block, whose size is its shape; a trainer's
// step demand is measured by replaying the same step on a fresh arena (the
// replica is only read, and the slot's input is live until its next prepare).
type footprintRecorder struct {
	*hybridExecutor
	stage [pipelineDepth][]int64 // per slot, per trainer
	step  []int64                // per trainer, any worker
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

func (r *footprintRecorder) compute(s *iterSlot) (*IterResult, error) {
	res, err := r.hybridExecutor.compute(s)
	if err != nil {
		return nil, err
	}
	k := 0
	for r.e.slots[k] != s {
		k++
	}
	if r.step == nil {
		r.step = make([]int64, len(s.batches))
		for i := range r.stage {
			r.stage[i] = make([]int64, len(s.batches))
		}
		r.grads = gnn.NewGradients(r.e.replicas[0].Params)
	}
	for i, mb := range s.batches {
		if mb == nil {
			continue
		}
		in := s.inputs[i]
		if in.rows == nil { // a staged block
			r.stage[k][i] = max(r.stage[k][i], 4*int64(len(in.x.Data)))
		}
		fresh := tensor.NewWorkspace()
		if _, _, err := r.e.replicas[i].TrainStepRowsWS(fresh, &r.st, mb, in.x, in.rows, r.grads); err != nil {
			return nil, err
		}
		r.step[i] = max(r.step[i], cycleDemand(fresh))
	}
	return res, nil
}

// TestWorkspaceFootprintBounded is the regression gate for "an arena holds a
// buffer twice": after three epochs of the five-trainer fleet with DRM on —
// serial, on the worker-backed prefetch schedule with its second slot, and
// prefetch with QuantizeTransfer on — every staging arena retains at most
// 1.25 × the largest demand a single one of its cycles made, and every step
// arena 1.25 × the largest single-step demand of any trainer. Step arenas
// belong to the trainer pool's workers, so the engine holds at most
// min(GOMAXPROCS, trainers) of them, whichever trainers each one ran.
// (The power-of-two bucket maps this replaced retained up to 3 ×: a buffer
// that jittered across a class boundary was held at both sizes.) Staging
// arenas exist only where a copy is the device's bytes: the unquantized legs
// have none, and the quantized one has one per accelerator share and slot but
// none for the CPU trainer, which reads the feature table in place.
func TestWorkspaceFootprintBounded(t *testing.T) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	for _, leg := range []struct {
		name     string
		mode     PipelineMode
		quantize bool
	}{
		{"serial", PipelineSerial, false},
		{"prefetch", PipelinePrefetch, false},
		{"quantized", PipelinePrefetch, true},
	} {
		t.Run(leg.name, func(t *testing.T) {
			cfg := baseConfig(t) // DRM on
			cfg.Plat = hw.CPUFPGAPlatform()
			cfg.Pipeline = leg.mode
			cfg.QuantizeTransfer = leg.quantize
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &footprintRecorder{hybridExecutor: e.exec.(*hybridExecutor)}
			e.exec = rec
			run := e.RunEpoch
			if leg.mode == PipelinePrefetch {
				run = e.runEpochAsync
			}
			for ep := 0; ep < 3; ep++ {
				if _, err := run(); err != nil {
					t.Fatal(err)
				}
			}
			owners, retained := 0, int64(0)
			check := func(owner string, ws *tensor.Workspace, demand int64) {
				if ws == nil || demand == 0 {
					return
				}
				owners++
				retained += ws.Bytes()
				if limit := demand + demand/4; ws.Bytes() > limit {
					t.Errorf("%s retains %d B, its largest cycle borrowed %d B: over the 1.25× bound of %d B",
						owner, ws.Bytes(), demand, limit)
				}
			}
			slots := 0
			for k, s := range e.slots {
				if s == nil {
					continue
				}
				slots++
				for i, ws := range s.ws {
					if ws != nil && (i == 0 || !leg.quantize) {
						t.Fatalf("slot %d trainer %d holds a %d B staging arena: only quantized accelerator shares stage features",
							k, i, ws.Bytes())
					}
					check(fmt.Sprintf("slot %d trainer %d staging arena", k, i), ws, rec.stage[k][i])
				}
			}
			want := 0
			if leg.quantize {
				want = slots * (len(e.replicas) - 1)
			}
			if owners != want {
				t.Fatalf("%d staging arenas, want %d", owners, want)
			}
			stepDemand := slices.Max(rec.step)
			for k, w := range e.pool.workers {
				check(fmt.Sprintf("worker %d step arena", k), w.ws, stepDemand)
			}
			if workers, limit := owners-want, min(runtime.GOMAXPROCS(0), len(e.replicas)); workers == 0 || workers > limit || retained == 0 {
				t.Fatalf("%d step arenas held %d B in all, want 1..%d (min of GOMAXPROCS and the trainers)", workers, retained, limit)
			}
			if e.drmEng.MovesWork+e.drmEng.MovesThread == 0 {
				t.Fatal("DRM never moved: the run did not exercise a mapping that changes under the arenas")
			}
		})
	}
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// footprintRecorder wraps the hybrid executor and, after every compute,
// records what each arena owner's cycle borrowed, keeping the largest per
// owner: the slot's staging arena of every trainer with a share holds one
// gathered feature block, whose size is its shape; the trainer's step arena is
// measured by replaying the same step on a fresh arena (the replica is only
// read, and the slot's feature block is live until its next prepare).
type footprintRecorder struct {
	*hybridExecutor
	stage [pipelineDepth][]int64 // per slot, per trainer
	step  []int64                // per trainer
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
		x := s.feats[i]
		r.stage[k][i] = max(r.stage[k][i], 4*int64(len(x.Data)))
		fresh := tensor.NewWorkspace()
		if _, _, err := r.e.replicas[i].TrainStepWS(fresh, &r.st, mb, x, r.grads); err != nil {
			return nil, err
		}
		r.step[i] = max(r.step[i], cycleDemand(fresh))
	}
	return res, nil
}

// TestWorkspaceFootprintBounded is the regression gate for "an arena holds a
// buffer twice": after three epochs of the five-trainer fleet with DRM on —
// serial, and on the worker-backed prefetch schedule with its second slot — every staging and every trainer arena retains at most
// 1.25 × the largest demand a single one of its cycles made. (The power-of-two
// bucket maps this replaced retained up to 3 ×: a buffer that jittered across
// a class boundary was held at both sizes.)
func TestWorkspaceFootprintBounded(t *testing.T) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	for _, mode := range []PipelineMode{PipelineSerial, PipelinePrefetch} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := baseConfig(t) // DRM on
			cfg.Plat = hw.CPUFPGAPlatform()
			cfg.Pipeline = mode
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &footprintRecorder{hybridExecutor: e.exec.(*hybridExecutor)}
			e.exec = rec
			run := e.RunEpoch
			if mode == PipelinePrefetch {
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
			for k, s := range e.slots {
				if s == nil {
					continue
				}
				for i, ws := range s.ws {
					check(fmt.Sprintf("slot %d trainer %d staging arena", k, i), ws, rec.stage[k][i])
				}
			}
			for i := range e.scratch {
				check(fmt.Sprintf("trainer %d step arena", i), e.scratch[i].ws, rec.step[i])
			}
			if want := (int(mode) + 2) * len(e.replicas); owners != want || retained == 0 {
				t.Fatalf("%d arena owners held %d B, want all %d: the gate exercised less than the fleet", owners, retained, want)
			}
			if e.drmEng.MovesWork+e.drmEng.MovesThread == 0 {
				t.Fatal("DRM never moved: the run did not exercise a mapping that changes under the arenas")
			}
		})
	}
}

package core

import (
	"fmt"

	"repro/internal/gnn"
	"repro/internal/perfmodel"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// A trainer is a model replica plus its numeric scratch (compute's half) and
// the price of its step on its device (prepare's half). Every replica runs
// the same reference forward/backward — which is what keeps the fleet's
// synchronous SGD bit-exact — so the device kinds differ only in propSec.

// stepScratch is the per-trainer reusable numeric state: a workspace arena
// for every forward/backward intermediate, the reusable layer bookkeeping,
// and persistent gradient buffers. Reset per step, it makes the trainer's
// steady-state numeric path allocation-free (the arena only grows until the
// largest mini-batch share has been seen). Each trainer owns its scratch the
// way it owns its replica — never shared across the fleet.
type stepScratch struct {
	ws    *tensor.Workspace
	st    gnn.ForwardState
	grads *gnn.Gradients
}

// stepInput is a trainer's layer-0 input in gnn.TrainStepRowsWS's form: the
// feature table x read at rows (one per input node), or — rows nil — a block
// staged over the input nodes.
type stepInput struct {
	x    *tensor.Matrix
	rows []int32
}

// step runs one allocation-free training step of m over the scratch. The
// returned gradients are m's mean gradient, unscaled, owned by the scratch
// and valid until the next step: the coordinator consumes them within the
// iteration (the weighted all-reduce reads them), which is exactly their
// lifetime.
func (s *stepScratch) step(m *gnn.Model, mb *sampler.MiniBatch, in stepInput) (*gnn.Gradients, float64, float64, error) {
	if s.ws == nil {
		s.ws = tensor.NewWorkspace()
		s.grads = gnn.NewGradients(m.Params)
	}
	s.ws.Reset()
	loss, acc, err := m.TrainStepRowsWS(s.ws, &s.st, mb, in.x, in.rows, s.grads)
	return s.grads, loss, acc, err
}

// propSec is the virtual propagation time of trainer i's step over mb (sz =
// its sampled-set sizes) under the engine's task mapping, device runtime
// overheads included. The CPU is priced by Eq. 10 on the thread slice the
// mapping grants its trainer, a generic accelerator (the paper's GPU path)
// by Eq. 10 for the device. An FPGA is charged the §IV-C hardware dataflow
// (Fig. 6) for the forward half: the scatter-gather engine's fetch and retire
// cycles (source-sorted edges, O(|V0|) external traffic) and the systolic
// array's update cycles, accounted on the blocks this step really sampled
// and added to the slot's FPGA account. The account is a function of the
// blocks' structure alone, so no kernel executes — on this plane or the
// serving one (InferencePipeline.RunBatch charges the same account): the
// FPGA is a clock charge, its numbers are the reference step's. The backward
// half (which the dataflow kernel does not implement) stays analytic Eq. 10.
func (e *Engine) propSec(s *iterSlot, i int, mb *sampler.MiniBatch, sz perfmodel.Sizes) (float64, error) {
	if i == 0 {
		share := 1.0 // CPU-only platform fallback
		if e.cfg.Hybrid {
			share = float64(e.assign.TrainThreads) / float64(e.cfg.Plat.TotalCPUCores())
		}
		return e.pm.PropWithOverheads(e.cfg.Plat.CPU, sz, share), nil
	}
	dev := e.cfg.Plat.Accels[i-1]
	if e.backends[i-1] == nil {
		return e.pm.PropWithOverheads(dev, sz, 1), nil
	}
	stats, err := e.backends[i-1].Account(e.cfg.Model, mb)
	if err != nil {
		return 0, fmt.Errorf("core: fpga trainer %d: %w", i, err)
	}
	s.fpga.Add(*stats)
	return perfmodel.DeviceOverheads(dev, stats.Sec+e.pm.PropBackwardFor(dev, sz, 1)), nil
}

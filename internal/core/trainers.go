package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// Trainer is one device's training backend in the replica fleet: it owns the
// numeric forward/backward over the device's model replica and the virtual
// pricing of that propagation. The coordinator (hybridExecutor) owns
// everything around it — share splitting, feature staging, the DONE/ACK
// gradient protocol and the weight update — so backends compose freely: a
// CPU trainer, a generic accelerator trainer, and the FPGA dataflow trainer
// that charges the §IV-C scatter-gather + systolic kernels live side by
// side in one fleet.
type Trainer interface {
	// Device returns the hardware this trainer runs on.
	Device() hw.Device
	// Step runs one training step over the trainer's mini-batch share. x
	// holds the gathered (and, for accelerators, transferred) input
	// features. The returned gradients are the replica's mean gradient,
	// unscaled; PropSec is the virtual propagation time charged for the
	// step, including the device's runtime overheads. The result is owned
	// by the trainer's scratch and valid until its next Step — the
	// coordinator consumes it within the iteration.
	Step(mb *sampler.MiniBatch, x *tensor.Matrix) (*StepResult, error)
}

// StepResult is one trainer step's output.
type StepResult struct {
	Grads   *gnn.Gradients
	Loss    float64
	Acc     float64
	PropSec float64
	// FPGA carries the dataflow kernels' hardware accounting when the step
	// was charged to the FPGA backend (nil otherwise).
	FPGA *accel.ForwardStats
}

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
	sizes perfmodel.Sizes // reused mini-batch size vectors for pricing
	res   StepResult      // reused result; valid until the next Step
}

// step runs one allocation-free training step of m over the scratch. The
// returned gradients are owned by the scratch and valid until the next step:
// the coordinator consumes them within the iteration (scale, all-reduce),
// which is exactly their lifetime.
func (s *stepScratch) step(m *gnn.Model, mb *sampler.MiniBatch, x *tensor.Matrix) (*gnn.Gradients, float64, float64, error) {
	if s.ws == nil {
		s.ws = tensor.NewWorkspace()
		s.grads = gnn.NewGradients(m.Params)
	}
	s.ws.Reset()
	loss, acc, err := m.TrainStepWS(s.ws, &s.st, mb, x, s.grads)
	return s.grads, loss, acc, err
}

// newTrainers builds the fleet's backends: index 0 is the CPU trainer,
// index i+1 drives cfg.Plat.Accels[i]. FPGA-kind devices get the dataflow
// backend; every other accelerator kind gets the analytically priced
// generic trainer.
func newTrainers(e *Engine) []Trainer {
	out := make([]Trainer, 1+len(e.cfg.Plat.Accels))
	out[0] = &cpuTrainer{e: e}
	for i, dev := range e.cfg.Plat.Accels {
		if dev.Kind == hw.FPGA {
			out[i+1] = &fpgaTrainer{
				e: e, idx: i + 1, dev: dev,
				backend: accel.U250Backend(e.cfg.Model.Dims[0]),
			}
		} else {
			out[i+1] = &accelTrainer{e: e, idx: i + 1, dev: dev}
		}
	}
	return out
}

// cpuTrainer trains on the host CPU with the thread slice the task mapping
// grants it; its replica reads features in place.
type cpuTrainer struct {
	e  *Engine
	sc stepScratch
}

func (t *cpuTrainer) Device() hw.Device { return t.e.cfg.Plat.CPU }

func (t *cpuTrainer) Step(mb *sampler.MiniBatch, x *tensor.Matrix) (*StepResult, error) {
	e := t.e
	grads, loss, acc, err := t.sc.step(e.replicas[0], mb, x)
	if err != nil {
		return nil, err
	}
	share := float64(e.assign.TrainThreads) / float64(e.cfg.Plat.TotalCPUCores())
	if !e.cfg.Hybrid {
		share = 1 // CPU-only platform fallback
	}
	t.sc.res = StepResult{
		Grads: grads, Loss: loss, Acc: acc,
		PropSec: e.pm.PropWithOverheads(e.cfg.Plat.CPU, sizesInto(&t.sc.sizes, mb), share),
	}
	return &t.sc.res, nil
}

// accelTrainer is the generic accelerator backend (the paper's GPU path):
// reference numerics on the replica, propagation priced by Eq. 10 for the
// device.
type accelTrainer struct {
	e   *Engine
	idx int
	dev hw.Device
	sc  stepScratch
}

func (t *accelTrainer) Device() hw.Device { return t.dev }

func (t *accelTrainer) Step(mb *sampler.MiniBatch, x *tensor.Matrix) (*StepResult, error) {
	grads, loss, acc, err := t.sc.step(t.e.replicas[t.idx], mb, x)
	if err != nil {
		return nil, err
	}
	t.sc.res = StepResult{
		Grads: grads, Loss: loss, Acc: acc,
		PropSec: t.e.pm.PropWithOverheads(t.dev, sizesInto(&t.sc.sizes, mb), 1),
	}
	return &t.sc.res, nil
}

// fpgaTrainer charges the paper's §IV-C hardware dataflow (Fig. 6) for the
// forward half of its step: the scatter-gather engine's fetch and retire
// cycles (source-sorted edges, O(|V0|) external traffic) and the systolic
// array's update cycles, accounted on the blocks this step really sampled —
// not the analytic Eq. 10 — are what the virtual clock sees. The account is
// a function of the blocks' structure alone, so no kernel executes here: the
// numeric dataflow runs where its output is used (the FPGA serving workers)
// and is pinned against the reference forward in internal/accel's tests and,
// on this trainer's own replica, in core's. The backward half (which the
// dataflow kernel does not implement) stays analytically priced. Gradients
// come from the replica's reference step like every other trainer's, which
// is what keeps the whole fleet's synchronous SGD bit-exact.
type fpgaTrainer struct {
	e       *Engine
	idx     int
	dev     hw.Device
	backend accel.Backend
	sc      stepScratch
}

func (t *fpgaTrainer) Device() hw.Device { return t.dev }

func (t *fpgaTrainer) Step(mb *sampler.MiniBatch, x *tensor.Matrix) (*StepResult, error) {
	e := t.e
	stats, err := t.backend.Account(e.replicas[t.idx].Cfg, mb)
	if err != nil {
		return nil, fmt.Errorf("core: fpga trainer %d: %w", t.idx, err)
	}
	grads, loss, acc, err := t.sc.step(e.replicas[t.idx], mb, x)
	if err != nil {
		return nil, err
	}
	sz := sizesInto(&t.sc.sizes, mb)
	prop := stats.Sec + e.pm.PropBackwardFor(t.dev, sz, 1)
	t.sc.res = StepResult{
		Grads: grads, Loss: loss, Acc: acc,
		PropSec: perfmodel.DeviceOverheads(t.dev, prop),
		FPGA:    stats,
	}
	return &t.sc.res, nil
}

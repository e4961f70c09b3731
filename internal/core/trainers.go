package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/gnn"
	"repro/internal/perfmodel"
	"repro/internal/sampler"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// A trainer is a share of the iteration's batch, its mean gradient over the
// engine's one parameter set (compute's half) and the price of its step on
// its device (prepare's half). Every trainer runs the same reference
// forward/backward, so the device kinds differ only in propSec.

// trainerPool is compute's round state, retained across iterations so a
// round allocates nothing but its spawns; only compute touches it, and
// computes never overlap. The accelerators are clock charges, so every
// trainer's numerics run on the host: a round runs the trainers with a share
// on P = min(GOMAXPROCS, active) workers — the caller is worker 0 — that claim
// trainers from a shared cursor (DRM makes shares unequal, so the split is
// dynamic). A step's intermediates belong to the worker that ran it, so the
// fleet holds P step arenas, not one per trainer; each trainer keeps only its
// parameter-sized gradient for the fold.
type trainerPool struct {
	workers []stepWorker    // the first P run a round
	res     []trainerResult // per trainer, in rank order
	active  []int           // the round's trainers with a share, in rank order
	next    atomic.Int32    // cursor into active: the next rank a worker claims
	join    sync.WaitGroup
	// The fold's operands in rank order, and its output.
	grads  []*gnn.Gradients
	scales []float32
	avg    *gnn.Gradients
}

// stepWorker is one pool worker's numeric scratch: a workspace arena for
// every forward/backward intermediate and the reusable layer bookkeeping.
// Reset per step, it makes the steady-state numeric path allocation-free (the
// arena only grows until the largest share the worker has run).
type stepWorker struct {
	ws *tensor.Workspace
	st gnn.ForwardState
}

// trainerResult is one trainer's step outcome: its mean gradient, unscaled
// (persistent, overwritten by its next step), and its share's mean loss and
// accuracy.
type trainerResult struct {
	grads     *gnn.Gradients
	loss, acc float64
	err       error
}

// newTrainerPool sizes the round state for n trainers of a model shaped like
// params.
func newTrainerPool(n int, params *gnn.Parameters) trainerPool {
	res := make([]trainerResult, n)
	for i := range res {
		res[i].grads = gnn.NewGradients(params)
	}
	return trainerPool{
		workers: make([]stepWorker, n), res: res,
		active: make([]int, 0, n), grads: make([]*gnn.Gradients, n), scales: make([]float32, n),
		avg: gnn.NewGradients(params),
	}
}

// run steps every active trainer of the slot on m, each reading its layer-0
// input from the feature table x in place, and returns once all have
// finished. The workers only read m (a gnn.Model is its config and
// parameters) and x; each writes its own arena and its trainers' results.
func (p *trainerPool) run(m *gnn.Model, x *tensor.Matrix, s *iterSlot) {
	width := min(runtime.GOMAXPROCS(0), len(p.active))
	p.next.Store(0)
	p.join.Add(width - 1)
	for k := 1; k < width; k++ {
		go func(w *stepWorker) {
			defer p.join.Done()
			p.drain(w, m, x, s)
		}(&p.workers[k])
	}
	p.drain(&p.workers[0], m, x, s)
	p.join.Wait()
}

// drain runs trainers on w until the cursor passes the last active one.
func (p *trainerPool) drain(w *stepWorker, m *gnn.Model, x *tensor.Matrix, s *iterSlot) {
	for {
		r := int(p.next.Add(1)) - 1
		if r >= len(p.active) {
			return
		}
		i := p.active[r]
		start := trace.Begin(w.st.Lane)
		w.step(m, s.mbs[i], x, &p.res[i])
		trace.End(w.st.Lane, "step", i, start)
	}
}

// step runs one allocation-free training step of m over mb, reading the
// feature table x at the batch's input nodes, in the worker's scratch into
// res.
func (w *stepWorker) step(m *gnn.Model, mb *sampler.MiniBatch, x *tensor.Matrix, res *trainerResult) {
	if w.ws == nil {
		w.ws = tensor.NewWorkspace()
	}
	w.ws.Reset()
	res.loss, res.acc, res.err = m.TrainStepRowsWS(w.ws, &w.st, mb, x, mb.InputNodes(), res.grads)
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
		// Without Hybrid the CPU trainer gets targets only on a platform with
		// no accelerators (DRM moves none to a thread-less CPU trainer), and
		// there it has the whole CPU.
		share := 1.0
		if e.cfg.Hybrid {
			share = float64(e.assign.TrainThreads) / float64(e.cfg.Plat.TotalCPUCores())
		}
		return perfmodel.DeviceOverheads(e.cfg.Plat.CPU, e.pm.PropTimeFor(e.cfg.Plat.CPU, sz, share)), nil
	}
	dev := e.cfg.Plat.Accels[i-1]
	if e.backends[i-1] == nil {
		return perfmodel.DeviceOverheads(dev, e.pm.PropTimeFor(dev, sz, 1)), nil
	}
	stats, err := e.backends[i-1].Account(e.cfg.Model, mb)
	if err != nil {
		return 0, fmt.Errorf("core: fpga trainer %d: %w", i, err)
	}
	s.fpga.Add(*stats)
	return perfmodel.DeviceOverheads(dev, stats.Sec+e.pm.PropBackwardFor(dev, sz, 1)), nil
}

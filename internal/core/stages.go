package core

import (
	"repro/internal/accel"
	"repro/internal/gnn"
	"repro/internal/optim"
	"repro/internal/perfmodel"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// StageExecutor is the trainer-execution layer: it runs one iteration's
// pipeline stages — mini-batch sampling, feature loading and transfer, and
// concurrent propagation on every trainer — and reports the measured virtual
// stage times together with the training results. It does NOT apply weight
// updates; the epoch orchestrator does, after GradientSync has produced the
// globally averaged gradient.
//
// The iteration splits into two halves along the paper's Fig. 4/5 boundary:
// prepare (sampling, the trainers' layer-0 inputs, and the price of every
// stage — propagation included, since §V prices it from the sampled-set
// sizes and the task mapping alone) depends only on the batcher/RNG stream
// and the engine's task mapping — never on model weights — while compute
// (Stage 4's numerics: propagation + local gradient reduction) consumes a
// prepared slot and prices nothing. The epoch loop (epoch.go) runs prepare(i) then
// compute(i) on one slot, or — on the prefetch schedule — prepare(i+1) on a
// second slot while compute(i) is still in flight.
type StageExecutor interface {
	// prepare runs Stages 1–3 for one global mini-batch into the slot's
	// retained scratch and prices the whole iteration under the engine's
	// task mapping, which the epoch loop holds still while a prepare runs.
	prepare(s *iterSlot, targets []int32) error
	// compute runs Stage 4 over a prepared slot and assembles the iteration
	// result (owned by the slot, valid until its next prepare).
	compute(s *iterSlot) (*IterResult, error)
}

// IterResult is one iteration's output: measured stage times, the locally
// averaged gradient awaiting global reduction, and training statistics.
type IterResult struct {
	Stage      perfmodel.StageTimes
	Grad       *gnn.Gradients // local all-reduce result (nil if no trainer ran)
	LossSum    float64        // Σ loss × targets
	Correct    float64        // Σ correct predictions
	Targets    int
	Edges      float64 // edges traversed by sampling (MTEPS numerator)
	RemoteRows int     // feature rows fetched from remote shards
	// FPGA aggregates the dataflow trainers' hardware accounting for the
	// iteration (zero when no FPGA trainer ran).
	FPGA accel.ForwardStats
}

// iterSlot is one ring entry of the iteration scratch: everything prepare
// writes and compute reads for a single in-flight iteration. Inline prepares
// use one slot; the prefetch worker's schedule owns two, so prepare(i+1) can
// fill one while the trainers still read the other, and the steady state
// stays allocation-free (each slot's arenas grow to their roof once).
type iterSlot struct {
	shares  [][]int32
	batches []*sampler.MiniBatch // per-trainer view: nil for idle trainers
	mbs     []*sampler.MiniBatch // retained storage SampleInto refills
	inputs  []stepInput          // per-trainer layer-0 input
	// ws holds the staging arenas of accelerator shares under
	// QuantizeTransfer, the one case that copies features: the device trains
	// on the int8 round trip of its rows. Every other share reads the
	// feature table in place, and its entry stays nil.
	ws     []*tensor.Workspace
	load   []float64
	perAcc []perfmodel.DeviceStage
	sizes  perfmodel.Sizes
	res    IterResult

	// prepare's outputs: the iteration's complete stage vector (DRM's input,
	// then compute's) and FPGA dataflow account.
	st         perfmodel.StageTimes
	fpga       accel.ForwardStats
	edges      float64
	remoteRows int
}

// hybridExecutor is the default StageExecutor: the paper's hybrid CPU +
// accelerator pipeline over the engine's replica fleet.
type hybridExecutor struct {
	e *Engine
}

// prepare runs Stages 1–3 into the slot — sampling, and each trainer's
// layer-0 input: the feature table plus the batch's input nodes, read in
// place by the step, or for a quantized accelerator share its staged int8
// round trip — and prices every stage of the iteration, Stage 4 included,
// from the mini-batches it just sampled and the engine's task mapping. Load
// and transfer are prices, not copies: they are charged whether or not a
// block is staged. It touches only the slot's scratch, the sampler/RNG
// stream and the FPGA backends' accounting scratch (callers serialize
// prepares), and read-only engine state (features, pricing model, locator,
// the mapping); never the replicas or their numeric scratch, which is what
// lets it overlap a sibling slot's compute.
func (x *hybridExecutor) prepare(s *iterSlot, targets []int32) error {
	e := x.e
	s.st = perfmodel.StageTimes{}
	s.fpga = accel.ForwardStats{}
	s.edges = 0
	s.remoteRows = 0
	shares := e.deviceShareInto(s, targets)

	// --- Stage 1: Mini-batch Sampling (real work + virtual charge).
	if len(s.batches) != len(shares) {
		s.batches = make([]*sampler.MiniBatch, len(shares))
		s.mbs = make([]*sampler.MiniBatch, len(shares))
		for i := range s.mbs {
			s.mbs[i] = &sampler.MiniBatch{}
		}
		s.inputs = make([]stepInput, len(shares))
		s.ws = make([]*tensor.Workspace, len(shares))
	}
	batches := s.batches
	for i := range batches {
		batches[i] = nil
	}
	var sampEdgesCPU, sampEdgesAccel float64
	for i, share := range shares {
		if len(share) == 0 {
			continue
		}
		if e.saint != nil {
			// GraphSAINT: the share size becomes this trainer's root
			// count; targets from the batcher only size the shares. (This
			// path keeps the allocating sampler: subgraph induction is
			// shaped around per-call node sets.)
			mb, err := e.saint.SampleN(len(share), e.rng)
			if err != nil {
				return err
			}
			batches[i] = mb
		} else {
			// Slot-retained mini-batch, rebuilt in place: trainer i reads
			// it until its step returns, within the slot's iteration —
			// exactly the storage's lifetime.
			if err := e.smp.SampleInto(s.mbs[i], share, e.rng); err != nil {
				return err
			}
			batches[i] = s.mbs[i]
		}
		edges := float64(batches[i].EdgesTraversed())
		s.edges += edges
		if i > 0 && e.assign.AccelSampleFrac > 0 {
			sampEdgesAccel += edges * e.assign.AccelSampleFrac
			sampEdgesCPU += edges * (1 - e.assign.AccelSampleFrac)
		} else {
			sampEdgesCPU += edges
		}
	}
	st := perfmodel.StageTimes{
		SampCPU:   e.pm.SampleTimeCPUEdges(sampEdgesCPU, e.assign.SampThreads),
		SampAccel: e.pm.SampleTimeAccelEdges(sampEdgesAccel / float64(max(1, len(e.cfg.Plat.Accels)))),
		Sync:      e.pm.SyncTime(),
	}

	// --- Stage 2+3: Feature Loading and Data Transfer for accelerators, and
	// the price of Stage 4. All are priced per device: each accelerator's
	// share crosses its own host link (Eq. 8 over AccelLink(i)), its feature
	// rows ride its stack's loader (framework vs native, overlapped — see
	// perfmodel.LoadTimeForDeviceRows), and its propagation is propSec's.
	nAcc := len(e.cfg.Plat.Accels)
	if s.load == nil {
		s.load = make([]float64, nAcc)
		s.perAcc = make([]perfmodel.DeviceStage, nAcc)
	}
	loadRows := s.load
	for i := range loadRows {
		loadRows[i] = 0
	}
	if nAcc > 0 {
		for i := range s.perAcc {
			s.perAcc[i] = perfmodel.DeviceStage{}
		}
		st.PerAccel = s.perAcc
	}
	for i, mb := range batches {
		if mb == nil {
			s.inputs[i] = stepInput{}
			continue
		}
		s.inputs[i] = stepInput{x: e.cfg.Data.Features, rows: mb.InputNodes()}
		sz := sizesInto(&s.sizes, mb)
		prop, err := e.propSec(s, i, mb, sz)
		if err != nil {
			return err
		}
		if i == 0 {
			st.TrainCPU = prop
		} else { // accelerator share crosses DRAM + its host link
			if e.cfg.QuantizeTransfer {
				// The device trains on the int8 round trip of its rows, so
				// this share stages them: the slot's arena holds the block
				// until the slot's next prepare, past the step that reads it.
				if s.ws[i] == nil {
					s.ws[i] = tensor.NewWorkspace()
				}
				s.ws[i].Reset()
				x := s.ws[i].Get(len(mb.InputNodes()), e.cfg.Model.Dims[0])
				tensor.GatherRows(x, e.cfg.Data.Features, mb.InputNodes())
				tensor.QuantizeRoundTrip(x) // inject the real int8 loss
				s.inputs[i] = stepInput{x: x}
			}
			loadRows[i-1] = sz.VL[0]
			tt := e.pm.TransferTimeDev(i-1, sz)
			st.PerAccel[i-1] = perfmodel.DeviceStage{Trans: tt, Train: prop}
			st.Trans = max(st.Trans, tt)
			st.TrainAcc = max(st.TrainAcc, prop)
		}
		// Rows owned by remote shards cross the interconnect, whichever
		// trainer consumes them (the CPU trainer's in-place reads included).
		if e.locator != nil {
			s.remoteRows += e.locator.RemoteRows(mb.InputNodes())
		}
	}
	st.Load = e.pm.LoadTimeForDeviceRows(loadRows, e.assign.LoadThreads)
	if e.locator != nil {
		st.NetFetch = e.locator.FetchSec(s.remoteRows)
	}
	s.st = st
	return nil
}

// compute runs Stage 4's numerics — GNN propagation on every trainer with a
// share, on the trainer pool, then the local gradient all-reduce — over a
// prepared slot, and assembles the iteration result (owned by the slot, valid
// until its next prepare — the epoch loop consumes it within the iteration).
// The stage vector and the FPGA account are prepare's, passed through
// untouched: compute prices nothing and never calls a backend, which the
// prefetch worker may be using for the next iteration.
//
// Paper Listing 1's DONE/ACK round maps onto the pool as: the join is the
// DONE counter, the rank-order fold is the average. Everything after the
// join folds in trainer-index order — loss and correct counts are
// floating-point, so a scheduling-dependent order would make the trajectory
// depend on it — and the first failed step in that order fails the round.
func (x *hybridExecutor) compute(s *iterSlot) (*IterResult, error) {
	p := &x.e.pool
	out := &s.res
	*out = IterResult{Stage: s.st, FPGA: s.fpga, Edges: s.edges, RemoteRows: s.remoteRows}
	p.active = p.active[:0]
	totalTargets := 0
	for i, mb := range s.batches {
		if mb != nil {
			p.active = append(p.active, i)
			totalTargets += len(mb.Targets)
		}
	}
	if len(p.active) == 0 {
		return out, nil
	}
	p.run(x.e.replicas, s)

	// Weighted averaging: each trainer's mean gradient enters the sum at a
	// weight that makes the average the global-batch mean. The weight
	// *update* is applied by the coordinator to every replica (even
	// share-less ones) once the round's average is known.
	n := len(p.active)
	for r, i := range p.active {
		res := &p.res[i]
		if res.err != nil {
			return nil, res.err
		}
		t := len(s.batches[i].Targets)
		out.LossSum += res.loss * float64(t)
		out.Correct += res.acc * float64(t)
		out.Targets += t
		p.grads[r], p.scales[r] = res.grads, float32(t)*float32(n)/float32(totalTargets)
	}
	optim.WeightedMean(p.avg, p.grads[:n], p.scales[:n])
	out.Grad = p.avg
	return out, nil
}

// deviceShareInto splits the global batch of targets according to the
// engine's task mapping. Index 0 is the CPU trainer (may be empty). The
// returned slice is the slot's scratch; shares are subslices of targets.
func (e *Engine) deviceShareInto(s *iterSlot, targets []int32) [][]int32 {
	total := e.assign.TotalBatch()
	nAcc := len(e.cfg.Plat.Accels)
	if len(s.shares) != nAcc+1 {
		s.shares = make([][]int32, nAcc+1)
	}
	shares := s.shares
	for i := range shares {
		shares[i] = nil
	}
	if total == 0 {
		shares[0] = targets
		return shares
	}
	cursor := 0
	take := func(n int) []int32 {
		if cursor+n > len(targets) {
			n = len(targets) - cursor
		}
		s := targets[cursor : cursor+n]
		cursor += n
		return s
	}
	shares[0] = take(len(targets) * e.assign.CPUBatch / total)
	for i := 0; i < nAcc; i++ {
		if i == nAcc-1 {
			shares[i+1] = targets[cursor:]
			cursor = len(targets)
		} else {
			shares[i+1] = take(len(targets) * e.assign.AccelBatch[i] / total)
		}
	}
	if nAcc == 0 {
		shares[0] = targets
	}
	return shares
}

// sizesInto converts a sampled mini-batch into perfmodel.Sizes over reused
// backing arrays. The returned value shares the scratch's slices and is valid
// until the next call with the same scratch.
func sizesInto(s *perfmodel.Sizes, mb *sampler.MiniBatch) perfmodel.Sizes {
	L := len(mb.Blocks)
	if cap(s.VL) < L+1 {
		s.VL = make([]float64, L+1)
		s.EL = make([]float64, L)
	}
	s.VL = s.VL[:L+1]
	s.EL = s.EL[:L]
	s.VL[0] = float64(len(mb.Blocks[0].Src))
	for l := 0; l < L; l++ {
		s.VL[l+1] = float64(len(mb.Blocks[l].Dst))
		s.EL[l] = float64(mb.Blocks[l].NumEdges())
	}
	return *s
}

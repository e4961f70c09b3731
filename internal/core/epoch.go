package core

import "runtime"

// Epoch orchestration: the top layer of the runtime. RunEpoch owns the
// iteration loop and nothing else — it asks the batcher for targets, the
// StageExecutor for execution, lets DRM react, asks GradientSync for the
// global gradient, applies the update to every replica and advances the
// clock. Each of those layers is swappable without touching this loop.
//
// There is one loop for both schedules (Config.Pipeline):
//
//	prepare(i) → Adjust(i) → issue(i+1) → compute(i) → consume(i)
//
// DRM reacts where its input is produced: Algorithm 1 reads iteration i's
// stage vector, which is prepare's output, so the mapping moves right after
// prepare(i) and before prepare(i+1) is issued. That is the only place
// e.assign is written — between a wait and the next issue — so no prepare
// can observe it moving, and the schedule (whether "issue" hands the prepare
// to the prefetch worker or merely draws its targets) changes no number.

// epochAccum accumulates the per-iteration training statistics an epoch
// summarises at the end.
type epochAccum struct {
	lossSum   float64
	accSum    float64
	targetSum int
	edgeSum   float64
}

// consumeIteration applies one completed iteration to the training state:
// global gradient reduction, the weight update on every replica, the virtual
// clock charge and the epoch statistics — in iteration order, on the
// orchestrating goroutine. It must not write e.assign: the prefetch worker
// may be reading it for the next iteration.
func (e *Engine) consumeIteration(res *IterResult, stats *EpochStats, acc *epochAccum) error {
	acc.lossSum += res.LossSum
	acc.accSum += res.Correct
	acc.targetSum += res.Targets
	acc.edgeSum += res.Edges

	// Weight update: the local average crosses GradientSync (identity on
	// one node, ring all-reduce across shards), then EVERY replica
	// applies the broadcast result — including trainers that had no
	// share this iteration (the DRM can shrink a share to zero) — so the
	// fleet stays in lock-step.
	if res.Grad != nil {
		global, netSec, err := e.gsync.Reduce(res.Grad)
		if err != nil {
			return err
		}
		res.Stage.NetSync = netSec
		for i := range e.replicas {
			e.opts[i].Step(e.replicas[i].Params, global)
		}
	}

	e.clock.Advance(res.Stage)
	stats.NetFetchSec += res.Stage.NetFetch
	stats.NetSyncSec += res.Stage.NetSync
	stats.RemoteRows += res.RemoteRows
	stats.FPGA.Add(res.FPGA)
	return nil
}

// runIterations is the epoch's iteration loop. With worker set, prepares run
// on the prefetch worker over the depth-2 slot ring, so prepare(i+1) overlaps
// compute(i); without it, issue only draws the iteration's targets and the
// prepare runs on slot 0 right before its compute. Either way the batcher
// and the sampler RNG advance in iteration order, and compute, the weight
// updates and the DRM reaction run in iteration order on this goroutine.
func (e *Engine) runIterations(iters int, stats *EpochStats, acc *epochAccum, worker bool) error {
	if iters == 0 {
		return nil
	}
	var p *prefetcher
	depth, inflight := 1, false
	if worker {
		p, depth = e.startPrefetch(), pipelineDepth
		// Settle an in-flight prepare before stopping the worker, on every
		// way out — error return or a panic unwinding through compute: the
		// worker blocks handing its result back, and a stop sent to it then
		// would hang instead of letting the failure surface.
		defer func() {
			if inflight {
				_ = p.wait()
			}
			p.stop()
		}()
	}
	var next prepReq
	// issue draws iteration it's targets and, with a worker, starts its
	// prepare.
	issue := func(it int) {
		next = prepReq{e.slot(it % depth), e.batcher.Next()}
		if worker {
			p.issue(next)
			inflight = true
		}
	}
	// wait returns once the issued prepare has run.
	wait := func() error {
		if !worker {
			return e.exec.prepare(next.slot, next.targets)
		}
		inflight = false
		return p.wait()
	}

	issue(0)
	for it := 0; it < iters; it++ {
		cur := next.slot
		if err := wait(); err != nil {
			return err
		}
		// The worker is idle here, so nothing reads the mapping while it
		// moves.
		if e.drmEng != nil {
			e.assign = e.drmEng.Adjust(it, cur.st, e.assign)
		}
		// The slot prepare(i+1) fills is the one iteration i-1 computed in;
		// its result was fully consumed last time around.
		if it+1 < iters {
			issue(it + 1)
		}
		res, err := e.exec.compute(cur)
		if err != nil {
			return err
		}
		if err := e.consumeIteration(res, stats, acc); err != nil {
			return err
		}
	}
	return nil
}

// RunEpoch trains one full epoch and returns its statistics.
//
// The prefetch worker only pays off when another processor can actually run
// it: at GOMAXPROCS=1 the hand-off would merely time-slice prepare against
// compute (and thrash the two slots' cache working sets), so a prefetch
// configuration runs its prepares inline there — same numbers, as always.
func (e *Engine) RunEpoch() (*EpochStats, error) {
	return e.runEpoch(e.cfg.Pipeline == PipelinePrefetch && runtime.GOMAXPROCS(0) > 1)
}

// runEpoch wraps the iteration loop with the epoch's bookkeeping: batcher
// sizing, clock span, and the final statistics.
func (e *Engine) runEpoch(worker bool) (*EpochStats, error) {
	e.epoch++
	iters := e.batcher.BatchesPerEpoch()
	stats := &EpochStats{Epoch: e.epoch, Iterations: iters}
	epochStart := e.clock.Now()
	var acc epochAccum
	if err := e.runIterations(iters, stats, &acc, worker); err != nil {
		return nil, err
	}

	stats.VirtualSec = e.clock.Now() - epochStart
	if acc.targetSum > 0 {
		stats.Loss = acc.lossSum / float64(acc.targetSum)
		stats.Accuracy = acc.accSum / float64(acc.targetSum)
	}
	if stats.VirtualSec > 0 {
		stats.MTEPS = acc.edgeSum / stats.VirtualSec / 1e6
	}
	stats.Assignment = e.assign.Clone()
	return stats, nil
}

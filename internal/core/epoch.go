package core

import "runtime"

// Epoch orchestration: the top layer of the runtime. RunEpoch owns the
// iteration loop and nothing else — it asks the batcher for targets, the
// StageExecutor for execution, GradientSync for the global gradient, applies
// the update to every replica, advances the clock, and lets DRM react. Each
// of those layers is swappable without touching this loop.
//
// Two execution modes share this orchestration (Config.Pipeline): the serial
// loop below runs each iteration start-to-finish, while pipeline.go's
// software-pipelined loop overlaps iteration i+1's prepare with iteration
// i's compute. Everything an iteration *consumes* — gradient reduction,
// weight update, clock charge, DRM reaction — lives in consumeIteration so
// both loops apply bit-identical updates in the same order.

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
// clock charge, epoch statistics, and the DRM reaction. Both execution modes
// funnel through here, in iteration order, on the orchestrating goroutine.
func (e *Engine) consumeIteration(it int, res *IterResult, stats *EpochStats, acc *epochAccum) error {
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

	// --- Advance the virtual pipeline clock and let DRM react.
	e.clock.Advance(res.Stage)
	stats.NetFetchSec += res.Stage.NetFetch
	stats.NetSyncSec += res.Stage.NetSync
	stats.RemoteRows += res.RemoteRows
	stats.FPGA.Add(res.FPGA)
	if e.drmEng != nil {
		e.assign = e.drmEng.Adjust(it, res.Stage, e.assign)
	}
	return nil
}

// runSerial is the classic loop: each iteration's prepare and compute run
// back to back on the calling goroutine.
func (e *Engine) runSerial(iters int, stats *EpochStats, acc *epochAccum) error {
	for it := 0; it < iters; it++ {
		res, err := e.exec.RunIteration(e.batcher.Next())
		if err != nil {
			return err
		}
		if err := e.consumeIteration(it, res, stats, acc); err != nil {
			return err
		}
	}
	return nil
}

// RunEpoch trains one full epoch and returns its statistics.
//
// In prefetch mode the worker goroutine only pays off when another
// processor can actually run it: at GOMAXPROCS=1 the hand-off would merely
// time-slice prepare against compute (and thrash the two slots' cache
// working sets), so the pipelined schedule runs inline instead. The two
// variants are bitwise identical — the DRM lag comes from *when* the
// assignment snapshot is taken, not from asynchrony — which the oracle
// tests pin.
func (e *Engine) RunEpoch() (*EpochStats, error) {
	if e.cfg.Pipeline == PipelinePrefetch {
		async := runtime.GOMAXPROCS(0) > 1
		return e.runEpoch(func(iters int, stats *EpochStats, acc *epochAccum) error {
			return e.runPipelined(iters, stats, acc, async)
		})
	}
	return e.runEpoch(e.runSerial)
}

// runEpoch wraps one epoch's iteration loop with the shared bookkeeping:
// batcher sizing, clock span, and the final statistics.
func (e *Engine) runEpoch(run func(int, *EpochStats, *epochAccum) error) (*EpochStats, error) {
	e.epoch++
	iters := e.batcher.BatchesPerEpoch()
	stats := &EpochStats{Epoch: e.epoch, Iterations: iters}
	epochStart := e.clock.Now()
	var acc epochAccum
	if err := run(iters, stats, &acc); err != nil {
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

package core

// Test-only epoch entry points: the two fixed schedules of runPipelined that
// the determinism tests compare RunEpoch against.

// runEpochOracle runs one epoch on the pipelined *schedule* — prepare(i+1)
// issued, and its assignment snapshotted, before DRM reacts to iteration i —
// but synchronously, with no worker goroutine. It is the lagged serial
// oracle: with DRM on, RunEpoch in prefetch mode must match it bit for bit,
// which pins the one-iteration-lag semantics independently of scheduling.
func (e *Engine) runEpochOracle() (*EpochStats, error) {
	return e.runEpoch(func(iters int, stats *EpochStats, acc *epochAccum) error {
		return e.runPipelined(iters, stats, acc, false)
	})
}

// runEpochAsync forces the worker-backed schedule regardless of GOMAXPROCS.
// RunEpoch degenerates to the inline schedule on a single proc (the worker
// could only time-slice there); tests use this to pin the hand-off
// machinery itself at GOMAXPROCS=1, where cooperative scheduling is at its
// most adversarial.
func (e *Engine) runEpochAsync() (*EpochStats, error) {
	return e.runEpoch(func(iters int, stats *EpochStats, acc *epochAccum) error {
		return e.runPipelined(iters, stats, acc, true)
	})
}

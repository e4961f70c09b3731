package core

// runEpochAsync forces the worker-backed schedule regardless of GOMAXPROCS.
// RunEpoch runs a prefetch configuration's prepares inline on a single proc
// (the worker could only time-slice there); tests use this to pin the
// hand-off machinery itself at GOMAXPROCS=1, where cooperative scheduling is
// at its most adversarial.
func (e *Engine) runEpochAsync() (*EpochStats, error) { return e.runEpoch(true) }

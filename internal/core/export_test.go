package core

// runEpochAsync forces the prefetch worker regardless of GOMAXPROCS.
// RunEpoch runs every prepare inline on a single proc (the worker could only
// time-slice there); tests use this to pin the hand-off machinery itself at
// GOMAXPROCS=1, where cooperative scheduling is at its most adversarial.
func (e *Engine) runEpochAsync() (*EpochStats, error) { return e.runEpoch(true) }

// runEpochInline forces the inline path regardless of GOMAXPROCS: each
// prepare runs on slot 0 right before its compute. It is the reference the
// worker-backed epochs are held to bit for bit.
func (e *Engine) runEpochInline() (*EpochStats, error) { return e.runEpoch(false) }

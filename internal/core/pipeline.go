package core

import "fmt"

// Software-pipelined epoch execution (paper Fig. 4/5, §IV-B): a prefetch
// worker runs prepare for iteration i+1 — sampling, feature gather/staging,
// transfer pricing — while the trainer fleet computes iteration i, over a
// depth-2 ring of iteration slots. This turns the two-stage feature
// prefetching the virtual pipeline clock has always *charged* into executed
// behavior: the wall-clock iteration tends to max(prepare, compute) instead
// of their sum.
//
// Why the trajectory stays bitwise identical to serial execution: prepare
// depends only on the batcher/RNG stream and the slot's assignment snapshot
// — never on model weights — and compute consumes no randomness. A single
// worker serializes the prepares, and targets are drawn from the batcher on
// the orchestrating goroutine at issue time, so the RNG and batcher advance
// in exactly the serial order; compute and the weight updates run in
// iteration order on the orchestrating goroutine. With DRM off the executed
// numbers are therefore bit-for-bit the serial ones at any GOMAXPROCS. With
// DRM on, prepare(i+1)'s snapshot is taken *before* the DRM engine reacts to
// iteration i — the paper's natural one-iteration lag (Fig. 5: the engine
// adapts while the pipeline flows). The same loop with async=false is the
// lagged serial oracle the pipelined mode is pinned against.

// pipelineDepth is the iteration-slot ring size: one slot being computed,
// one being prepared.
const pipelineDepth = 2

// PipelineMode selects how the epoch loop schedules prepare against
// compute. The zero value is the serial mode, so existing configurations
// are unchanged.
type PipelineMode int

const (
	// PipelineSerial runs each iteration start-to-finish: prepare(i) then
	// compute(i) on the calling goroutine.
	PipelineSerial PipelineMode = iota
	// PipelinePrefetch overlaps prepare(i+1) with compute(i) on a prefetch
	// worker (the paper's pipelined execution).
	PipelinePrefetch
)

// ParsePipelineMode parses the -pipeline flag values. The empty string maps
// to the serial default, mirroring the Config zero value.
func ParsePipelineMode(s string) (PipelineMode, error) {
	switch s {
	case "", "serial":
		return PipelineSerial, nil
	case "prefetch":
		return PipelinePrefetch, nil
	}
	return PipelineSerial, fmt.Errorf("core: unknown pipeline mode %q (want serial|prefetch)", s)
}

func (m PipelineMode) String() string {
	if m == PipelinePrefetch {
		return "prefetch"
	}
	return "serial"
}

// prepReq is one prefetch-worker work item. A nil slot is the stop sentinel.
type prepReq struct {
	slot    *iterSlot
	targets []int32
}

// prefetcher is the channel pair the prepare worker lives on. The channels
// are created once per engine and reused across epochs; the worker
// goroutine itself is per-epoch (started by startPrefetch, stopped by
// stop), so an idle engine holds no goroutine and cannot leak. Unbuffered
// channels give the strict hand-off the ring needs: issue happens-before
// the worker's prepare, which happens-before wait returns.
type prefetcher struct {
	req  chan prepReq
	done chan error
}

// startPrefetch launches the epoch's prepare worker and returns the
// engine's (lazily created, reused) prefetcher.
func (e *Engine) startPrefetch() *prefetcher {
	if e.prefetch == nil {
		e.prefetch = &prefetcher{req: make(chan prepReq), done: make(chan error)}
	}
	p := e.prefetch
	go func() {
		for {
			r := <-p.req
			if r.slot == nil {
				return
			}
			p.done <- e.exec.prepare(r.slot, r.targets)
		}
	}()
	return p
}

// issue hands a prepare to the worker.
func (p *prefetcher) issue(s *iterSlot, targets []int32) { p.req <- prepReq{s, targets} }

// wait blocks until the worker finishes the in-flight prepare.
func (p *prefetcher) wait() error { return <-p.done }

// stop terminates the worker. Callers must have drained any in-flight
// prepare first (the worker blocks sending its result otherwise).
func (p *prefetcher) stop() { p.req <- prepReq{} }

// runPipelined executes one epoch software-pipelined. With async=true the
// prepares run on the prefetch worker, overlapping compute; with
// async=false the identical schedule runs on the calling goroutine — the
// lagged serial oracle the determinism tests pin against (same
// issue-before-DRM input capture, no concurrency) and the mode RunEpoch
// degenerates to at GOMAXPROCS=1.
func (e *Engine) runPipelined(iters int, stats *EpochStats, acc *epochAccum, async bool) error {
	if iters == 0 {
		return nil
	}
	var p *prefetcher
	inflight := false
	if async {
		p = e.startPrefetch()
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
	// In the synchronous variant the issue point only *captures* the
	// prepare's inputs — the targets and the assignment snapshot, which fix
	// its result completely — and the prepare itself runs lazily, right
	// before its compute. That keeps issue-time semantics identical to the
	// worker (same batcher/RNG order, same pre-DRM snapshot) while compute
	// reads a freshly written slot, exactly like serial execution. With the
	// prepares lazy there is nothing in flight to keep separate, so sync
	// mode also stays on one hot slot instead of alternating the ring —
	// the snapshot lands in the slot before the lazy prepare(i) reads it,
	// and compute never touches s.assign.
	var pending prepReq
	slotFor := func(it int) *iterSlot {
		if !async {
			return e.slot(0)
		}
		return e.slot(it % pipelineDepth)
	}

	// Fill the pipeline: issue prepare(0) against the current assignment.
	s0 := slotFor(0)
	e.assign.CloneInto(&s0.assign)
	if async {
		p.issue(s0, e.batcher.Next())
		inflight = true
	} else {
		pending = prepReq{s0, e.batcher.Next()}
	}

	for it := 0; it < iters; it++ {
		cur := slotFor(it)
		if async {
			if err := p.wait(); err != nil {
				inflight = false
				return err
			}
			inflight = false
		} else if err := e.exec.prepare(pending.slot, pending.targets); err != nil {
			return err
		}
		// Issue prepare(i+1) before compute(i): the assignment snapshot is
		// taken now — before DRM reacts to iteration i — which is the
		// one-iteration lag, and the worker overlaps the trainers below.
		// The target slot is the one iteration i-1 computed in; its result
		// was fully consumed last time around.
		if it+1 < iters {
			nxt := slotFor(it + 1)
			e.assign.CloneInto(&nxt.assign)
			if async {
				p.issue(nxt, e.batcher.Next())
				inflight = true
			} else {
				pending = prepReq{nxt, e.batcher.Next()}
			}
		}
		res, err := e.exec.compute(cur)
		if err != nil {
			return err
		}
		if err := e.consumeIteration(it, res, stats, acc); err != nil {
			return err
		}
	}
	return nil
}

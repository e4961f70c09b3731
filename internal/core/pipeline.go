package core

import "fmt"

// Software-pipelined epoch execution (paper Fig. 4/5, §IV-B): a prefetch
// worker runs prepare for iteration i+1 — sampling, the trainers' layer-0
// inputs (staging only a quantized accelerator share's features), the
// iteration's prices — while the trainer fleet computes iteration i, over
// a depth-2 ring of iteration slots. This turns the two-stage feature
// prefetching the virtual pipeline clock has always *charged* into executed
// behavior: the wall-clock iteration tends to max(prepare, compute) instead
// of their sum.
//
// Why the trajectory is bitwise the serial one, DRM on or off: prepare
// depends only on the batcher/RNG stream and the task mapping — never on
// model weights — and compute consumes no randomness. A single worker
// serializes the prepares, targets are drawn from the batcher on the
// orchestrating goroutine at issue time, and the mapping moves only while the
// worker is idle (epoch.go), so every prepare sees exactly the inputs the
// serial schedule would hand it; compute and the weight updates run in
// iteration order on the orchestrating goroutine.

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

// prepReq is one issued prepare: the slot it fills and the targets it
// samples from. On the worker's channel a nil slot is the stop sentinel.
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
func (p *prefetcher) issue(r prepReq) { p.req <- r }

// wait blocks until the worker finishes the in-flight prepare.
func (p *prefetcher) wait() error { return <-p.done }

// stop terminates the worker. Callers must have drained any in-flight
// prepare first (the worker blocks sending its result otherwise).
func (p *prefetcher) stop() { p.req <- prepReq{} }

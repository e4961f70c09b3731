package serve

import "fmt"

// Request is one inference query in the open-loop stream: which vertex to
// classify, when it arrived (virtual seconds), its SLO class, and the
// workload cohort that generated it.
type Request struct {
	ID      int
	Vertex  int32
	Arrival float64
	Class   SLOClass
	Cohort  uint8
}

// Formation policy names.
const (
	FormationFCFS     = "fcfs"
	FormationPriority = "priority"
)

// parseFormation normalizes a batch-formation policy name ("" → fcfs).
func parseFormation(name string) (string, error) {
	switch name {
	case "", FormationFCFS:
		return FormationFCFS, nil
	case FormationPriority:
		return FormationPriority, nil
	}
	return "", fmt.Errorf("serve: unknown formation policy %q (want fcfs or priority)", name)
}

// classWindowWeight scales the batching window per SLO class: interactive
// requests tolerate only a quarter of the window, so their presence pulls a
// mixed batch's close forward; standard and bulk wait the full window. All
// weights are ≤ 1, keeping WindowSec the worst-case batching delay.
func classWindowWeight(c SLOClass) float64 {
	if c == ClassInteractive {
		return 0.25
	}
	return 1
}

// sortByClass insertion-sorts a batch by (class, arrival, ID). Batches are
// MaxBatch-bounded and arrive nearly sorted, and sort.Slice would allocate
// on the zero-alloc dispatch path.
func sortByClass(batch []Request) {
	for i := 1; i < len(batch); i++ {
		r := batch[i]
		j := i - 1
		for j >= 0 && classLess(r, batch[j]) {
			batch[j+1] = batch[j]
			j--
		}
		batch[j+1] = r
	}
}

func classLess(a, b Request) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// DynamicBatcher groups admitted requests into batches: a batch closes when
// it reaches MaxBatch requests or when its formation deadline passes,
// whichever comes first — the standard size-or-deadline policy of online
// inference servers. The deadline is the minimum over the batch's members
// of arrival + WindowSec·weight, with every weight ≤ 1, so WindowSec stays
// the worst-case batching delay. The formations differ only in the weight
// and the dispatch order:
//   - fcfs (the default): weight 1, so the deadline is the oldest arrival
//     plus WindowSec; the batch dispatches in arrival order.
//   - priority: the class weight (classWindowWeight), so an interactive
//     arrival cuts a mixed batch's batching delay to a quarter of the
//     window; the batch dispatches in (class, arrival) order.
//
// A window of 0 closes every batch immediately (no batching delay, batch
// size 1 unless requests arrive at the same instant).
//
// The batcher optionally carries a per-kind split cut for heterogeneous
// pools: a closed batch whose compute demand is at or under the cut is
// "small" — typically a cache-hot batch whose misses coalesced to a handful
// of vertices — and the router prefers to land it on the host CPU peer,
// which pays no transfer or kernel-launch cost, keeping the accelerators
// free for the batches that amortize their fixed overheads.
type DynamicBatcher struct {
	maxBatch int
	window   float64
	smallCut int
	// formation is the parsed policy name.
	formation string
	// deadline is the open batch's close deadline, maintained incrementally
	// by Add (undefined while pending is empty).
	deadline float64
	pending  []Request
	// spare is the other half of take()'s ping-pong: closed batches and the
	// open batch alternate between two retained backing arrays, so the
	// steady state allocates nothing. See the validity contract on take.
	spare []Request
}

// NewSplitBatcher validates the knobs and builds an FCFS batcher whose closed
// batches are additionally classified by the per-kind split cut: batches
// with at most smallCut computed targets count as small. A cut of 0
// disables the split.
func NewSplitBatcher(maxBatch int, window float64, smallCut int) (*DynamicBatcher, error) {
	if smallCut < 0 {
		return nil, fmt.Errorf("serve: negative small-batch cut %d", smallCut)
	}
	if maxBatch <= 0 {
		return nil, fmt.Errorf("serve: non-positive max batch %d", maxBatch)
	}
	if !finiteAtLeast(window, 0) {
		return nil, fmt.Errorf("serve: batch window %v is not a finite non-negative number", window)
	}
	return &DynamicBatcher{maxBatch: maxBatch, window: window, smallCut: smallCut, formation: FormationFCFS}, nil
}

// SetFormation selects the batch-formation policy by name. Must be called
// before any request is added. The second parameter is unused; it stays
// until the benchmark's call site stops passing it.
func (b *DynamicBatcher) SetFormation(name string, _ func(size int) float64) error {
	parsed, err := parseFormation(name)
	if err != nil {
		return err
	}
	if len(b.pending) > 0 {
		return fmt.Errorf("serve: cannot change formation with a batch open")
	}
	b.formation = parsed
	return nil
}

// small reports whether a closed batch with `computed` cache-missing targets
// falls under the per-kind split cut.
func (b *DynamicBatcher) small(computed int) bool {
	return b.smallCut > 0 && computed <= b.smallCut
}

// pendingLen returns the number of requests waiting in the open batch.
func (b *DynamicBatcher) pendingLen() int { return len(b.pending) }

// closeDeadline returns the close deadline of the open batch, or false when no
// batch is open. It is never before a member's arrival: each member's own
// term is at least its arrival, and a request arriving after the deadline
// finds the batch already closed by CloseExpired.
func (b *DynamicBatcher) closeDeadline() (float64, bool) {
	if len(b.pending) == 0 {
		return 0, false
	}
	return b.deadline, true
}

// Add appends a request (arrivals must be non-decreasing) and re-prices the
// open batch's close deadline under the formation. If r fills the batch to
// MaxBatch, the batch closes immediately at r's arrival time and is returned;
// otherwise it returns nil. Callers must drain CloseExpired up to r's arrival
// before adding.
func (b *DynamicBatcher) Add(r Request) (batch []Request, closeAt float64) {
	w := 1.0
	if b.formation == FormationPriority {
		w = classWindowWeight(r.Class)
	}
	d := r.Arrival + b.window*w
	b.pending = append(b.pending, r)
	if len(b.pending) == 1 || d < b.deadline {
		b.deadline = d
	}
	if len(b.pending) >= b.maxBatch {
		return b.take(), r.Arrival
	}
	return nil, 0
}

// CloseExpired returns the open batch if its deadline has passed by `now`,
// with the deadline as the close time; otherwise nil. Call repeatedly until
// it returns nil (each admitted request can open a new batch).
func (b *DynamicBatcher) CloseExpired(now float64) (batch []Request, closeAt float64) {
	dl, open := b.closeDeadline()
	if !open || dl > now {
		return nil, 0
	}
	return b.take(), dl
}

// Flush closes the open batch at its deadline regardless of current time
// (end of stream: the window will expire with no further arrivals).
func (b *DynamicBatcher) Flush() (batch []Request, closeAt float64) {
	dl, open := b.closeDeadline()
	if !open {
		return nil, 0
	}
	return b.take(), dl
}

// take closes the open batch in formation order, swapping in the spare
// backing array for the next one. The returned slice is reused as the open
// batch after the *next* close — valid until then. The serving loop
// dispatches each batch synchronously before touching the batcher again, so
// it never observes the reuse; callers that retain a batch must copy it.
func (b *DynamicBatcher) take() []Request {
	batch := b.pending
	b.pending = b.spare[:0]
	b.spare = batch
	if b.formation == FormationPriority {
		sortByClass(batch)
	}
	return batch
}

package serve

import (
	"fmt"
	"math"
)

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
	FormationSJF      = "sjf"
)

// ParseFormation normalizes a batch-formation policy name ("" → fcfs).
func ParseFormation(name string) (string, error) {
	switch name {
	case "", FormationFCFS:
		return FormationFCFS, nil
	case FormationPriority, "priority-fcfs":
		return FormationPriority, nil
	case FormationSJF, "sjf-predicted":
		return FormationSJF, nil
	}
	return "", fmt.Errorf("serve: unknown formation policy %q (want fcfs, priority, or sjf)", name)
}

// FormationPolicy shapes batch formation behind the batcher's
// size-or-deadline contract: it prices the open pool's close deadline
// incrementally as members join — never later than the oldest arrival plus
// the window — and arranges a closed batch's dispatch order. The batcher
// clamps the deadline to the newest member's arrival, so a policy that
// pulls the deadline in can never close a batch before a request it
// contains arrived.
type FormationPolicy interface {
	Name() string
	// PoolDeadline updates the open pool's close deadline after r joined:
	// prev is the deadline before r (+Inf for a fresh pool) and size the
	// pool size including r.
	PoolDeadline(prev float64, r Request, size int, window float64) float64
	// Order arranges a closed batch into dispatch order, in place.
	Order(batch []Request)
}

// fcfsFormation is the default policy and the pre-formation batcher's exact
// behavior: the pool closes when its oldest member has waited the full
// window, in arrival order.
type fcfsFormation struct{}

func (fcfsFormation) Name() string { return FormationFCFS }

func (fcfsFormation) PoolDeadline(prev float64, r Request, size int, window float64) float64 {
	if size == 1 {
		return r.Arrival + window
	}
	return prev
}

func (fcfsFormation) Order([]Request) {}

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

// priorityFormation is priority-FCFS: each member prices its own
// class-weighted deadline and the pool closes at the earliest one, so an
// interactive arrival cuts a mixed batch's batching delay to a quarter of
// the window; members dispatch in (class, arrival) order.
type priorityFormation struct{}

func (priorityFormation) Name() string { return FormationPriority }

func (priorityFormation) PoolDeadline(prev float64, r Request, size int, window float64) float64 {
	d := r.Arrival + window*classWindowWeight(r.Class)
	if size == 1 || d < prev {
		return d
	}
	return prev
}

func (priorityFormation) Order(batch []Request) { sortByClass(batch) }

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

// sjfFormation is shortest-job-first by predicted service: the pool's close
// deadline is the oldest arrival plus whatever window remains after the
// predicted service time of the pool as a batch. Cheap pools wait the full
// window to fill; a pool already predicted expensive stops accumulating
// work, trading mean batch size for tail latency.
type sjfFormation struct {
	svc   func(size int) float64 // predicted batch service for `size` targets
	first float64                // oldest arrival of the open pool
}

func (f *sjfFormation) Name() string { return FormationSJF }

func (f *sjfFormation) PoolDeadline(prev float64, r Request, size int, window float64) float64 {
	if size == 1 {
		f.first = r.Arrival
	}
	d := window - f.svc(size)
	if d < 0 {
		d = 0
	}
	return f.first + d
}

func (f *sjfFormation) Order([]Request) {}

// DynamicBatcher groups admitted requests into batches: a batch closes when
// it reaches MaxBatch requests or when its formation deadline passes,
// whichever comes first — the standard size-or-deadline policy of online
// inference servers. Under the default FCFS formation the deadline is the
// oldest request's arrival plus WindowSec; other formation policies may
// pull the deadline in (never push it out), so WindowSec stays the
// worst-case batching delay. A window of 0 closes every batch immediately
// (no batching delay, batch size 1 unless requests arrive at the same
// instant).
//
// The batcher optionally carries a per-kind split cut for heterogeneous
// pools: a closed batch whose compute demand is at or under the cut is
// "small" — typically a cache-hot batch whose misses coalesced to a handful
// of vertices — and the router prefers to land it on the host CPU peer,
// which pays no transfer or kernel-launch cost, keeping the accelerators
// free for the batches that amortize their fixed overheads.
type DynamicBatcher struct {
	maxBatch  int
	window    float64
	smallCut  int
	formation FormationPolicy
	// deadline is the open pool's close deadline under the formation policy,
	// maintained incrementally by Add (undefined while pending is empty).
	deadline float64
	pending  []Request
	// spare is the other half of take()'s ping-pong: closed batches and the
	// open batch alternate between two retained backing arrays, so the
	// steady state allocates nothing. See the validity contract on take.
	spare []Request
}

// NewDynamicBatcher validates the knobs.
func NewDynamicBatcher(maxBatch int, window float64) (*DynamicBatcher, error) {
	if maxBatch <= 0 {
		return nil, fmt.Errorf("serve: non-positive max batch %d", maxBatch)
	}
	if window < 0 {
		return nil, fmt.Errorf("serve: negative batch window %v", window)
	}
	return &DynamicBatcher{maxBatch: maxBatch, window: window, formation: fcfsFormation{}}, nil
}

// NewSplitBatcher builds a batcher whose closed batches are additionally
// classified by the per-kind split cut: batches with at most smallCut
// computed targets count as Small. A cut of 0 disables the split.
func NewSplitBatcher(maxBatch int, window float64, smallCut int) (*DynamicBatcher, error) {
	if smallCut < 0 {
		return nil, fmt.Errorf("serve: negative small-batch cut %d", smallCut)
	}
	b, err := NewDynamicBatcher(maxBatch, window)
	if err != nil {
		return nil, err
	}
	b.smallCut = smallCut
	return b, nil
}

// SetFormation selects the batch-formation policy by name; the sjf policy
// needs a predicted-service function over the batch size (the server wires
// the pool's dense ServiceSec memo). Must be called before any request is
// added.
func (b *DynamicBatcher) SetFormation(name string, svc func(size int) float64) error {
	parsed, err := ParseFormation(name)
	if err != nil {
		return err
	}
	if len(b.pending) > 0 {
		return fmt.Errorf("serve: cannot change formation with a batch open")
	}
	switch parsed {
	case FormationPriority:
		b.formation = priorityFormation{}
	case FormationSJF:
		if svc == nil {
			return fmt.Errorf("serve: sjf formation needs a service predictor")
		}
		b.formation = &sjfFormation{svc: svc}
	default:
		b.formation = fcfsFormation{}
	}
	return nil
}

// Formation returns the active formation policy's name.
func (b *DynamicBatcher) Formation() string { return b.formation.Name() }

// Small reports whether a closed batch with `computed` cache-missing targets
// falls under the per-kind split cut.
func (b *DynamicBatcher) Small(computed int) bool {
	return b.smallCut > 0 && computed <= b.smallCut
}

// Pending returns the number of requests waiting in the open batch.
func (b *DynamicBatcher) Pending() int { return len(b.pending) }

// Deadline returns the close deadline of the open batch, or false when no
// batch is open. The policy deadline is clamped to the newest member's
// arrival: a policy that pulls the deadline in as the pool grows (sjf) must
// never close a batch before a request it contains arrived.
func (b *DynamicBatcher) Deadline() (float64, bool) {
	if len(b.pending) == 0 {
		return 0, false
	}
	dl := b.deadline
	if last := b.pending[len(b.pending)-1].Arrival; dl < last {
		dl = last
	}
	return dl, true
}

// Add appends a request (arrivals must be non-decreasing). If r fills the
// batch to MaxBatch, the batch closes immediately at r's arrival time and is
// returned; otherwise it returns nil. Callers must drain CloseExpired up to
// r's arrival before adding.
func (b *DynamicBatcher) Add(r Request) (batch []Request, closeAt float64) {
	prev := b.deadline
	if len(b.pending) == 0 {
		prev = math.Inf(1)
	}
	b.pending = append(b.pending, r)
	b.deadline = b.formation.PoolDeadline(prev, r, len(b.pending), b.window)
	if len(b.pending) >= b.maxBatch {
		return b.take(), r.Arrival
	}
	return nil, 0
}

// CloseExpired returns the open batch if its deadline has passed by `now`,
// with the deadline as the close time; otherwise nil. Call repeatedly until
// it returns nil (each admitted request can open a new batch).
func (b *DynamicBatcher) CloseExpired(now float64) (batch []Request, closeAt float64) {
	dl, open := b.Deadline()
	if !open || dl > now {
		return nil, 0
	}
	return b.take(), dl
}

// Flush closes the open batch at its deadline regardless of current time
// (end of stream: the window will expire with no further arrivals).
func (b *DynamicBatcher) Flush() (batch []Request, closeAt float64) {
	dl, open := b.Deadline()
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
	b.formation.Order(batch)
	return batch
}

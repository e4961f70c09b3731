package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/gnn"
	"repro/internal/hw"
)

// ring is the executed counterpart of perfmodel.RingAllReduceSec: a chunked
// ring all-reduce over in-process channels. Each node goroutine calls
// allReduce once per training iteration; the 2·(m−1) message steps move real
// gradient chunks between neighbours, and each step charges the inter-node
// link's transfer time on the caller's virtual clock.
//
// Membership can shrink (survivor re-ring). Ranks synchronise on a round
// barrier: a rank that fail-stops leaves at a round boundary, the survivors
// rebuild the ring over the live ranks and continue. The barrier is exact —
// a round advances iff every live rank has entered it — so a departure can
// never strand a message in an inbox: every message sent in round k is
// consumed in round k. A fault-free fleet is the same ring with a view that
// never shrinks.
type ring struct {
	link  hw.Link
	inbox []chan []float32 // inbox[r] receives from its predecessor in the view
	// free recycles message buffers: a receiver hands a chunk back once it has
	// folded or copied it, a sender takes one before it allocates. A rank
	// alternates take and hand-back, so at most one buffer per rank is out at
	// any time and a list of that many slots never drops one in steady state.
	free chan []float32
	// faults scripts link degradation by ring round (nil-safe: never degraded).
	faults *fault.Schedule

	// abort unblocks every rank when one node dies mid-epoch: without it a
	// single failure would leave the survivors waiting forever on a message
	// that never comes. A failed ring stays failed — the fleet is done.
	abort     chan struct{}
	abortOnce sync.Once

	mu      sync.Mutex
	cond    *sync.Cond
	alive   []bool
	liveN   int
	entered int
	round   int
	view    []int // live ranks, ascending — the round's ring order
	aborted bool
}

// errRingAborted surfaces on the surviving ranks after fail().
var errRingAborted = errors.New("cluster: ring all-reduce aborted (a peer node failed)")

func newRing(n int, link hw.Link, faults *fault.Schedule) *ring {
	r := &ring{link: link, faults: faults,
		inbox: make([]chan []float32, n), free: make(chan []float32, n), abort: make(chan struct{}),
		alive: make([]bool, n), liveN: n, view: make([]int, 0, n)}
	r.cond = sync.NewCond(&r.mu)
	for i := range r.inbox {
		r.inbox[i] = make(chan []float32, 1)
		r.alive[i] = true
	}
	r.rebuildView()
	return r
}

// fail permanently aborts the ring, releasing every blocked rank — those
// waiting on a chunk and those waiting on the membership barrier.
func (r *ring) fail() {
	r.abortOnce.Do(func() {
		close(r.abort)
		r.mu.Lock()
		r.aborted = true
		r.cond.Broadcast()
		r.mu.Unlock()
	})
}

// rebuildView recomputes the live-rank ring order (callers hold mu).
func (r *ring) rebuildView() {
	r.view = r.view[:0]
	for i, a := range r.alive {
		if a {
			r.view = append(r.view, i)
		}
	}
}

// advanceLocked starts the next round: resets the barrier, rebuilds the live
// view, and wakes every waiter (callers hold mu).
func (r *ring) advanceLocked() {
	r.entered = 0
	r.round++
	r.rebuildView()
	r.cond.Broadcast()
}

// enter blocks until every live rank has entered the current round, then
// returns the round's membership view. The returned slice is shared, not
// copied — safe because the next round cannot advance (and so the view
// cannot be rebuilt) until every rank that read it has re-entered the
// barrier, which happens only after it finished using the view.
func (r *ring) enter() ([]int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.aborted {
		return nil, errRingAborted
	}
	myRound := r.round
	r.entered++
	if r.entered == r.liveN {
		r.advanceLocked()
	} else {
		for r.round == myRound && !r.aborted {
			r.cond.Wait()
		}
		if r.aborted {
			return nil, errRingAborted
		}
	}
	return r.view, nil
}

// leave removes a rank from the membership at a round boundary (the rank
// must not have entered the round it is skipping). If every other live rank
// is already waiting on the barrier, the departure is what completes it —
// advance on the leaver's behalf so the survivors are not stranded.
func (r *ring) leave(rank int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.alive[rank] {
		return
	}
	r.alive[rank] = false
	r.liveN--
	if r.liveN > 0 && r.entered == r.liveN {
		r.advanceLocked()
	}
}

// chunkBounds returns the [lo, hi) range of chunk c when a vector of length
// m is split into n contiguous chunks.
func chunkBounds(m, n, c int) (int, int) {
	return c * m / n, (c + 1) * m / n
}

func mod(a, n int) int { return ((a % n) + n) % n }

// takeMsg returns a message buffer of length n: a recycled one when the free
// list has one that fits, else a fresh one with room for the round's largest
// chunk (so it fits every chunk of this view once recycled).
func (r *ring) takeMsg(n, maxChunk int) []float32 {
	select {
	case buf := <-r.free:
		if cap(buf) >= n {
			return buf[:n]
		}
	default:
	}
	return make([]float32, n, maxChunk)
}

// giveMsg hands a consumed message back to the senders.
func (r *ring) giveMsg(buf []float32) {
	select {
	case r.free <- buf:
	default:
	}
}

// allReduce averages vec element-wise across the live ranks, in place, and
// returns the virtual network seconds this rank spent. Every live rank must
// call it concurrently, once per round, with equal-length vectors. iter is
// the global ring round, consulted for scripted link degradation.
//
// The round's membership view fixes the geometry: m = live ranks, chunks and
// neighbours by position in the view. Scatter-reduce: at step s, position p
// sends chunk (p−s) mod m to position p+1 and folds the received chunk
// (p−s−1) mod m into its own copy; after m−1 steps position p owns the fully
// reduced chunk (p+1) mod m. All-gather: m−1 more steps circulate the
// reduced chunks until every rank holds all of them. The final scale 1/m is
// exactly the survivor rescale: after a fail-stop the mean is taken over the
// m nodes that actually contributed gradients.
func (r *ring) allReduce(rank, iter int, vec []float32) (float64, error) {
	view, err := r.enter()
	if err != nil {
		return 0, err
	}
	m := len(view)
	if m <= 1 {
		return 0, nil
	}
	pos := 0
	for i, rk := range view {
		if rk == rank {
			pos = i
			break
		}
	}
	link := r.link.Degraded(r.faults.LinkFactor(iter))
	next := r.inbox[view[mod(pos+1, m)]]
	self := r.inbox[rank]
	maxChunk := (len(vec) + m - 1) / m
	var sec float64
	send := func(c int) error {
		lo, hi := chunkBounds(len(vec), m, c)
		msg := r.takeMsg(hi-lo, maxChunk)
		copy(msg, vec[lo:hi])
		select {
		case next <- msg:
		case <-r.abort:
			return errRingAborted
		}
		sec += link.TransferSec(float64(len(msg)) * 4)
		return nil
	}
	recv := func() ([]float32, error) {
		select {
		case got := <-self:
			return got, nil
		case <-r.abort:
			return nil, errRingAborted
		}
	}
	for step := 0; step < m-1; step++ { // scatter-reduce
		if err := send(mod(pos-step, m)); err != nil {
			return sec, err
		}
		got, err := recv()
		if err != nil {
			return sec, err
		}
		lo, _ := chunkBounds(len(vec), m, mod(pos-step-1, m))
		for i, v := range got {
			vec[lo+i] += v
		}
		r.giveMsg(got)
	}
	for step := 0; step < m-1; step++ { // all-gather
		if err := send(mod(pos-step+1, m)); err != nil {
			return sec, err
		}
		got, err := recv()
		if err != nil {
			return sec, err
		}
		lo, _ := chunkBounds(len(vec), m, mod(pos-step, m))
		copy(vec[lo:], got)
		r.giveMsg(got)
	}
	inv := 1 / float32(m)
	for i := range vec {
		vec[i] *= inv
	}
	return sec, nil
}

// flattenGrads copies a gradient set into one contiguous vector (the wire
// format of the ring), reusing vec's storage when it is large enough.
func flattenGrads(vec []float32, g *gnn.Gradients) []float32 {
	size := 0
	for i := range g.Weights {
		size += len(g.Weights[i].Data) + len(g.Biases[i].Data)
	}
	if cap(vec) < size {
		vec = make([]float32, 0, size)
	}
	vec = vec[:0]
	for i := range g.Weights {
		vec = append(vec, g.Weights[i].Data...)
		vec = append(vec, g.Biases[i].Data...)
	}
	return vec
}

// unflattenGrads writes a flat vector back into a gradient set of the same
// shape flattenGrads read from.
func unflattenGrads(vec []float32, g *gnn.Gradients) {
	cursor := 0
	for i := range g.Weights {
		cursor += copy(g.Weights[i].Data, vec[cursor:])
		cursor += copy(g.Biases[i].Data, vec[cursor:])
	}
}

// errNodeFailStop marks a scripted graceful departure: the rank left the
// ring at a round boundary and the survivors continue without it — unlike a
// crash, which aborts the whole ring. RunEpoch treats it as a membership
// change, not a failure of the run.
var errNodeFailStop = errors.New("cluster: node fail-stop (scripted)")

// nodeSync is the core.GradientSync of one shard: it bridges the node's
// local gradient average into the cross-node ring. It counts ring rounds
// across epochs and executes the rank's scripted fate: a fail-stop leaves the
// membership before the round, a crash errors outright (aborting the ring),
// and every other round reduces over whoever is still alive.
type nodeSync struct {
	rank int
	ring *ring
	vec  []float32 // the flat gradient vector, kept across rounds

	iter      int // cumulative ring rounds across epochs, from 0
	failIter  int // leave before this round (-1 = never)
	crashIter int // crash at this round (-1 = never)
	// tap, when set, observes the flattened gradient vector before and after
	// each reduce — the oracle tests' window into the wire format.
	tap func(rank, iter int, vec []float32, post bool)
}

func (s *nodeSync) Reduce(local *gnn.Gradients) (*gnn.Gradients, float64, error) {
	iter := s.iter
	s.iter++
	if s.crashIter >= 0 && iter == s.crashIter {
		return nil, 0, fmt.Errorf("rank %d crashed at iteration %d (scripted fault)", s.rank, iter)
	}
	if s.failIter >= 0 && iter >= s.failIter {
		s.ring.leave(s.rank)
		return nil, 0, fmt.Errorf("rank %d at iteration %d: %w", s.rank, iter, errNodeFailStop)
	}
	s.vec = flattenGrads(s.vec, local)
	vec := s.vec
	if s.tap != nil {
		s.tap(s.rank, iter, vec, false)
	}
	sec, err := s.ring.allReduce(s.rank, iter, vec)
	if err != nil {
		return nil, sec, err
	}
	if s.tap != nil {
		s.tap(s.rank, iter, vec, true)
	}
	unflattenGrads(vec, local)
	return local, sec, nil
}

package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/gnn"
	"repro/internal/hw"
)

// ring is the executed counterpart of perfmodel.RingAllReduceSec: a chunked
// ring all-reduce whose ranks are node goroutines of one process. Each calls
// allReduce once per training iteration and publishes its flat gradient
// vector at the round's membership barrier. The rank that completes the
// barrier reduces every published vector in the order the chunked ring
// (Patarasuk & Yuan, JPDC 2009) folds them and writes the mean back into
// each; every rank then charges its own 2·(m−1) chunk sends over the
// inter-node link on its virtual clock. The ring is a reduction order and a
// clock charge, not a message transport.
//
// Membership can shrink (survivor re-ring). A rank that fail-stops leaves at
// a round boundary, the survivors rebuild the ring over the live ranks and
// continue. The barrier is exact — a round completes iff every live rank has
// entered it — so a round reduces exactly the vectors of its members. A
// fault-free fleet is the same ring with a view that never shrinks.
type ring struct {
	link hw.Link
	// faults scripts link degradation by ring round (nil-safe: never degraded).
	faults *fault.Schedule

	mu      sync.Mutex
	cond    *sync.Cond
	alive   []bool
	liveN   int
	entered int
	round   int
	vecs    [][]float32 // vecs[rank]: the vector rank published this round
	view    []int       // live ranks, ascending — the last completed round's ring order
	// aborted unblocks every rank when one node dies mid-epoch: without it a
	// single failure would leave the survivors waiting forever on a round
	// that never completes. A failed ring stays failed — the fleet is done.
	aborted bool
}

// errRingAborted surfaces on the surviving ranks after fail().
var errRingAborted = errors.New("cluster: ring all-reduce aborted (a peer node failed)")

func newRing(n int, link hw.Link, faults *fault.Schedule) *ring {
	r := &ring{link: link, faults: faults, alive: make([]bool, n), liveN: n,
		vecs: make([][]float32, n), view: make([]int, 0, n)}
	r.cond = sync.NewCond(&r.mu)
	for i := range r.alive {
		r.alive[i] = true
	}
	return r
}

// fail permanently aborts the ring, releasing every rank parked on the
// membership barrier.
func (r *ring) fail() {
	r.mu.Lock()
	r.aborted = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// completeLocked completes the round: every live rank has published its
// vector, so it fixes the round's view (the live ranks, ascending), reduces,
// resets the barrier and wakes every waiter (callers hold mu).
//
// Chunk c of m is folded as the ring folds it: position c's copy first, then
// each later position around the ring adds its own copy to the running sum;
// the sum is scaled by 1/m — the survivor rescale after a fail-stop — and
// written into every position's vector.
func (r *ring) completeLocked() {
	r.view = r.view[:0]
	for i, a := range r.alive {
		if a {
			r.view = append(r.view, i)
		}
	}
	if m := len(r.view); m > 1 {
		n := len(r.vecs[r.view[0]])
		inv := 1 / float32(m)
		for c := 0; c < m; c++ {
			lo, hi := chunkBounds(n, m, c)
			sum := r.vecs[r.view[c]][lo:hi]
			for k := 1; k < m; k++ {
				own := r.vecs[r.view[(c+k)%m]][lo:hi]
				for i := range sum {
					sum[i] = own[i] + sum[i]
				}
			}
			for i := range sum {
				sum[i] *= inv
			}
			for k := 1; k < m; k++ {
				copy(r.vecs[r.view[(c+k)%m]][lo:hi], sum)
			}
		}
	}
	r.entered = 0
	r.round++
	r.cond.Broadcast()
}

// leave removes a rank from the membership at a round boundary (the rank
// must not have entered the round it is skipping). If every other live rank
// is already waiting on the barrier, the departure is what completes it —
// complete it on the leaver's behalf so the survivors are not stranded.
func (r *ring) leave(rank int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.alive[rank] {
		return
	}
	r.alive[rank] = false
	r.liveN--
	if r.liveN > 0 && r.entered == r.liveN {
		r.completeLocked()
	}
}

// chunkBounds returns the [lo, hi) range of chunk c when a vector of length
// m is split into n contiguous chunks.
func chunkBounds(m, n, c int) (int, int) {
	return c * m / n, (c + 1) * m / n
}

func mod(a, n int) int { return ((a % n) + n) % n }

// allReduce averages vec element-wise across the live ranks, in place, and
// returns the virtual network seconds this rank spent. Every live rank must
// call it concurrently, once per round, with equal-length vectors. iter is
// the global ring round, consulted for scripted link degradation.
//
// The round's membership view fixes the geometry: m = live ranks, chunks by
// position in the view. The charge is the ring's send schedule at position
// p: chunk (p−s) mod m at scatter-reduce step s, then chunk (p−s+1) mod m at
// all-gather step s, each over the round's (possibly degraded) link.
func (r *ring) allReduce(rank, iter int, vec []float32) (float64, error) {
	r.mu.Lock()
	if r.aborted {
		r.mu.Unlock()
		return 0, errRingAborted
	}
	r.vecs[rank] = vec
	myRound := r.round
	r.entered++
	if r.entered == r.liveN {
		r.completeLocked()
	}
	for r.round == myRound && !r.aborted {
		r.cond.Wait()
	}
	// The view is stable until this rank enters the next round.
	aborted, m, pos := r.aborted, len(r.view), slices.Index(r.view, rank)
	r.mu.Unlock()
	if aborted {
		return 0, errRingAborted
	}
	if m <= 1 {
		return 0, nil
	}
	link := r.link.Degraded(r.faults.LinkFactor(iter))
	chunkSec := func(c int) float64 {
		lo, hi := chunkBounds(len(vec), m, c)
		return link.TransferSec(float64(hi-lo) * 4)
	}
	var sec float64
	for step := 0; step < m-1; step++ { // scatter-reduce
		sec += chunkSec(mod(pos-step, m))
	}
	for step := 0; step < m-1; step++ { // all-gather
		sec += chunkSec(mod(pos-step+1, m))
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

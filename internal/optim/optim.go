// Package optim implements the weight-update side of training: plain SGD
// (with optional momentum) and the Synchronizer of paper §III-A — the
// all-reduce that gathers per-trainer gradients, averages them, and
// broadcasts the average so every trainer applies an identical update.
// Synchronous SGD over n trainers with batch B is thereby algorithmically
// equivalent to one trainer with batch n·B (paper §II-B).
package optim

import (
	"fmt"
	"sync"

	"repro/internal/gnn"
	"repro/internal/tensor"
)

// SGD applies θ ← θ − lr·g, with optional classical momentum
// v ← μv + g; θ ← θ − lr·v.
type SGD struct {
	LR       float32
	Momentum float32
	velocity *gnn.Gradients
}

// NewSGD creates an optimizer. lr must be positive; momentum in [0, 1).
func NewSGD(lr, momentum float32) (*SGD, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("optim: non-positive learning rate %v", lr)
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("optim: momentum %v outside [0,1)", momentum)
	}
	return &SGD{LR: lr, Momentum: momentum}, nil
}

// Step applies one update to params using grads.
func (o *SGD) Step(params *gnn.Parameters, grads *gnn.Gradients) {
	g := grads
	if o.Momentum > 0 {
		if o.velocity == nil {
			o.velocity = gnn.NewGradients(params)
		}
		o.velocity.Scale(o.Momentum)
		o.velocity.Axpy(1, grads)
		g = o.velocity
	}
	for l := range params.Weights {
		tensor.Axpy(params.Weights[l], -o.LR, g.Weights[l])
		tensor.Axpy(params.Biases[l], -o.LR, g.Biases[l])
	}
}

// Synchronizer performs the DONE-counting all-reduce of paper Listing 1:
// trainers submit gradients (incrementing DONE under a mutex and signalling a
// condition variable); when DONE reaches n the synchronizer averages and the
// averaged gradients are broadcast to all waiters.
type Synchronizer struct {
	n      int
	mu     sync.Mutex
	cond   *sync.Cond
	done   int              // the paper's DONE counter
	slots  []*gnn.Gradients // pending gradients, indexed by trainer rank
	scales []float32        // the weight each rank submitted with
	avg    *gnn.Gradients   // the broadcast buffer, allocated by the first round and reused after
	round  uint64
}

// NewSynchronizer creates a synchronizer for n trainers.
func NewSynchronizer(n int) (*Synchronizer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("optim: synchronizer needs n > 0, got %d", n)
	}
	s := &Synchronizer{n: n, slots: make([]*gnn.Gradients, n), scales: make([]float32, n)}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// N returns the number of participating trainers.
func (s *Synchronizer) N() int { return s.n }

// Submit delivers trainer rank's gradients (ranks are 0..n-1, one per
// trainer) with the weight they enter the sum at, and blocks until all n
// trainers of the current round have submitted; it then returns
// (Σ_r scale_r·g_r)/n. The terms are added in RANK order, not arrival order —
// floating-point addition is not associative, so reducing in a
// scheduling-dependent order would make the trained weights nondeterministic
// under GOMAXPROCS > 1. Weighting is what makes unequal batch sizes right:
// with scale_r = n·batch_r/totalBatch the "average" is the global-batch mean.
// g is only read. The returned gradients are shared and are the
// synchronizer's own buffer, which the next round overwrites — callers must
// not mutate them, and must be done with them before their next Submit (no
// round can complete without it).
func (s *Synchronizer) Submit(rank int, g *gnn.Gradients, scale float32) *gnn.Gradients {
	s.mu.Lock()
	defer s.mu.Unlock()
	myRound := s.round
	s.slots[rank], s.scales[rank] = g, scale
	s.done++ // paper Listing 1: DONE++
	if s.done == s.n {
		// Last arrival plays the Synchronizer role: gather, average, broadcast.
		if s.avg == nil {
			s.avg = s.slots[0].Clone()
		}
		WeightedMean(s.avg, s.slots, s.scales)
		s.done = 0
		s.round++
		s.cond.Broadcast()
		return s.avg
	}
	for s.round == myRound {
		s.cond.Wait()
	}
	return s.avg
}

// WeightedMean writes (Σ_r scales[r]·grads[r])/len(grads) into dst, adding
// the terms in RANK order (slice order) — floating-point addition is not
// associative, so the fold's order is part of its result. Each product is
// rounded to float32 before it is added: the explicit conversion forbids a
// fused multiply-add on the architectures that have one, so the bits are
// those of scaling each gradient in place, summing the scaled copies, then
// scaling the sum by 1/n. With one term at scale 1 the result is that term,
// bit for bit. dst must not alias an operand. Synchronizer.Submit and the
// engine's trainer pool both reduce through it.
func WeightedMean(dst *gnn.Gradients, grads []*gnn.Gradients, scales []float32) {
	for l := range dst.Weights {
		for r, g := range grads {
			accumulate(dst.Weights[l].Data, g.Weights[l].Data, scales[r], r == 0)
			accumulate(dst.Biases[l].Data, g.Biases[l].Data, scales[r], r == 0)
		}
	}
	dst.Scale(1 / float32(len(grads)))
}

// accumulate adds scale·src into dst — or, for a sum's first term, stores it.
func accumulate(dst, src []float32, scale float32, first bool) {
	src = src[:len(dst)]
	if first {
		for i, v := range src {
			dst[i] = float32(scale * v)
		}
		return
	}
	for i, v := range src {
		dst[i] += float32(scale * v)
	}
}

// WeightedAllReduce averages gradients with explicit weights (e.g. per-device
// mini-batch shares under DRM re-balancing) without goroutine coordination.
// Weights are normalised to sum to 1. Used by the deterministic
// (single-goroutine) training paths and tests.
func WeightedAllReduce(grads []*gnn.Gradients, weights []float64) (*gnn.Gradients, error) {
	if len(grads) == 0 || len(grads) != len(weights) {
		return nil, fmt.Errorf("optim: %d gradients, %d weights", len(grads), len(weights))
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("optim: negative weight %v", w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("optim: all weights zero")
	}
	out := grads[0].Clone()
	out.Scale(float32(weights[0] / total))
	for i := 1; i < len(grads); i++ {
		out.Axpy(float32(weights[i]/total), grads[i])
	}
	return out, nil
}

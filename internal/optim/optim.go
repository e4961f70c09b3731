// Package optim implements the weight-update side of training: plain SGD and
// WeightedMean, the average of paper §III-A's synchronous round. An engine's
// trainers each produce a mean gradient; once its trainer pool has joined
// (Listing 1's DONE count), WeightedMean folds them in rank order and the one
// parameter set takes one SGD step. Synchronous SGD over n trainers with
// batch B is thereby algorithmically equivalent to one trainer with batch n·B
// (paper §II-B).
package optim

import (
	"fmt"
	"math"

	"repro/internal/gnn"
	"repro/internal/tensor"
)

// SGD applies θ ← θ − lr·g.
type SGD struct {
	LR float32
}

// NewSGD creates an optimizer. lr must be a finite positive number.
func NewSGD(lr float32) (*SGD, error) {
	if !(lr > 0) || math.IsInf(float64(lr), 1) {
		return nil, fmt.Errorf("optim: learning rate %v is not a finite positive number", lr)
	}
	return &SGD{LR: lr}, nil
}

// Step applies one update to params using grads.
func (o *SGD) Step(params *gnn.Parameters, grads *gnn.Gradients) {
	for l := range params.Weights {
		tensor.Axpy(params.Weights[l], -o.LR, grads.Weights[l])
		tensor.Axpy(params.Biases[l], -o.LR, grads.Biases[l])
	}
}

// WeightedMean writes (Σ_r scales[r]·grads[r])/len(grads) into dst, adding
// the terms in RANK order (slice order) — floating-point addition is not
// associative, so the fold's order is part of its result. With scale_r =
// n·batch_r/totalBatch the mean is the global-batch mean, which is what makes
// unequal shares right. Each product is rounded to float32 before it is
// added: the explicit conversion forbids a fused multiply-add on the
// architectures that have one, so the bits are those of scaling each gradient
// in place, summing the scaled copies, then scaling the sum by 1/n. The first
// term is stored, not added, so dst's previous contents never leak in; with
// one term at scale 1 the result is that term, bit for bit. dst must not
// alias an operand.
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

package optim

import (
	"math"
	"testing"

	"repro/internal/gnn"
	"repro/internal/tensor"
)

func tinyModel(t *testing.T, seed uint64) *gnn.Model {
	t.Helper()
	m, err := gnn.NewModel(gnn.Config{Kind: gnn.GCN, Dims: []int{3, 2}}, tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// NewSGD accepts a finite positive learning rate and nothing else: NaN and
// ±Inf fail a bare `lr <= 0` check, and a NaN rate trains to NaN silently.
func TestNewSGDValidation(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, lr := range []float32{0, -0.1, nan, inf, -inf} {
		if _, err := NewSGD(lr); err == nil {
			t.Errorf("learning rate %v accepted", lr)
		}
	}
	for _, lr := range []float32{0.3, math.SmallestNonzeroFloat32, math.MaxFloat32} {
		if _, err := NewSGD(lr); err != nil {
			t.Errorf("learning rate %v rejected: %v", lr, err)
		}
	}
}

func TestSGDStep(t *testing.T) {
	m := tinyModel(t, 1)
	before := m.Params.Weights[0].At(0, 0)
	g := gnn.NewGradients(m.Params)
	g.Weights[0].Fill(1)
	opt, _ := NewSGD(0.1)
	opt.Step(m.Params, g)
	after := m.Params.Weights[0].At(0, 0)
	if math.Abs(float64(after-(before-0.1))) > 1e-6 {
		t.Fatalf("SGD step: %v -> %v", before, after)
	}
}

// TestSynchronizerWeightedSumBitwise pins WeightedMean, the trainer pool's
// average, to the round it replaced — every trainer scaling its gradient in
// place, then a copy / Axpy(1, ·) / Scale(1/n) — bit for bit (NaN payloads
// included), for 1–5 ranks with unequal shares and gradients that carry −0,
// NaN, ±Inf and denormals. Each rank count folds twice into one dst that
// starts out NaN, as the pool's reused buffer does: the first term must store,
// not add, or the NaN and the previous round leak into the mean.
func TestSynchronizerWeightedSumBitwise(t *testing.T) {
	m := tinyModel(t, 6)
	negZero := float32(math.Copysign(0, -1))
	pool := []float32{negZero, 0, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff)}
	rng := tensor.NewRNG(9)
	fill := func(d []float32) {
		for i := range d {
			d[i] = float32(rng.NormFloat64())
			if rng.Intn(5) == 0 {
				d[i] = pool[rng.Intn(len(pool))]
			}
		}
	}
	for n := 1; n <= 5; n++ {
		dst := gnn.NewGradients(m.Params)
		for l := range dst.Weights {
			dst.Weights[l].Fill(float32(math.NaN()))
			dst.Biases[l].Fill(float32(math.NaN()))
		}
		for round := 0; round < 2; round++ {
			grads, scales, total := make([]*gnn.Gradients, n), make([]float32, n), 0
			shares := make([]int, n)
			for r := range shares {
				shares[r] = 1 + rng.Intn(300)
				total += shares[r]
			}
			for r := range grads {
				grads[r] = gnn.NewGradients(m.Params)
				for l := range grads[r].Weights {
					fill(grads[r].Weights[l].Data)
					fill(grads[r].Biases[l].Data)
				}
				scales[r] = float32(shares[r]) * float32(n) / float32(total)
			}
			// The oracle: scale each rank's copy, then sum the copies in rank order.
			want := grads[0].Clone()
			want.Scale(scales[0])
			for r := 1; r < n; r++ {
				scaled := grads[r].Clone()
				scaled.Scale(scales[r])
				want.Axpy(1, scaled)
			}
			want.Scale(1 / float32(n))

			WeightedMean(dst, grads, scales)
			for l := range want.Weights {
				for _, pair := range [][2]*tensor.Matrix{{dst.Weights[l], want.Weights[l]}, {dst.Biases[l], want.Biases[l]}} {
					for i, v := range pair[0].Data {
						if math.Float32bits(v) != math.Float32bits(pair[1].Data[i]) {
							t.Fatalf("n=%d round %d layer %d element %d: %x, scale-then-sum gives %x",
								n, round, l, i, math.Float32bits(v), math.Float32bits(pair[1].Data[i]))
						}
					}
				}
			}
		}
	}
}

// Equal weights must reduce to the plain average.
func TestWeightedMatchesUnweighted(t *testing.T) {
	m := tinyModel(t, 7)
	g1 := gnn.NewGradients(m.Params)
	g1.Weights[0].Fill(4)
	g2 := gnn.NewGradients(m.Params)
	g2.Weights[0].Fill(8)
	avg := gnn.NewGradients(m.Params)
	WeightedMean(avg, []*gnn.Gradients{g1, g2}, []float32{1, 1})
	if got := avg.Weights[0].At(0, 0); got != 6 {
		t.Fatalf("got %v want 6", got)
	}
}

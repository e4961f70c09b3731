package optim

import (
	"math"
	"sync"
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

func TestNewSGDValidation(t *testing.T) {
	if _, err := NewSGD(0, 0); err == nil {
		t.Fatal("expected error for lr=0")
	}
	if _, err := NewSGD(0.1, 1.0); err == nil {
		t.Fatal("expected error for momentum=1")
	}
	if _, err := NewSGD(0.1, -0.1); err == nil {
		t.Fatal("expected error for negative momentum")
	}
}

func TestSGDStep(t *testing.T) {
	m := tinyModel(t, 1)
	before := m.Params.Weights[0].At(0, 0)
	g := gnn.NewGradients(m.Params)
	g.Weights[0].Fill(1)
	opt, _ := NewSGD(0.1, 0)
	opt.Step(m.Params, g)
	after := m.Params.Weights[0].At(0, 0)
	if math.Abs(float64(after-(before-0.1))) > 1e-6 {
		t.Fatalf("SGD step: %v -> %v", before, after)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	m := tinyModel(t, 2)
	g := gnn.NewGradients(m.Params)
	g.Weights[0].Fill(1)
	opt, _ := NewSGD(1, 0.5)
	w0 := m.Params.Weights[0].At(0, 0)
	opt.Step(m.Params, g) // v=1, w -= 1
	opt.Step(m.Params, g) // v=1.5, w -= 1.5
	got := m.Params.Weights[0].At(0, 0)
	want := w0 - 1 - 1.5
	if math.Abs(float64(got-want)) > 1e-6 {
		t.Fatalf("momentum: got %v want %v", got, want)
	}
}

func TestSynchronizerValidation(t *testing.T) {
	if _, err := NewSynchronizer(0); err == nil {
		t.Fatal("expected error for n=0")
	}
}

func TestSynchronizerAverages(t *testing.T) {
	m := tinyModel(t, 3)
	const n = 4
	sync_, err := NewSynchronizer(n)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*gnn.Gradients, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := gnn.NewGradients(m.Params)
			g.Weights[0].Fill(float32(i + 1)) // 1,2,3,4 -> avg 2.5
			results[i] = sync_.Submit(i, g, 1)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("broadcast returned different objects")
		}
	}
	if got := results[0].Weights[0].At(0, 0); math.Abs(float64(got)-2.5) > 1e-6 {
		t.Fatalf("average = %v, want 2.5", got)
	}
}

func TestSynchronizerMultipleRounds(t *testing.T) {
	m := tinyModel(t, 4)
	const n, rounds = 3, 5
	s, _ := NewSynchronizer(n)
	var wg sync.WaitGroup
	errs := make(chan string, n*rounds)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				g := gnn.NewGradients(m.Params)
				g.Weights[0].Fill(float32(r * 3)) // all trainers agree per round
				avg := s.Submit(i, g, 1)
				if got := avg.Weights[0].At(0, 0); got != float32(r*3) {
					errs <- "wrong round average"
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSynchronizerWeightedSumBitwise pins the fused weighting, Submit's and
// WeightedMean's called directly as the engine does, to what it replaced —
// every trainer scaling its gradient in place, then the synchronizer's
// copy / Axpy(1, ·) / Scale(1/n) — bit for bit (NaN payloads
// included), for 1–5 ranks with unequal shares and gradients that carry −0,
// NaN, ±Inf and denormals, over two rounds on one synchronizer (the second
// reuses the broadcast buffer).
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
		s, err := NewSynchronizer(n)
		if err != nil {
			t.Fatal(err)
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

			var wg sync.WaitGroup
			var got *gnn.Gradients
			for r := n - 1; r >= 0; r-- { // arrival order is not rank order
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					avg := s.Submit(r, grads[r], scales[r])
					if r == 0 {
						got = avg
					}
				}(r)
			}
			wg.Wait()
			// The engine's trainer pool folds with WeightedMean directly.
			direct := gnn.NewGradients(m.Params)
			WeightedMean(direct, grads, scales)
			for caller, got := range map[string]*gnn.Gradients{"Submit": got, "WeightedMean": direct} {
				for l := range want.Weights {
					for _, pair := range [][2]*tensor.Matrix{{got.Weights[l], want.Weights[l]}, {got.Biases[l], want.Biases[l]}} {
						for i, v := range pair[0].Data {
							if math.Float32bits(v) != math.Float32bits(pair[1].Data[i]) {
								t.Fatalf("%s n=%d round %d layer %d element %d: %x, scale-then-sum gives %x",
									caller, n, round, l, i, math.Float32bits(v), math.Float32bits(pair[1].Data[i]))
							}
						}
					}
				}
			}
		}
	}
}

func TestWeightedAllReduce(t *testing.T) {
	m := tinyModel(t, 5)
	g1 := gnn.NewGradients(m.Params)
	g1.Weights[0].Fill(10)
	g2 := gnn.NewGradients(m.Params)
	g2.Weights[0].Fill(20)
	avg, err := WeightedAllReduce([]*gnn.Gradients{g1, g2}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	// (10*3 + 20*1)/4 = 12.5
	if got := avg.Weights[0].At(0, 0); math.Abs(float64(got)-12.5) > 1e-6 {
		t.Fatalf("weighted avg = %v, want 12.5", got)
	}
}

func TestWeightedAllReduceValidation(t *testing.T) {
	m := tinyModel(t, 6)
	g := gnn.NewGradients(m.Params)
	if _, err := WeightedAllReduce(nil, nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := WeightedAllReduce([]*gnn.Gradients{g}, []float64{-1}); err == nil {
		t.Fatal("expected error for negative weight")
	}
	if _, err := WeightedAllReduce([]*gnn.Gradients{g}, []float64{0}); err == nil {
		t.Fatal("expected error for zero total weight")
	}
	if _, err := WeightedAllReduce([]*gnn.Gradients{g}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}

// Equal weights must reduce to the plain average (same as Synchronizer).
func TestWeightedMatchesUnweighted(t *testing.T) {
	m := tinyModel(t, 7)
	g1 := gnn.NewGradients(m.Params)
	g1.Weights[0].Fill(4)
	g2 := gnn.NewGradients(m.Params)
	g2.Weights[0].Fill(8)
	avg, _ := WeightedAllReduce([]*gnn.Gradients{g1, g2}, []float64{1, 1})
	if got := avg.Weights[0].At(0, 0); got != 6 {
		t.Fatalf("got %v want 6", got)
	}
}

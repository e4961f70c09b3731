package gnn

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

func TestInferFullGraphShapesAndValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	spec := datagen.Spec{Name: "inf", NumVertices: 200, NumEdges: 1200, FeatDims: []int{8, 6, 3}}
	ds, err := datagen.Materialize(spec, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(Config{Kind: GCN, Dims: spec.FeatDims}, rng)
	logits, err := m.inferFullGraph(ds.Graph, ds.Features)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Rows != 200 || logits.Cols != 3 {
		t.Fatalf("logits %dx%d", logits.Rows, logits.Cols)
	}
	bad := tensor.New(100, 8)
	if _, err := m.inferFullGraph(ds.Graph, bad); err == nil {
		t.Fatal("expected row-count error")
	}
	bad2 := tensor.New(200, 5)
	if _, err := m.inferFullGraph(ds.Graph, bad2); err == nil {
		t.Fatal("expected width error")
	}
}

// Full-graph inference must agree with the mini-batch forward pass when the
// sampled fanout covers every neighbor (sampling becomes exact).
func TestInferenceMatchesFullFanoutSampling(t *testing.T) {
	for _, kind := range []Kind{GCN, SAGE} {
		rng := tensor.NewRNG(2)
		spec := datagen.Spec{Name: "exact", NumVertices: 120, NumEdges: 480, FeatDims: []int{6, 5, 3}}
		ds, err := datagen.Materialize(spec, 1.0, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := NewModel(Config{Kind: kind, Dims: spec.FeatDims}, rng)
		full, err := m.inferFullGraph(ds.Graph, ds.Features)
		if err != nil {
			t.Fatal(err)
		}
		// Fanout 10000 >> max degree: the sampler takes all neighbors.
		s, _ := sampler.New(ds.Graph, []int{10000, 10000}, ds.Labels)
		targets := []int32{0, 5, 50, 119}
		mb, err := s.Sample(targets, rng)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(len(mb.InputNodes()), 6)
		tensor.GatherRows(x, ds.Features, mb.InputNodes())
		st, err := forward(m, mb, x)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range targets {
			for j := 0; j < 3; j++ {
				a := st.Logits.At(i, j)
				b := full.At(int(v), j)
				if d := a - b; d > 1e-3 || d < -1e-3 {
					t.Fatalf("%v: vertex %d logit %d: sampled %v vs full %v", kind, v, j, a, b)
				}
			}
		}
	}
}

// End-to-end: train with sampling, evaluate with full-graph inference — the
// standard GraphSAGE protocol. Held-out accuracy must beat chance clearly.
func TestEvaluateAfterTraining(t *testing.T) {
	rng := tensor.NewRNG(3)
	spec := datagen.Spec{Name: "eval", NumVertices: 600, NumEdges: 4200, FeatDims: []int{16, 16, 4}}
	ds, err := datagen.Materialize(spec, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(Config{Kind: SAGE, Dims: spec.FeatDims}, rng)
	s, _ := sampler.New(ds.Graph, []int{8, 8}, ds.Labels)
	batcher, _ := sampler.NewBatcher(ds.TrainIdx, 64, rng)
	const lr = 0.4
	for step := 0; step < 120; step++ {
		mb, err := s.Sample(batcher.Next(), rng)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(len(mb.InputNodes()), 16)
		tensor.GatherRows(x, ds.Features, mb.InputNodes())
		grads, _, _, err := trainStep(m, mb, x)
		if err != nil {
			t.Fatal(err)
		}
		for l := range m.Params.Weights {
			tensor.Axpy(m.Params.Weights[l], -lr, grads.Weights[l])
			tensor.Axpy(m.Params.Biases[l], -lr, grads.Biases[l])
		}
	}
	// Held-out vertices: everything not in the train split.
	inTrain := map[int32]bool{}
	for _, v := range ds.TrainIdx {
		inTrain[v] = true
	}
	var heldOut []int32
	for v := int32(0); int(v) < ds.Graph.NumVertices; v++ {
		if !inTrain[v] {
			heldOut = append(heldOut, v)
		}
	}
	acc, err := m.Evaluate(ds.Graph, ds.Features, ds.Labels, heldOut)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.5 { // 4 classes → chance 0.25
		t.Fatalf("held-out accuracy %.3f too low", acc)
	}
}

func TestEvaluateEmptySet(t *testing.T) {
	rng := tensor.NewRNG(4)
	spec := datagen.Spec{Name: "e", NumVertices: 100, NumEdges: 300, FeatDims: []int{4, 3}}
	ds, _ := datagen.Materialize(spec, 1.0, rng)
	m, _ := NewModel(Config{Kind: GCN, Dims: spec.FeatDims}, rng)
	if _, err := m.Evaluate(ds.Graph, ds.Features, ds.Labels, nil); err == nil {
		t.Fatal("expected error for empty evaluation set")
	}
}

// The parallel per-vertex aggregation must produce exactly what the serial
// path produces: each destination row is computed by one worker, so the
// summation order within a row is unchanged. The graph is dense enough that
// every layer's aggregation sits above the fan-out grain (asserted), and the
// parallel legs are set explicitly — an uneven three-way split and four —
// instead of inheriting whatever core count the host has.
func TestInferFullGraphParallelMatchesSerial(t *testing.T) {
	rng := tensor.NewRNG(6)
	spec := datagen.Spec{Name: "par", NumVertices: 4500, NumEdges: 300000, FeatDims: []int{32, 24, 5}}
	ds, err := datagen.Materialize(spec, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := sampler.FullGraphBlock(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{GCN, SAGE} {
		m, _ := NewModel(Config{Kind: kind, Dims: spec.FeatDims}, rng)
		prev := tensor.SetParallelism(1)
		serial, err := m.inferFullGraph(ds.Graph, ds.Features)
		tensor.SetParallelism(prev)
		if err != nil {
			t.Fatal(err)
		}
		nb := NewNeighborhood(m.Cfg, blk)
		for _, par := range []int{3, 4} {
			prev := tensor.SetParallelism(par)
			for l := 0; l < m.Cfg.Layers(); l++ {
				rows := len(blk.Dst)
				requireFansOut(t, fmt.Sprintf("%v layer %d aggregation", kind, l), rows, nb.workPerRow(rows, m.Cfg.Dims[l]))
			}
			parallel, err := m.inferFullGraph(ds.Graph, ds.Features)
			tensor.SetParallelism(prev)
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Equal(parallel) {
				t.Fatalf("%v par=%d: parallel inference diverged from serial (max diff %g)",
					kind, par, serial.MaxAbsDiff(parallel))
			}
		}
	}
}

// Mini-batch inference over a sampled fanout must converge to the exact
// full-graph logits as the fanout grows, and match them exactly (up to
// float accumulation) at fanout 0 (take-all).
func TestInferMiniBatchConvergesToFullGraph(t *testing.T) {
	for _, kind := range []Kind{GCN, SAGE} {
		rng := tensor.NewRNG(7)
		spec := datagen.Spec{Name: "conv", NumVertices: 500, NumEdges: 6000, FeatDims: []int{10, 8, 4}}
		ds, err := datagen.Materialize(spec, 1.0, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := NewModel(Config{Kind: kind, Dims: spec.FeatDims}, rng)
		full, err := m.inferFullGraph(ds.Graph, ds.Features)
		if err != nil {
			t.Fatal(err)
		}
		targets := make([]int32, 64)
		for i := range targets {
			targets[i] = int32(rng.Intn(ds.Graph.NumVertices))
		}
		meanErr := func(fanout int) float64 {
			s, err := sampler.New(ds.Graph, []int{fanout, fanout}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var mb sampler.MiniBatch
			var sum float64
			var n int
			for seed := uint64(0); seed < 5; seed++ {
				if err := s.SampleInto(&mb, targets, tensor.NewRNG(100+seed)); err != nil {
					t.Fatal(err)
				}
				logits, err := m.InferMiniBatchRowsWS(tensor.NewWorkspace(), &mb, ds.Features, mb.InputNodes())
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range targets {
					for j := 0; j < logits.Cols; j++ {
						d := float64(logits.At(i, j) - full.At(int(v), j))
						if d < 0 {
							d = -d
						}
						sum += d
						n++
					}
				}
			}
			return sum / float64(n)
		}
		errSmall, errLarge, errExact := meanErr(1), meanErr(6), meanErr(0)
		if errExact > 1e-4 {
			t.Fatalf("%v: take-all fanout error %g, want ~0", kind, errExact)
		}
		if errLarge >= errSmall {
			t.Fatalf("%v: fanout 6 error %g not below fanout 1 error %g — no convergence",
				kind, errLarge, errSmall)
		}
	}
}

// Before/after for the parallelized per-vertex aggregation loop:
//
//	go test ./internal/gnn -bench InferFullGraph -run xxx
//
// reports the serial (pre-PR) and parallel (current) full-graph inference
// side by side.
func BenchmarkInferFullGraph(b *testing.B) {
	rng := tensor.NewRNG(8)
	spec := datagen.Spec{Name: "bench", NumVertices: 4000, NumEdges: 48000, FeatDims: []int{64, 32, 8}}
	ds, err := datagen.Materialize(spec, 1.0, rng)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := NewModel(Config{Kind: SAGE, Dims: spec.FeatDims}, rng)
	b.Run("serial-before", func(b *testing.B) {
		prev := tensor.SetParallelism(1)
		defer tensor.SetParallelism(prev)
		for i := 0; i < b.N; i++ {
			if _, err := m.inferFullGraph(ds.Graph, ds.Features); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-after", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.inferFullGraph(ds.Graph, ds.Features); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package gnn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// fixture builds a small dataset, sampler, mini-batch and gathered features.
type fixture struct {
	ds *datagen.Dataset
	mb *sampler.MiniBatch
	x  *tensor.Matrix
}

// fixtureSize is the graph a fixture samples from and how it samples it.
type fixtureSize struct{ vertices, edges, fanout, stride int }

func makeFixture(t *testing.T, dims []int, batch int, seed uint64) *fixture {
	t.Helper()
	return makeSizedFixture(t, dims, batch, seed, fixtureSize{vertices: 400, edges: 2400, fanout: 4, stride: 3})
}

func makeSizedFixture(t *testing.T, dims []int, batch int, seed uint64, sz fixtureSize) *fixture {
	t.Helper()
	rng := tensor.NewRNG(seed)
	spec := datagen.Spec{Name: "fix", NumVertices: int64(sz.vertices), NumEdges: int64(sz.edges), FeatDims: dims}
	ds, err := datagen.Materialize(spec, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	fanouts := make([]int, len(dims)-1)
	for i := range fanouts {
		fanouts[i] = sz.fanout
	}
	s, err := sampler.New(ds.Graph, fanouts, ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]int32, batch)
	for i := range targets {
		targets[i] = int32(i * sz.stride)
	}
	mb, err := s.Sample(targets, rng)
	if err != nil {
		t.Fatal(err)
	}
	return newFixture(ds, mb)
}

// newFixture pairs a mini-batch over ds with its gathered features.
func newFixture(ds *datagen.Dataset, mb *sampler.MiniBatch) *fixture {
	x := tensor.New(len(mb.InputNodes()), ds.Features.Cols)
	tensor.GatherRows(x, ds.Features, mb.InputNodes())
	return &fixture{ds: ds, mb: mb, x: x}
}

// input returns the fixture's layer-0 input in either form the *RowsWS entry
// points take: the dataset's feature table read at the input nodes
// (inPlace), or the gathered block with no row map.
func (fx *fixture) input(inPlace bool) (*tensor.Matrix, []int32) {
	if inPlace {
		return fx.ds.Features, fx.mb.InputNodes()
	}
	return fx.x, nil
}

// forward runs the training forward pass over the gathered block x on a
// fresh arena and state.
func forward(m *Model, mb *sampler.MiniBatch, x *tensor.Matrix) (*ForwardState, error) {
	st := &ForwardState{}
	return st, m.forwardWS(tensor.NewWorkspace(), st, mb, x, nil)
}

// trainStep runs one training step over the gathered block x on a fresh
// arena and state, into fresh gradients.
func trainStep(m *Model, mb *sampler.MiniBatch, x *tensor.Matrix) (*Gradients, float64, float64, error) {
	grads := NewGradients(m.Params)
	loss, acc, err := m.TrainStepWS(tensor.NewWorkspace(), &ForwardState{}, mb, x, grads)
	return grads, loss, acc, err
}

// requireFansOut fails unless a kernel over rows rows of workPerRow
// element-operations splits at the current parallelism — what keeps a
// parallel-vs-serial test from quietly comparing the caller path with itself
// once its input, or the grain, changes.
func requireFansOut(t *testing.T, what string, rows, workPerRow int) {
	t.Helper()
	if tensor.FanOut(rows, workPerRow) <= 1 {
		t.Fatalf("%s: %d rows × %d work is below the fan-out grain at parallelism %d; the parallel leg would test nothing",
			what, rows, workPerRow, tensor.Parallelism())
	}
}

// requireStepFansOut requires a training step of cfg over mb to split every
// layer's aggregation and GEMMs (MatMul, MatMulT and TMatMul share one m·k·n)
// and every scatter the backward pass runs (layers ≥ 1).
func requireStepFansOut(t *testing.T, cfg Config, mb *sampler.MiniBatch) {
	t.Helper()
	for l, b := range mb.Blocks {
		nb := NewNeighborhood(cfg, b)
		nd, ns, fin := len(b.Dst), len(b.Src), cfg.Dims[l]
		requireFansOut(t, fmt.Sprintf("layer %d aggregate", l), nd, nb.workPerRow(nd, fin))
		requireFansOut(t, fmt.Sprintf("layer %d GEMM", l), nd, cfg.inDim(l)*cfg.Dims[l+1])
		if l > 0 {
			requireFansOut(t, fmt.Sprintf("layer %d scatter", l), ns, nb.workPerRow(ns, fin))
		}
	}
}

func TestNewModelValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, err := NewModel(Config{Kind: GCN, Dims: []int{4}}, rng); err == nil {
		t.Fatal("expected error for single dim")
	}
	if _, err := NewModel(Config{Kind: GCN, Dims: []int{4, 0}}, rng); err == nil {
		t.Fatal("expected error for zero dim")
	}
	if _, err := NewModel(Config{Kind: Kind(9), Dims: []int{4, 2}}, rng); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestKindString(t *testing.T) {
	if GCN.String() != "GCN" || SAGE.String() != "GraphSAGE" {
		t.Fatal("Kind names wrong")
	}
}

func TestParameterShapes(t *testing.T) {
	rng := tensor.NewRNG(2)
	gcn, _ := NewModel(Config{Kind: GCN, Dims: []int{10, 8, 3}}, rng)
	if gcn.Params.Weights[0].Rows != 10 || gcn.Params.Weights[1].Rows != 8 {
		t.Fatal("GCN weight shapes wrong")
	}
	sage, _ := NewModel(Config{Kind: SAGE, Dims: []int{10, 8, 3}}, rng)
	if sage.Params.Weights[0].Rows != 20 || sage.Params.Weights[1].Rows != 16 {
		t.Fatal("SAGE weight shapes (concat doubles input) wrong")
	}
	want := 20*8 + 8 + 16*3 + 3
	got := 0
	for l := range sage.Params.Weights {
		got += len(sage.Params.Weights[l].Data) + len(sage.Params.Biases[l].Data)
	}
	if got != want {
		t.Fatalf("%d parameters, want %d", got, want)
	}
}

func TestForwardShapes(t *testing.T) {
	for _, kind := range []Kind{GCN, SAGE} {
		fx := makeFixture(t, []int{12, 8, 5}, 6, 3)
		m, err := NewModel(Config{Kind: kind, Dims: []int{12, 8, 5}}, tensor.NewRNG(4))
		if err != nil {
			t.Fatal(err)
		}
		st, err := forward(m, fx.mb, fx.x)
		if err != nil {
			t.Fatal(err)
		}
		if st.Logits.Rows != 6 || st.Logits.Cols != 5 {
			t.Fatalf("%v logits %dx%d", kind, st.Logits.Rows, st.Logits.Cols)
		}
	}
}

func TestForwardRejectsBadShapes(t *testing.T) {
	fx := makeFixture(t, []int{12, 8, 5}, 4, 5)
	m, _ := NewModel(Config{Kind: GCN, Dims: []int{12, 8, 5}}, tensor.NewRNG(6))
	bad := tensor.New(3, 12)
	if _, err := forward(m, fx.mb, bad); err == nil {
		t.Fatal("expected feature shape error")
	}
	m3, _ := NewModel(Config{Kind: GCN, Dims: []int{12, 8, 8, 5}}, tensor.NewRNG(6))
	if _, err := forward(m3, fx.mb, fx.x); err == nil {
		t.Fatal("expected layer-count mismatch error")
	}
}

// Finite-difference check of all parameter gradients for both architectures,
// with and without GCN degree normalization.
func TestGradientsFiniteDifference(t *testing.T) {
	cases := []struct {
		name    string
		kind    Kind
		degrees bool
	}{
		{"GCN-mean", GCN, false},
		{"GCN-sym", GCN, true},
		{"SAGE", SAGE, false},
		{"GIN", GIN, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dims := []int{5, 4, 3}
			fx := makeFixture(t, dims, 3, 7)
			cfg := Config{Kind: tc.kind, Dims: dims}
			if tc.degrees {
				cfg.Degrees = fx.ds.Graph.InDegrees()
			}
			if tc.kind == GIN {
				cfg.GINEps = 0.5
			}
			m, err := NewModel(cfg, tensor.NewRNG(8))
			if err != nil {
				t.Fatal(err)
			}
			grads, loss0, _, err := trainStep(m, fx.mb, fx.x)
			if err != nil {
				t.Fatal(err)
			}
			lossAt := func() float64 {
				st, err := forward(m, fx.mb, fx.x)
				if err != nil {
					t.Fatal(err)
				}
				g := tensor.New(st.Logits.Rows, st.Logits.Cols)
				l, _ := tensor.SoftmaxCrossEntropy(g, st.Logits, fx.mb.Labels)
				return l
			}
			if math.Abs(lossAt()-loss0) > 1e-9 {
				t.Fatal("forward not deterministic")
			}
			const eps = 1e-2
			check := func(param, grad *tensor.Matrix, what string) {
				for _, idx := range []int{0, len(param.Data) / 2, len(param.Data) - 1} {
					orig := param.Data[idx]
					param.Data[idx] = orig + eps
					lp := lossAt()
					param.Data[idx] = orig - eps
					lm := lossAt()
					param.Data[idx] = orig
					numeric := (lp - lm) / (2 * eps)
					analytic := float64(grad.Data[idx])
					if math.Abs(numeric-analytic) > 5e-3+0.05*math.Abs(numeric) {
						t.Errorf("%s[%d]: numeric %.6f analytic %.6f", what, idx, numeric, analytic)
					}
				}
			}
			for l := range m.Params.Weights {
				check(m.Params.Weights[l], grads.Weights[l], "W")
				check(m.Params.Biases[l], grads.Biases[l], "b")
			}
		})
	}
}

func TestGradientAccumulators(t *testing.T) {
	rng := tensor.NewRNG(9)
	m, _ := NewModel(Config{Kind: GCN, Dims: []int{4, 3}}, rng)
	g1 := NewGradients(m.Params)
	g1.Weights[0].Fill(2)
	g2 := g1.Clone()
	g2.Axpy(0.5, g1)
	if g2.Weights[0].At(0, 0) != 3 {
		t.Fatalf("Axpy: %v", g2.Weights[0].At(0, 0))
	}
	g2.Scale(2)
	if g2.Weights[0].At(0, 0) != 6 {
		t.Fatal("Scale wrong")
	}
	g2.Scale(0)
	if g2.Weights[0].At(0, 0) != 0 {
		t.Fatal("Scale(0) wrong")
	}
	if g1.MaxAbsDiff(g1.Clone()) != 0 {
		t.Fatal("MaxAbsDiff of clone nonzero")
	}
}

// Training must reduce loss on the planted-cluster task — the semantics
// check behind the paper's convergence claims.
func TestTrainingConverges(t *testing.T) {
	for _, kind := range []Kind{GCN, SAGE, GIN} {
		rng := tensor.NewRNG(11)
		spec := datagen.Spec{Name: "conv", NumVertices: 500, NumEdges: 3000, FeatDims: []int{16, 16, 4}}
		ds, err := datagen.Materialize(spec, 1.0, rng)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := sampler.New(ds.Graph, []int{5, 5}, ds.Labels)
		m, _ := NewModel(Config{Kind: kind, Dims: spec.FeatDims}, rng)
		batcher, _ := sampler.NewBatcher(ds.TrainIdx, 64, rng)
		var first, last float64
		const lr = 0.5
		for step := 0; step < 150; step++ {
			mb, err := s.Sample(batcher.Next(), rng)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(len(mb.InputNodes()), spec.FeatDims[0])
			tensor.GatherRows(x, ds.Features, mb.InputNodes())
			grads, loss, _, err := trainStep(m, mb, x)
			if err != nil {
				t.Fatal(err)
			}
			for l := range m.Params.Weights {
				tensor.Axpy(m.Params.Weights[l], -lr, grads.Weights[l])
				tensor.Axpy(m.Params.Biases[l], -lr, grads.Biases[l])
			}
			if step == 0 {
				first = loss
			}
			last = loss
		}
		if last >= first*0.8 {
			t.Fatalf("%v: loss did not decrease: first %.4f last %.4f", kind, first, last)
		}
	}
}

// SAGE with zero-degree destinations must not NaN (mean of empty set is 0).
func TestSAGEZeroDegree(t *testing.T) {
	// Graph where vertex 0 has no in-neighbors.
	blocks := []*sampler.Block{{
		Src:    []int32{0, 1},
		Dst:    []int32{0, 1},
		RowPtr: []int32{0, 0, 1},
		Col:    []int32{0},
	}}
	mb := &sampler.MiniBatch{Blocks: blocks, Targets: []int32{0, 1}, Labels: []int32{0, 1}}
	m, _ := NewModel(Config{Kind: SAGE, Dims: []int{3, 2}}, tensor.NewRNG(12))
	x := tensor.New(2, 3)
	x.Fill(1)
	st, err := forward(m, mb, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range st.Logits.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("NaN/Inf logits for zero-degree vertex")
		}
	}
	grads, _, _, err := trainStep(m, mb, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range grads.Weights {
		for _, v := range w.Data {
			if math.IsNaN(float64(v)) {
				t.Fatal("NaN gradient for zero-degree vertex")
			}
		}
	}
}

// Aggregation must be linear: forward(x1 + x2) == forward(x1) + forward(x2)
// for the aggregation-only part (tested through a 1-layer linear model with
// identity-like weights and no ReLU since L=1 output layer has no ReLU).
func TestAggregationLinearity(t *testing.T) {
	fx := makeFixture(t, []int{6, 4}, 5, 13)
	m, _ := NewModel(Config{Kind: GCN, Dims: []int{6, 4}}, tensor.NewRNG(14))
	x2 := fx.x.Clone()
	tensor.Scale(x2, 2)
	st1, _ := forward(m, fx.mb, fx.x)
	st2, _ := forward(m, fx.mb, x2)
	// logits2 - bias = 2*(logits1 - bias)
	for i := 0; i < st1.Logits.Rows; i++ {
		for j := 0; j < st1.Logits.Cols; j++ {
			b := m.Params.Biases[0].At(0, j)
			want := 2 * (st1.Logits.At(i, j) - b)
			got := st2.Logits.At(i, j) - b
			if math.Abs(float64(want-got)) > 1e-4 {
				t.Fatalf("aggregation not linear at (%d,%d): %v vs %v", i, j, got, want)
			}
		}
	}
}

package gnn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sampler"
	"repro/internal/tensor"
)

// nanGradients returns gradients shaped like p with every element NaN, so a
// comparison also proves every element was overwritten.
func nanGradients(p *Parameters) *Gradients {
	g := NewGradients(p)
	for i := range g.Weights {
		g.Weights[i].Fill(float32(math.NaN()))
		g.Biases[i].Fill(float32(math.NaN()))
	}
	return g
}

// namedFixture is one mini-batch the equivalence test runs, with the model
// widths it runs at.
type namedFixture struct {
	name string
	fx   *fixture
	dims []int
}

// inPlaceBatches returns the mini-batches the equivalence test runs: a
// uniform-fanout batch, one whose targets repeat (repeated destinations share
// their sources' rows), a GraphSAINT batch, and one sized above the fan-out
// grain so the parallel legs split layer 0's aggregation.
func inPlaceBatches(t *testing.T) []namedFixture {
	t.Helper()
	base := makeFixture(t, []int{6, 8, 5}, 16, 41)
	s, err := sampler.New(base.ds.Graph, []int{4, 4}, base.ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := s.Sample([]int32{5, 9, 5, 12, 9, 0, 5, 33}, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	saint, err := sampler.NewSaint(base.ds.Graph, 24, 3, 2, base.ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	smb, err := saint.SampleN(24, tensor.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	small, wide := []int{6, 8, 5}, []int{96, 144, 16}
	return []namedFixture{
		{"sampled", base, small},
		{"duplicate-targets", newFixture(base.ds, dup), small},
		{"saint", newFixture(base.ds, smb), small},
		{"fan-out", makeSizedFixture(t, wide, 2048, 77,
			fixtureSize{vertices: 4500, edges: 300000, fanout: 40, stride: 1}), wide},
	}
}

// TestInPlaceInputMatchesGathered pins the table form of layer 0 — the
// feature table read through the input nodes' rows, what core's trainers and
// serving workers run — to the gathered form bit for bit: loss, accuracy and
// every gradient element of a training step, and the logits of inference,
// for GCN (Degrees nil and set), SAGE and GIN at kernel parallelism 1 and 4.
// The two forms read the same floats in the same order, so nothing may
// differ.
func TestInPlaceInputMatchesGathered(t *testing.T) {
	for _, b := range inPlaceBatches(t) {
		fx := b.fx
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"GCN", Config{Kind: GCN, Dims: b.dims}},
			{"GCN-degrees", Config{Kind: GCN, Dims: b.dims, Degrees: fx.ds.Graph.InDegrees()}},
			{"SAGE", Config{Kind: SAGE, Dims: b.dims}},
			{"GIN", Config{Kind: GIN, Dims: b.dims, GINEps: 0.1}},
		} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/par%d", b.name, c.name, par), func(t *testing.T) {
					prev := tensor.SetParallelism(par)
					defer tensor.SetParallelism(prev)
					m, err := NewModel(c.cfg, tensor.NewRNG(6))
					if err != nil {
						t.Fatal(err)
					}
					if b.name == "fan-out" && par > 1 {
						requireStepFansOut(t, m.Cfg, fx.mb)
					}
					want, got := nanGradients(m.Params), nanGradients(m.Params)
					wantLoss, wantAcc, err := m.TrainStepWS(tensor.NewWorkspace(), &ForwardState{}, fx.mb, fx.x, want)
					if err != nil {
						t.Fatal(err)
					}
					table, rows := fx.input(true)
					loss, acc, err := m.TrainStepRowsWS(tensor.NewWorkspace(), &ForwardState{}, fx.mb, table, rows, got)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(loss) != math.Float64bits(wantLoss) || acc != wantAcc {
						t.Fatalf("loss/acc %v/%v in place, %v/%v gathered", loss, acc, wantLoss, wantAcc)
					}
					for l := range want.Weights {
						requireBitwise(t, fmt.Sprintf("Weights[%d]", l), got.Weights[l], want.Weights[l])
						requireBitwise(t, fmt.Sprintf("Biases[%d]", l), got.Biases[l], want.Biases[l])
					}
					wantLogits, err := m.InferMiniBatchWS(tensor.NewWorkspace(), fx.mb, fx.x)
					if err != nil {
						t.Fatal(err)
					}
					logits, err := m.InferMiniBatchRowsWS(tensor.NewWorkspace(), fx.mb, table, rows)
					if err != nil {
						t.Fatal(err)
					}
					requireBitwise(t, "logits", logits, wantLogits)
				})
			}
		}
	}
}

// TestInPlaceInputRejectsBadRows: a row list of the wrong length is an error,
// and a row outside the table panics in the tensor kernels' index check —
// never a read past the table — before the step writes a gradient or
// inference returns logits.
func TestInPlaceInputRejectsBadRows(t *testing.T) {
	prev := tensor.SetParallelism(1) // a panic on a fan-out worker cannot be recovered here
	defer tensor.SetParallelism(prev)
	fx := makeFixture(t, []int{6, 8, 5}, 16, 41)
	b0 := fx.mb.Blocks[0]
	if len(b0.Src) == len(b0.Dst) {
		t.Fatal("fixture's input block has no neighbour-only source")
	}
	for _, kind := range allKinds {
		m, err := NewModel(Config{Kind: kind, Dims: []int{6, 8, 5}}, tensor.NewRNG(6))
		if err != nil {
			t.Fatal(err)
		}
		grads := nanGradients(m.Params)
		rows := fx.mb.InputNodes()
		if _, _, err := m.TrainStepRowsWS(tensor.NewWorkspace(), &ForwardState{}, fx.mb, fx.ds.Features, rows[1:], grads); err == nil {
			t.Fatalf("%v: a row list one short of the input nodes was accepted", kind)
		}
		// The last input node is a neighbour-only source: only the edge
		// aggregation reads it.
		bad := append([]int32(nil), rows...)
		bad[len(bad)-1] = int32(fx.ds.Features.Rows)
		requirePanic := func(what string, run func()) {
			t.Helper()
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprintf("index %d outside %d rows", fx.ds.Features.Rows, fx.ds.Features.Rows)) {
					t.Fatalf("%v %s: row %d of a %d-row table gave panic %q", kind, what, fx.ds.Features.Rows, fx.ds.Features.Rows, msg)
				}
			}()
			run()
		}
		requirePanic("training", func() {
			m.TrainStepRowsWS(tensor.NewWorkspace(), &ForwardState{}, fx.mb, fx.ds.Features, bad, grads)
		})
		for i := range grads.Weights {
			for _, g := range []*tensor.Matrix{grads.Weights[i], grads.Biases[i]} {
				for _, v := range g.Data {
					if !math.IsNaN(float64(v)) {
						t.Fatalf("%v: layer %d gradients written before the bad row panicked", kind, i)
					}
				}
			}
		}
		requirePanic("inference", func() {
			m.InferMiniBatchRowsWS(tensor.NewWorkspace(), fx.mb, fx.ds.Features, bad)
		})
	}
}

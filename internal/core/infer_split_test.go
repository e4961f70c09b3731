package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// RunBatch is Sample then Propagate: two pipelines of one configuration and
// seed, one running RunBatch and one the two halves, agree on every bit of
// every batch — logits, stage vector, edges, input rows, forward work and
// the FPGA account — and leave their RNGs at the same next draw, on a CPU
// peer, a GPU, an FPGA and quantized accelerators.
func TestRunBatchEqualsSampleThenPropagate(t *testing.T) {
	hetero, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 3)
	model, err := gnn.NewModel(gnn.Config{Kind: gnn.SAGE, Dims: []int{16, 16, 5}}, tensor.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		device   int
		quantize bool
	}{
		{"cpu-peer", 0, false},
		{"gpu", 1, false},
		{"fpga", 2, false},
		{"gpu-quantized", 1, true},
		{"fpga-quantized", 2, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := func() *InferencePipeline {
				p, err := NewInferencePipeline(InferConfig{
					Plat: hetero, Data: ds, Model: model, Fanouts: []int{5, 5},
					Device: c.device, QuantizeTransfer: c.quantize, Seed: 9,
				})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			whole, split := build(), build()
			rng := tensor.NewRNG(17)
			for b, n := range []int{1, 8, 32, 3, 16} {
				targets := make([]int32, n)
				for i := range targets {
					targets[i] = int32(rng.Intn(ds.Graph.NumVertices))
				}
				want, err := whole.RunBatch(targets)
				if err != nil {
					t.Fatal(err)
				}
				got, err := split.Sample(targets)
				if err != nil {
					t.Fatal(err)
				}
				if got.Logits != nil {
					t.Fatalf("batch %d: Sample produced logits", b)
				}
				if err := split.Propagate(got); err != nil {
					t.Fatal(err)
				}
				if err := sameResult(want, got); err != nil {
					t.Fatalf("batch %d (%d targets): %v", b, n, err)
				}
			}
			if a, b := whole.rng.Uint64(), split.rng.Uint64(); a != b {
				t.Fatalf("next draw %x after RunBatch, %x after Sample+Propagate", a, b)
			}
		})
	}
}

// sameResult compares two batch results bit for bit.
func sameResult(want, got *InferResult) error {
	if !reflect.DeepEqual(want.Stage, got.Stage) {
		return fmt.Errorf("stage %+v, want %+v", got.Stage, want.Stage)
	}
	if want.Edges != got.Edges || want.InputRows != got.InputRows || want.ForwardWork != got.ForwardWork {
		return fmt.Errorf("edges/rows/work %v/%d/%d, want %v/%d/%d",
			got.Edges, got.InputRows, got.ForwardWork, want.Edges, want.InputRows, want.ForwardWork)
	}
	if !reflect.DeepEqual(want.Targets, got.Targets) {
		return fmt.Errorf("targets %v, want %v", got.Targets, want.Targets)
	}
	if (want.FPGA == nil) != (got.FPGA == nil) || (want.FPGA != nil && *want.FPGA != *got.FPGA) {
		return fmt.Errorf("FPGA account %+v, want %+v", got.FPGA, want.FPGA)
	}
	if want.Logits.Rows != got.Logits.Rows || want.Logits.Cols != got.Logits.Cols {
		return fmt.Errorf("logits %dx%d, want %dx%d", got.Logits.Rows, got.Logits.Cols, want.Logits.Rows, want.Logits.Cols)
	}
	for i, v := range want.Logits.Data {
		if math.Float32bits(v) != math.Float32bits(got.Logits.Data[i]) {
			return fmt.Errorf("logit %d = %x, want %x", i, math.Float32bits(got.Logits.Data[i]), math.Float32bits(v))
		}
	}
	return nil
}

package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// RunBatch is Sample then Propagate: two pipelines of one configuration and
// seed, one running RunBatch and one the two halves, agree on every bit of
// every batch — logits, stage vector, edges, input rows, forward work and
// the FPGA account — and leave their RNGs at the same next draw, on a CPU
// peer, a GPU, an FPGA and quantized accelerators. The interleaved leg holds
// two batches at once, as a serving worker does: Sample a, Sample b,
// Propagate b, Propagate a equals RunBatch a, RunBatch b.
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
			rng := tensor.NewRNG(17)
			draw := func(n int) []int32 {
				targets := make([]int32, n)
				for i := range targets {
					targets[i] = int32(rng.Intn(ds.Graph.NumVertices))
				}
				return targets
			}
			whole, split := build(), build()
			for b, n := range []int{1, 8, 32, 3, 16} {
				targets := draw(n)
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

			whole, split = build(), build()
			for k, pair := range [][2]int{{8, 32}, {32, 1}, {3, 16}, {16, 16}} {
				ta, tb := draw(pair[0]), draw(pair[1])
				wa, err := whole.RunBatch(ta)
				if err != nil {
					t.Fatal(err)
				}
				wantA := snapshot(wa) // a's FPGA account lives in scratch b's Sample overwrites
				wantB, err := whole.RunBatch(tb)
				if err != nil {
					t.Fatal(err)
				}
				ga, err := split.Sample(ta)
				if err != nil {
					t.Fatal(err)
				}
				fpgaA := snapshot(ga).FPGA
				gb, err := split.Sample(tb)
				if err != nil {
					t.Fatal(err)
				}
				if ga == gb {
					t.Fatalf("pair %d: two Samples returned one result", k)
				}
				if err := split.Propagate(gb); err != nil {
					t.Fatal(err)
				}
				if err := split.Propagate(ga); err != nil {
					t.Fatal(err)
				}
				if err := sameResult(wantB, gb); err != nil {
					t.Fatalf("pair %d, batch b (%d targets): %v", k, pair[1], err)
				}
				gotA := *ga
				gotA.FPGA = fpgaA
				if err := sameResult(wantA, &gotA); err != nil {
					t.Fatalf("pair %d, batch a (%d targets): %v", k, pair[0], err)
				}
			}
			if a, b := whole.rng.Uint64(), split.rng.Uint64(); a != b {
				t.Fatalf("interleaved: next draw %x after RunBatch, %x after the interleaved halves", a, b)
			}
		})
	}
}

// snapshot copies a result out of its pipeline's slot and the FPGA scratch.
func snapshot(res *InferResult) *InferResult {
	c := *res
	c.Targets = append([]int32(nil), res.Targets...)
	if res.Logits != nil {
		c.Logits = res.Logits.Clone()
	}
	if res.FPGA != nil {
		f := *res.FPGA
		c.FPGA = &f
	}
	return &c
}

// Propagate runs only on a result this pipeline's Sample returned: one from
// another pipeline, a zero one, or a copy of its own is an error that writes
// no logits — and the batch the pipeline holds still propagates afterwards,
// bit for bit the other pipeline's.
func TestPropagateRejectsForeignResult(t *testing.T) {
	p, _ := inferFixture(t, smallPlatform(), 0)
	other, _ := inferFixture(t, smallPlatform(), 0)
	targets := []int32{3, 7, 11, 19}
	own, err := p.Sample(targets)
	if err != nil {
		t.Fatal(err)
	}
	want, err := other.RunBatch(targets)
	if err != nil {
		t.Fatal(err)
	}
	copied := *own
	for name, res := range map[string]*InferResult{
		"other-pipeline": want,
		"zero":           {},
		"copy":           &copied,
	} {
		t.Run(name, func(t *testing.T) {
			logits := res.Logits
			err := p.Propagate(res)
			if err == nil || !strings.Contains(err.Error(), "did not return") {
				t.Fatalf("Propagate accepted a foreign result: %v", err)
			}
			if res.Logits != logits || own.Logits != nil {
				t.Fatal("a rejected Propagate wrote logits")
			}
		})
	}
	if err := p.Propagate(own); err != nil {
		t.Fatal(err)
	}
	if err := sameResult(want, own); err != nil {
		t.Fatalf("after the rejections: %v", err)
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

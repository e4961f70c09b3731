package gnn

import (
	"testing"

	"repro/internal/tensor"
)

// Single-trainer loop (no synchronizer concurrency): parallelism must not
// change a single bit of the training trajectory. The mini-batch (2048
// targets, ≈ 3.4k layer-0 destinations, ≈ 67k + 32k sampled edges) is sized so
// the parallel legs really chunk their kernels — requireStepFansOut checks.
func TestDeterminismAcrossParallelism(t *testing.T) {
	dims := []int{96, 144, 16}
	fx := makeSizedFixture(t, dims, 2048, 77, fixtureSize{vertices: 4500, edges: 300000, fanout: 40, stride: 1})
	run := func(par int) *Parameters {
		prev := tensor.SetParallelism(par)
		defer tensor.SetParallelism(prev)
		m, err := NewModel(Config{Kind: SAGE, Dims: dims}, tensor.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		if par > 1 {
			requireStepFansOut(t, m.Cfg, fx.mb)
		}
		for i := 0; i < 3; i++ {
			g, _, _, err := trainStep(m, fx.mb, fx.x)
			if err != nil {
				t.Fatal(err)
			}
			for l := range m.Params.Weights {
				tensor.Axpy(m.Params.Weights[l], -0.1, g.Weights[l])
				tensor.Axpy(m.Params.Biases[l], -0.1, g.Biases[l])
			}
		}
		return m.Params
	}
	p1 := run(1)
	for _, par := range []int{3, 4} {
		p := run(par)
		for l := range p1.Weights {
			if !p1.Weights[l].Equal(p.Weights[l]) || !p1.Biases[l].Equal(p.Biases[l]) {
				t.Fatalf("layer %d: parallelism %d changed the training trajectory", l, par)
			}
		}
	}
}

// The SIMD mirror of the test above: generic, AVX2 and AVX-512 (where the
// CPU has them) must produce the same training trajectory bit for bit — the
// kernels keep multiply and add unfused exactly so this holds.
func TestDeterminismAcrossSIMDLevels(t *testing.T) {
	run := func(lvl tensor.SIMDLevel) *Parameters {
		prev, err := tensor.SetSIMDLevel(lvl)
		if err != nil {
			t.Fatalf("SetSIMDLevel(%v): %v", lvl, err)
		}
		defer tensor.SetSIMDLevel(prev)
		dims := []int{8, 16, 5}
		fx := makeFixture(t, dims, 32, 77)
		m, err := NewModel(Config{Kind: SAGE, Dims: dims}, tensor.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			g, _, _, err := trainStep(m, fx.mb, fx.x)
			if err != nil {
				t.Fatal(err)
			}
			for l := range m.Params.Weights {
				tensor.Axpy(m.Params.Weights[l], -0.1, g.Weights[l])
				tensor.Axpy(m.Params.Biases[l], -0.1, g.Biases[l])
			}
		}
		return m.Params
	}
	ref := run(tensor.SIMDGeneric)
	for lvl := tensor.SIMDGeneric + 1; lvl <= tensor.DetectedSIMDLevel(); lvl++ {
		p := run(lvl)
		for l := range ref.Weights {
			if !ref.Weights[l].Equal(p.Weights[l]) || !ref.Biases[l].Equal(p.Biases[l]) {
				t.Fatalf("layer %d: SIMD level %v changed the training trajectory", l, lvl)
			}
		}
	}
}

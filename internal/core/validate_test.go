package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// Config.Validate checks what needs no dataset, names the rejected value in
// its error, and is what NewEngine rejects first: a config that fails it fails
// NewEngine with the same error, dataset or not.
func TestConfigValidate(t *testing.T) {
	valid := func() Config {
		return Config{Plat: smallPlatform(), Model: gnn.Config{Kind: gnn.SAGE, Dims: []int{16, 16, 5}},
			LR: 0.3, BatchSize: 64, Fanouts: []int{5, 5}}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("a config without a dataset is rejected: %v", err)
	}
	cfg := valid()
	cfg.Pipeline = PipelinePrefetch
	if err := cfg.Validate(); err != nil {
		t.Fatalf("prefetch rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero lr", func(c *Config) { c.LR = 0 }, "learning rate 0"},
		{"negative lr", func(c *Config) { c.LR = -0.5 }, "learning rate -0.5"},
		{"NaN lr", func(c *Config) { c.LR = float32(math.NaN()) }, "learning rate NaN"},
		{"+Inf lr", func(c *Config) { c.LR = float32(math.Inf(1)) }, "learning rate +Inf"},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }, "batch size 0"},
		{"negative batch", func(c *Config) { c.BatchSize = -3 }, "batch size -3"},
		{"pipeline mode", func(c *Config) { c.Pipeline = PipelineMode(7) }, "pipeline mode 7"},
		{"one dim", func(c *Config) { c.Model.Dims = []int{16} }, "[16]"},
		{"zero dim", func(c *Config) { c.Model.Dims = []int{16, 0, 5} }, "[16 0 5]"},
		{"model kind", func(c *Config) { c.Model.Kind = gnn.Kind(9) }, "kind 9"},
		{"negative fan-out", func(c *Config) { c.Fanouts = []int{-1, 4} }, "Fanouts [-1 4]: sampler: negative fanout -1"},
		{"too few fan-outs", func(c *Config) { c.Fanouts = []int{25} }, "Fanouts [25]: 1 fan-outs for a 2-layer model"},
		{"too many fan-outs", func(c *Config) { c.Fanouts = []int{25, 10, 5} }, "Fanouts [25 10 5]: 3 fan-outs"},
		{"no fan-outs", func(c *Config) { c.Fanouts = []int{} }, "Fanouts []: 0 fan-outs"},
		{"nil fan-outs", func(c *Config) { c.Fanouts = nil }, "Fanouts []: 0 fan-outs"},
	} {
		cfg := valid()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Validate error %v, want one naming %q", tc.name, err, tc.want)
		}
		if _, eerr := NewEngine(cfg); eerr == nil || eerr.Error() != err.Error() {
			t.Fatalf("%s: NewEngine error %v, want Validate's %v", tc.name, eerr, err)
		}
	}
}

// FuzzCoreConfig generates configurations from bounded inputs — any learning
// rate bits, a batch size from an int8, zero to three fan-outs in −2…25, the
// three feature switches, a pipeline mode from an int8 (invalid ones
// included), one of three fleets and one of two datasets that the model's
// widths match — and checks Validate's contract with NewEngine: a
// configuration Validate accepts builds an engine that runs an epoch without
// an error or a panic, and one it rejects fails NewEngine with the same
// error. An accepted configuration's epoch on the prefetch worker also equals
// its inline epoch: the same error, the same EpochStats and the same
// parameters, bit for bit. The first seeds are four fan-out lists Validate
// once accepted.
//
// DRM moves a target only while every accelerator keeps 32 or more, so it
// acts only at batch sizes above 32. On the 300-vertex dataset (≈ 75
// training vertices) such a batch is the whole epoch, one iteration, so a
// share DRM moves is never trained; the 2 000-vertex one (≈ 500) runs
// further iterations on the mapping DRM moved. The last three seeds run on
// it; in the last two DRM moves the mapping in the first epoch — work across
// the mixed fleet, then threads on the CPU+FPGA node with the CPU training —
// so the worker ≡ inline property also covers a mapping that moves.
func FuzzCoreConfig(f *testing.F) {
	spec, small := fuzzDataset(f)
	bigSpec := datagen.Spec{Name: "fuzz-drm", NumVertices: 2000, NumEdges: 10000, FeatDims: spec.FeatDims}
	big, err := datagen.Materialize(bigSpec, 0.25, tensor.NewRNG(5))
	if err != nil {
		f.Fatal(err)
	}
	hetero, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		f.Fatal(err)
	}
	plats := []hw.Platform{hw.CPUFPGAPlatform(), hw.CPUGPUPlatform(), hetero}
	// A fan-out byte b decodes to b mod 28 − 2, so enc(v) = v + 2.
	for _, fan := range [][]byte{{1, 6}, {27}, {27, 12, 7}, {}} {
		f.Add(math.Float32bits(0.3), int8(16), fan, true, true, true, int8(0), uint8(0), false)
	}
	f.Add(math.Float32bits(0.3), int8(8), []byte{7, 7}, true, false, true, int8(1), uint8(2), false)
	f.Add(math.Float32bits(0.3), int8(16), []byte{7, 7}, false, true, true, int8(0), uint8(1), false)
	f.Add(math.Float32bits(math.MaxFloat32), int8(8), []byte{7, 7}, true, true, true, int8(1), uint8(0), false)
	f.Add(math.Float32bits(0.3), int8(40), []byte{7, 7}, false, true, true, int8(0), uint8(0), true)
	f.Add(math.Float32bits(0.3), int8(40), []byte{7, 7}, false, true, true, int8(0), uint8(2), true)
	f.Add(math.Float32bits(0.3), int8(40), []byte{7, 7}, true, true, true, int8(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, lrBits uint32, batch int8, fan []byte, hybrid, tfp, drm bool, pipeline int8, plat uint8, roomForDRM bool) {
		fanouts := make([]int, min(len(fan), 3))
		for i := range fanouts {
			fanouts[i] = int(fan[i]%28) - 2
		}
		ds := small
		if roomForDRM {
			ds = big
		}
		cfg := Config{
			Plat: plats[int(plat)%len(plats)], Data: ds,
			Model: gnn.Config{Kind: gnn.SAGE, Dims: spec.FeatDims},
			LR:    math.Float32frombits(lrBits), BatchSize: int(batch), Fanouts: fanouts,
			Hybrid: hybrid, TFP: tfp, DRM: drm, Pipeline: PipelineMode(pipeline), Seed: 3,
		}
		verr := cfg.Validate()
		e, err := NewEngine(cfg)
		if verr != nil {
			if err == nil || err.Error() != verr.Error() {
				t.Fatalf("Validate rejected %+v with %v, NewEngine with %v", cfg, verr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Validate accepted, NewEngine failed: %v", err)
		}
		si, err := e.runEpochInline()
		if err != nil && !errors.Is(err, errDiverged) {
			t.Fatalf("Validate accepted, the inline epoch failed: %v", err)
		}
		w, werr := NewEngine(cfg)
		if werr != nil {
			t.Fatalf("a second NewEngine failed: %v", werr)
		}
		sw, werr := w.runEpochAsync()
		if fmt.Sprint(werr) != fmt.Sprint(err) || fmt.Sprintf("%#v", sw) != fmt.Sprintf("%#v", si) {
			t.Fatalf("the worker's epoch differs from the inline one:\n worker %#v (%v)\n inline %#v (%v)", sw, werr, si, err)
		}
		pi, pw := e.Params(), w.Params()
		for l := range pi.Weights {
			if !sameBits(pi.Weights[l], pw.Weights[l]) || !sameBits(pi.Biases[l], pw.Biases[l]) {
				t.Fatalf("layer %d: the worker's parameters differ bitwise from the inline ones", l)
			}
		}
		if a := e.Assignment(); !hybrid && len(cfg.Plat.Accels) > 0 && a.CPUBatch != 0 {
			t.Fatalf("hybrid off on %s, yet the CPU trains %d targets", cfg.Plat.Name, a.CPUBatch)
		}
	})
}

// sameBits reports whether a and b hold the same shape and the same bits (a
// diverged run's NaN parameters included).
func sameBits(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// fuzzDataset is FuzzCoreConfig's 300-vertex dataset.
func fuzzDataset(tb testing.TB) (datagen.Spec, *datagen.Dataset) {
	spec := datagen.Spec{Name: "fuzz", NumVertices: 300, NumEdges: 1500, FeatDims: []int{8, 8, 4}}
	ds, err := datagen.Materialize(spec, 0.25, tensor.NewRNG(5))
	if err != nil {
		tb.Fatal(err)
	}
	return spec, ds
}

// A learning rate of MaxFloat32 blows the weights up on the first update, so
// a later iteration's loss is not finite: an epoch fails there, naming the
// epoch and the iteration, inline or on the prefetch worker, instead of
// training on NaN.
func TestRunEpochFailsOnDivergence(t *testing.T) {
	spec, ds := fuzzDataset(t)
	for name, run := range map[string]epochRunner{"inline": runInline, "worker": runWorker} {
		e, err := NewEngine(Config{
			Plat: hw.CPUFPGAPlatform(), Data: ds, Model: gnn.Config{Kind: gnn.SAGE, Dims: spec.FeatDims},
			LR: math.MaxFloat32, BatchSize: 8, Fanouts: []int{5, 5},
			Hybrid: true, TFP: true, DRM: true, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = run(e)
		if !errors.Is(err, errDiverged) || !strings.Contains(err.Error(), "epoch 1, iteration ") {
			t.Fatalf("%s: epoch = %v, want the divergence error in epoch 1", name, err)
		}
	}
}

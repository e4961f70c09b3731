package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/tensor"
)

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// fpgaEpochSig runs three epochs of baseConfig on plat and renders what the
// FPGA trainers feed the run — loss, virtual clock, throughput and the
// dataflow account — as hex floats, so any drift is a one-character diff.
func fpgaEpochSig(t *testing.T, plat hw.Platform) string {
	t.Helper()
	cfg := baseConfig(t)
	cfg.Plat = plat
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for ep := 1; ep <= 3; ep++ {
		st, err := e.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		f := st.FPGA
		fmt.Fprintf(&b, "epoch%d loss=%s vsec=%s mteps=%s agg=%d upd=%d fetches=%d traffic=%d out=%d sec=%s\n",
			ep, hexf(st.Loss), hexf(st.VirtualSec), hexf(st.MTEPS),
			f.AggCycles, f.UpdateCycles, f.FeatureFetches, f.TrafficBytes, f.OutputBytes, hexf(f.Sec))
	}
	return b.String()
}

// The goldens were recorded on the commit before the FPGA trainer stopped
// executing the numeric dataflow forward (its account is now computed from
// the sampled blocks' structure alone): CPU + 2 FPGA and CPU + GPU + FPGA,
// both with DRM on, so the account also steers the task mapping.
const (
	goldenFPGASmall = "epoch1 loss=0x1.55bace731c69cp+00 vsec=0x1.ca19063a79978p-08 mteps=0x1.156c99a9a1eacp+00 agg=5268 upd=5341 fetches=2309 traffic=114048 out=4880 sec=0x1.356d837477848p-16\n" +
		"epoch2 loss=0x1.0fe5169f456eep-01 vsec=0x1.b14fe9a6714eep-08 mteps=0x1.2730afb977cf3p+00 agg=5240 upd=5343 fetches=2293 traffic=112832 out=4880 sec=0x1.37f1c232f934fp-16\n" +
		"epoch3 loss=0x1.0a1907ba5988ep-02 vsec=0x1.b1487f92c53e6p-08 mteps=0x1.2408e75a527abp+00 agg=5261 upd=5344 fetches=2303 traffic=113408 out=4880 sec=0x1.36e1be7672cep-16\n"
	goldenFPGAMixed = "epoch1 loss=0x1.56b6a40bab4f7p+00 vsec=0x1.7aa7238ccab72p-05 mteps=0x1.4e912689b80a3p-03 agg=2515 upd=2660 fetches=1096 traffic=54336 out=2260 sec=0x1.33ce5554b7d9fp-17\n" +
		"epoch2 loss=0x1.0d123cb67a361p-01 vsec=0x1.778f161d09e06p-05 mteps=0x1.559130b33be6dp-03 agg=2397 upd=2658 fetches=1038 traffic=51520 out=2260 sec=0x1.2bdd61d3bde62p-17\n" +
		"epoch3 loss=0x1.0e27f9d8978adp-02 vsec=0x1.778f29a4509fp-05 mteps=0x1.4fe4b97a7adfep-03 agg=2427 upd=2658 fetches=1052 traffic=51968 out=2260 sec=0x1.29f69e826199bp-17\n"
)

func TestFPGAGoldenEpochStats(t *testing.T) {
	for _, tc := range []struct {
		name string
		plat hw.Platform
		want string
	}{
		{"cpu+2fpga", smallPlatform(), goldenFPGASmall},
		{"cpu+gpu+fpga", mixedPlatform(t), goldenFPGAMixed},
	} {
		if got := fpgaEpochSig(t, tc.plat); got != tc.want {
			t.Errorf("%s: FPGA run drifted from the recorded golden:\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// A warm fpgaTrainer.Step — structural account, reference train step,
// pricing — runs on trainer- and backend-owned scratch only.
func TestFPGATrainerStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation gate is skipped under -race")
	}
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	e, err := NewEngine(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ft, ok := e.Trainers()[1].(*fpgaTrainer)
	if !ok {
		t.Fatalf("trainer 1 is %T, want FPGA dataflow", e.Trainers()[1])
	}
	mb, err := e.smp.Sample(e.cfg.Data.TrainIdx[:64], e.rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(len(mb.InputNodes()), e.cfg.Model.Dims[0])
	tensor.GatherRows(x, e.cfg.Data.Features, mb.InputNodes())
	step := func() {
		res, err := ft.Step(mb, x)
		if err != nil || res.FPGA == nil || res.FPGA.AggCycles <= 0 {
			t.Fatalf("step: %v, account %+v", err, res.FPGA)
		}
	}
	step() // warm
	if a := testing.AllocsPerRun(10, step); a != 0 {
		t.Fatalf("fpgaTrainer.Step allocated %.1f times per step, want 0", a)
	}
}

// A warm FPGA-bound RunBatch — sample, gather, dataflow forward on the
// backend's arena, stats from the backend's slot — allocates nothing.
func TestFPGARunBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation gate is skipped under -race")
	}
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	p, _ := inferFixture(t, smallPlatform(), 1)
	targets := []int32{3, 7, 11, 19, 23, 42, 77, 101}
	run := func() {
		res, err := p.RunBatch(targets)
		if err != nil || res.FPGA == nil || res.Logits.Rows != len(targets) {
			t.Fatalf("RunBatch: %v, result %+v", err, res)
		}
	}
	// The rng advances per batch, so sampled sizes vary: warm every arena
	// to its roof first.
	for i := 0; i < 60; i++ {
		run()
	}
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("FPGA RunBatch allocated %.1f times per batch, want 0", a)
	}
}

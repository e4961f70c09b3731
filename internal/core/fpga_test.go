package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/accel"
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

// The goldens pin CPU + 2 FPGA and CPU + GPU + FPGA, both with DRM on, so
// the dataflow account also steers the task mapping. First recorded on the
// commit before the FPGA trainer stopped executing the numeric dataflow
// forward (its account is now computed from the sampled blocks' structure
// alone) and held across that change; re-recorded in PR 13 (on 4a91e8d)
// because the sampler now draws its uniform k-subsets with Floyd's algorithm
// instead of Algorithm R, so every mini-batch holds different (equally
// likely) neighbours — out= (|targets|·classes) did not move. Re-recorded
// when every c += a·b became one fused multiply-add at every SIMD level: only
// loss= moved.
const (
	goldenFPGASmall = "epoch1 loss=0x1.56bb08f52d11ep+00 vsec=0x1.ca1bcf7e45698p-08 mteps=0x1.18a3f37f6ccb4p+00 agg=5229 upd=5342 fetches=2288 traffic=112640 out=4880 sec=0x1.35343f4cc7031p-16\n" +
		"epoch2 loss=0x1.13b0ce3302042p-01 vsec=0x1.b14dfa7ba7d88p-08 mteps=0x1.26936903b7e43p+00 agg=5263 upd=5343 fetches=2302 traffic=113024 out=4880 sec=0x1.3965fd34f47e6p-16\n" +
		"epoch3 loss=0x1.0ba0a4e5f2cecp-02 vsec=0x1.b148de225f968p-08 mteps=0x1.2412913cfbc68p+00 agg=5298 upd=5344 fetches=2322 traffic=114496 out=4880 sec=0x1.3839576495d6cp-16\n"
	goldenFPGAMixed = "epoch1 loss=0x1.56524697d0f47p+00 vsec=0x1.7aa741588d736p-05 mteps=0x1.52111fd53ff38p-03 agg=2476 upd=2660 fetches=1075 traffic=52864 out=2260 sec=0x1.308ff9153884cp-17\n" +
		"epoch2 loss=0x1.123929b1d0d24p-01 vsec=0x1.778f05b05096p-05 mteps=0x1.53832ed973bd5p-03 agg=2448 upd=2659 fetches=1062 traffic=52544 out=2260 sec=0x1.2f71a44ec5fd7p-17\n" +
		"epoch3 loss=0x1.071f970d3613ap-02 vsec=0x1.778f2f4a51ee2p-05 mteps=0x1.5383093da777dp-03 agg=2387 upd=2659 fetches=1031 traffic=50560 out=2260 sec=0x1.2ba41dac0d64ap-17\n"
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

// A warm FPGA trainer step — propSec's structural account and pricing on the
// slot, then the reference train step on a pool worker — runs on slot-,
// backend- and pool-owned scratch only.
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
	if e.backends[0] == nil {
		t.Fatal("accelerator 0 of the CPU+FPGA platform has no dataflow backend")
	}
	mb, err := e.smp.Sample(e.cfg.Data.TrainIdx[:64], e.rng)
	if err != nil {
		t.Fatal(err)
	}
	s := e.slot(0)
	step := func() {
		s.fpga = accel.ForwardStats{}
		sec, err := e.propSec(s, 1, mb, sizesInto(&s.sizes, mb))
		if err != nil || sec <= 0 || s.fpga.AggCycles <= 0 {
			t.Fatalf("propSec: %v sec, err %v, account %+v", sec, err, s.fpga)
		}
		res := &e.pool.res[1]
		if e.pool.workers[0].step(e.model, mb, e.cfg.Data.Features, res); res.err != nil {
			t.Fatal(res.err)
		}
	}
	step() // warm
	if a := testing.AllocsPerRun(10, step); a != 0 {
		t.Fatalf("FPGA trainer step allocated %.1f times per step, want 0", a)
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

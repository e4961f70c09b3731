package hw

import (
	"math"
	"testing"
)

func TestKindString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" || FPGA.String() != "FPGA" {
		t.Fatal("Kind names wrong")
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, d := range []Device{EPYC7763(), A5000(), U250(), Xeon8163(), V100(), XeonE52690(), P100(), T4(), VCPU96()} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	for _, p := range []Platform{CPUGPUPlatform(), CPUFPGAPlatform(), PaGraphNode(), P3Node(), DistDGLNode()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestTable2Specs(t *testing.T) {
	// Paper Table II, verbatim peaks.
	cpu := EPYC7763()
	if cpu.PeakTFLOPS != 3.6 || cpu.FreqGHz != 2.45 || cpu.MemBWGBs != 205 || cpu.OnChipMB != 256 {
		t.Fatalf("EPYC7763 specs: %+v", cpu)
	}
	gpu := A5000()
	if gpu.PeakTFLOPS != 27.8 || gpu.MemBWGBs != 768 || gpu.OnChipMB != 6 {
		t.Fatalf("A5000 specs: %+v", gpu)
	}
	fpga := U250()
	if fpga.PeakTFLOPS != 0.6 || fpga.MemBWGBs != 77 || fpga.OnChipMB != 54 || fpga.FreqGHz != 0.3 {
		t.Fatalf("U250 specs: %+v", fpga)
	}
	if !fpga.Pipelined || gpu.Pipelined || cpu.Pipelined {
		t.Fatal("only the FPGA dataflow kernel is pipelined")
	}
}

func TestDeviceDerivedRates(t *testing.T) {
	d := Device{Name: "x", Kind: GPU, PeakTFLOPS: 10, FreqGHz: 1, MemBWGBs: 100,
		MLPEff: 0.5, GatherEff: 0.1, StreamEff: 0.8}
	if d.EffectiveTFLOPS() != 5 || d.GatherGBs() != 10 || d.StreamGBs() != 80 {
		t.Fatalf("derived rates wrong: %v %v %v", d.EffectiveTFLOPS(), d.GatherGBs(), d.StreamGBs())
	}
}

func TestDeviceValidateCatchesBadValues(t *testing.T) {
	bad := EPYC7763()
	bad.MLPEff = 1.5
	if bad.Validate() == nil {
		t.Fatal("expected error for efficiency > 1")
	}
	bad2 := EPYC7763()
	bad2.Cores = 0
	if bad2.Validate() == nil {
		t.Fatal("expected error for CPU without cores")
	}
	bad3 := A5000()
	bad3.PeakTFLOPS = 0
	if bad3.Validate() == nil {
		t.Fatal("expected error for zero peak")
	}
}

func TestLinkTransfer(t *testing.T) {
	l := Link{Name: "test", PeakGBs: 10, Eff: 0.5, LatencyUs: 100}
	if l.EffGBs() != 5 {
		t.Fatalf("EffGBs = %v", l.EffGBs())
	}
	// 5 GB at 5 GB/s = 1 s plus 100 µs latency.
	got := l.TransferSec(5e9)
	if math.Abs(got-1.0001) > 1e-9 {
		t.Fatalf("TransferSec = %v", got)
	}
	if l.TransferSec(0) != 0 {
		t.Fatal("zero bytes should cost zero")
	}
}

func TestPlatformAggregates(t *testing.T) {
	p := CPUFPGAPlatform()
	if got := p.TotalCPUTFLOPS(); math.Abs(got-7.2) > 1e-9 {
		t.Fatalf("TotalCPUTFLOPS = %v, want 7.2 (paper §I)", got)
	}
	if p.TotalCPUCores() != 128 {
		t.Fatalf("TotalCPUCores = %d", p.TotalCPUCores())
	}
	if got := p.CPUMemBWGBs(); got != 410 {
		t.Fatalf("CPUMemBWGBs = %v", got)
	}
	// 7.2 + 4×0.6 = 9.6 — the paper's Table VII normalization for This Work.
	if got := p.TotalTFLOPS(); math.Abs(got-9.6) > 1e-9 {
		t.Fatalf("TotalTFLOPS = %v, want 9.6", got)
	}
}

// Table VII normalization checks: platform totals times node counts must
// reproduce the TFLOPS figures behind the paper's sec×TFLOPS column.
func TestComparatorPlatformTFLOPS(t *testing.T) {
	cases := []struct {
		p     Platform
		nodes int
		want  float64
		tol   float64
	}{
		{PaGraphNode(), 1, 114.5, 3},
		{P3Node(), 4, 148.8, 4},
		{DistDGLNode(), 8, 544, 30},
	}
	for _, c := range cases {
		got := c.p.TotalTFLOPS() * float64(c.nodes)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s × %d nodes: %v TFLOPS, want ≈%v", c.p.Name, c.nodes, got, c.want)
		}
	}
}

func TestIntroSpeedupClaim(t *testing.T) {
	// Paper §I: dual 7763 (7.2) + one A5000 (27.8) ⇒ potential 1.26×.
	p := CPUGPUPlatform()
	potential := (p.TotalCPUTFLOPS() + A5000().PeakTFLOPS) / A5000().PeakTFLOPS
	if math.Abs(potential-1.26) > 0.01 {
		t.Fatalf("potential hybrid speedup = %v, want 1.26", potential)
	}
}

func TestWithAccelCount(t *testing.T) {
	p := CPUFPGAPlatform().WithAccelCount(16)
	if len(p.Accels) != 16 {
		t.Fatalf("accels = %d", len(p.Accels))
	}
	if p.Accels[15].Name != U250().Name {
		t.Fatal("accelerator type changed")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithAccelCountPanicsWithoutAccels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Platform{CPU: EPYC7763(), Sockets: 1}.WithAccelCount(2)
}

// WithAccelCount on a mixed fleet must keep the composition (round-robin)
// rather than silently cloning the first device.
func TestWithAccelCountRoundRobinsMixedFleet(t *testing.T) {
	p, err := HeteroPlatform(GPU, FPGA)
	if err != nil {
		t.Fatal(err)
	}
	q := p.WithAccelCount(5)
	wantKinds := []Kind{GPU, FPGA, GPU, FPGA, GPU}
	for i, k := range wantKinds {
		if q.Accels[i].Kind != k {
			t.Fatalf("accel %d kind = %v, want %v", i, q.Accels[i].Kind, k)
		}
	}
	if len(q.AccelLinks) != 5 {
		t.Fatalf("links = %d", len(q.AccelLinks))
	}
	if q.AccelLink(1).Name != PCIe3x16().Name || q.AccelLink(2).Name != PCIe4x16().Name {
		t.Fatal("links did not round-robin with their devices")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHeteroPlatform(t *testing.T) {
	p, err := HeteroPlatform(GPU, GPU, FPGA)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Accels) != 3 || p.Accels[0].Kind != GPU || p.Accels[2].Kind != FPGA {
		t.Fatalf("fleet composition wrong: %+v", p.Accels)
	}
	// Per-device links: GPUs on PCIe4, the FPGA on PCIe3.
	if p.AccelLink(0).Name != PCIe4x16().Name || p.AccelLink(2).Name != PCIe3x16().Name {
		t.Fatalf("links: %v / %v", p.AccelLink(0).Name, p.AccelLink(2).Name)
	}
	// The default link is the slowest of the fleet (conservative fallback).
	if p.PCIe.Name != PCIe3x16().Name {
		t.Fatalf("default PCIe = %v", p.PCIe.Name)
	}
	if _, err := HeteroPlatform(); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := HeteroPlatform(CPU); err == nil {
		t.Fatal("CPU accepted as accelerator kind")
	}
}

// Validate must reject per-device link lists that do not match the fleet.
func TestValidateAccelLinks(t *testing.T) {
	p, err := HeteroPlatform(GPU, FPGA)
	if err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.AccelLinks = bad.AccelLinks[:1]
	if bad.Validate() == nil {
		t.Fatal("mismatched link count accepted")
	}
	bad2 := p
	bad2.AccelLinks = []Link{PCIe4x16(), {}}
	if bad2.Validate() == nil {
		t.Fatal("zero-bandwidth per-device link accepted")
	}
}

func TestGPUvsFPGAQualitativeRegime(t *testing.T) {
	// The paper's central hardware claim (§VI-E1): the FPGA kernel avoids
	// framework overhead and achieves high gather efficiency; the
	// PyTorch-driven GPU pays both. Check the constants encode that regime.
	gpu, fpga := A5000(), U250()
	if fpga.FrameworkOverheadMs >= gpu.FrameworkOverheadMs/10 {
		t.Fatal("FPGA framework overhead should be ≥10x below GPU's")
	}
	if fpga.GatherEff <= gpu.GatherEff {
		t.Fatal("FPGA gather efficiency should exceed GPU's")
	}
	// Raw compute still strongly favors the GPU.
	if gpu.PeakTFLOPS < 10*fpga.PeakTFLOPS {
		t.Fatal("GPU peak should dominate FPGA peak")
	}
}

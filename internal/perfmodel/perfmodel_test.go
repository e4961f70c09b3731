package perfmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
)

func fpgaModel(t *testing.T, spec datagen.Spec, kind gnn.Kind) *Model {
	t.Helper()
	m, err := New(hw.CPUFPGAPlatform(), DefaultWorkload(spec, kind))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWorkloadValidate(t *testing.T) {
	w := DefaultWorkload(datagen.OGBNProducts, gnn.GCN)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	w.BatchSize = 0
	if w.Validate() == nil {
		t.Fatal("expected batch-size error")
	}
	w = DefaultWorkload(datagen.OGBNProducts, gnn.GCN)
	w.Fanouts = []int{25}
	if w.Validate() == nil {
		t.Fatal("expected fanout-count error")
	}
}

func TestNewValidatesPlatform(t *testing.T) {
	bad := hw.CPUFPGAPlatform()
	bad.Sockets = 0
	if _, err := New(bad, DefaultWorkload(datagen.OGBNProducts, gnn.GCN)); err == nil {
		t.Fatal("expected platform error")
	}
}

func TestSizesForPaperConfig(t *testing.T) {
	w := DefaultWorkload(datagen.OGBNPapers100M, gnn.GCN)
	s := w.SizesFor(1024)
	if s.VL[2] != 1024 {
		t.Fatalf("targets = %v", s.VL[2])
	}
	// papers100M avg degree ≈ 14.5 < 25, so the inner fanout caps at 14.5.
	if s.EL[1] != 10240 {
		t.Fatalf("E2 = %v, want 1024×10", s.EL[1])
	}
	avgDeg := float64(datagen.OGBNPapers100M.NumEdges) / float64(datagen.OGBNPapers100M.NumVertices)
	if math.Abs(s.EL[0]-s.VL[1]*avgDeg) > 1 {
		t.Fatalf("E1 = %v, want V1×avgDeg = %v", s.EL[0], s.VL[1]*avgDeg)
	}
}

func TestAssignmentTotalAndClone(t *testing.T) {
	a := Assignment{CPUBatch: 100, AccelBatch: []int{200, 300}}
	if a.TotalBatch() != 600 {
		t.Fatalf("TotalBatch = %d", a.TotalBatch())
	}
	c := a.Clone()
	c.AccelBatch[0] = 999
	if a.AccelBatch[0] != 200 {
		t.Fatal("Clone shares AccelBatch")
	}
}

func TestSamplingTimeScalesWithThreads(t *testing.T) {
	m := fpgaModel(t, datagen.OGBNProducts, gnn.GCN)
	t1 := m.SampleTimeCPUEdges(m.Work.EdgesPerBatch(4096), 1)
	t32 := m.SampleTimeCPUEdges(m.Work.EdgesPerBatch(4096), 32)
	if math.Abs(t1/t32-32) > 1e-6 {
		t.Fatalf("sampling not linear in threads: %v / %v", t1, t32)
	}
	if m.SampleTimeCPUEdges(m.Work.EdgesPerBatch(0), 8) != 0 || m.SampleTimeCPUEdges(m.Work.EdgesPerBatch(100), 0) != 0 {
		t.Fatal("degenerate sampling times should be 0")
	}
	if m.SampleTimeAccelEdges(m.Work.EdgesPerBatch(0)) != 0 {
		t.Fatal("zero-batch accel sampling should be 0")
	}
	if m.SampleTimeAccelEdges(m.Work.EdgesPerBatch(1024)) <= 0 {
		t.Fatal("accel sampling time should be positive")
	}
}

func TestLoadTimeEq7(t *testing.T) {
	m := fpgaModel(t, datagen.OGBNPapers100M, gnn.GCN)
	a := Assignment{AccelBatch: []int{1024}, LoadThreads: 32}
	got := m.Stages(a).Load
	// Eq. 7: |V0|·f0·4 / BW, with the loader's DRAM share as the bandwidth.
	rows := m.Work.SizesFor(1024).VL[0]
	want := rows * 128 * 4 / (m.Plat.CPUMemBWGBs() * 0.30 * 1e9)
	if math.Abs(got-want) > want*1e-9 {
		t.Fatalf("LoadTime = %v, want %v", got, want)
	}
	// Halving threads below saturation doubles time.
	a16 := a
	a16.LoadThreads = 16
	if math.Abs(m.Stages(a16).Load/got-2) > 1e-6 {
		t.Fatal("load time should scale inversely with threads below saturation")
	}
	// More threads than saturation: no further speedup.
	a64 := a
	a64.LoadThreads = 64
	if m.Stages(a64).Load != got {
		t.Fatal("load time should saturate")
	}
	// No accelerator work: no load stage.
	if m.Stages(Assignment{LoadThreads: 32}).Load != 0 {
		t.Fatal("load with no accel batch should be 0")
	}
}

func TestTransferTimeEq8(t *testing.T) {
	m := fpgaModel(t, datagen.OGBNPapers100M, gnn.GCN)
	a := Assignment{AccelBatch: []int{512, 512, 512, 512}}
	single := Assignment{AccelBatch: []int{512}}
	// Links are private: 4 equal accelerators cost the same as 1.
	if math.Abs(m.Stages(a).Trans-m.Stages(single).Trans) > 1e-12 {
		t.Fatal("parallel PCIe links should not add up")
	}
	// Larger batch → strictly more transfer time.
	big := Assignment{AccelBatch: []int{1024}}
	if m.Stages(big).Trans <= m.Stages(single).Trans {
		t.Fatal("transfer time should grow with batch")
	}
	if m.Stages(Assignment{}).Trans != 0 {
		t.Fatal("no accel → no transfer")
	}
}

func TestTrainTimePipeliningAdvantage(t *testing.T) {
	// The same batch on a hypothetical non-pipelined U250 must be slower
	// than the pipelined one (⊕ = max vs Σ, Eq. 10).
	plat := hw.CPUFPGAPlatform()
	m, _ := New(plat, DefaultWorkload(datagen.OGBNPapers100M, gnn.GCN))
	a := Assignment{AccelBatch: []int{1024}}
	piped := m.Stages(a).TrainAcc

	plat2 := hw.CPUFPGAPlatform()
	for i := range plat2.Accels {
		plat2.Accels[i].Pipelined = false
	}
	m2, _ := New(plat2, DefaultWorkload(datagen.OGBNPapers100M, gnn.GCN))
	seq := m2.Stages(a).TrainAcc
	if piped >= seq {
		t.Fatalf("pipelined %v should beat sequential %v", piped, seq)
	}
}

func TestTrainTimeCPUScalesWithThreads(t *testing.T) {
	m := fpgaModel(t, datagen.OGBNProducts, gnn.GCN)
	a := Assignment{CPUBatch: 1024, TrainThreads: 64}
	t64 := m.Stages(a).TrainCPU
	a.TrainThreads = 32
	t32 := m.Stages(a).TrainCPU
	if math.Abs(t32/t64-2) > 1e-6 {
		t.Fatalf("CPU training should scale with threads: %v vs %v", t32, t64)
	}
	if m.Stages(Assignment{CPUBatch: 0, TrainThreads: 8}).TrainCPU != 0 {
		t.Fatal("no CPU batch → no CPU training time")
	}
}

func TestSAGECostsMoreThanGCN(t *testing.T) {
	// SAGE's concatenation doubles the dense-update input width (Eq. 12
	// with 2·f_in) — its propagation and sync must cost more.
	gcn := fpgaModel(t, datagen.OGBNPapers100M, gnn.GCN)
	sage := fpgaModel(t, datagen.OGBNPapers100M, gnn.SAGE)
	a := Assignment{AccelBatch: []int{1024}}
	if sage.Stages(a).TrainAcc <= gcn.Stages(a).TrainAcc {
		t.Fatal("SAGE propagation should cost more than GCN")
	}
	if sage.SyncTime() <= gcn.SyncTime() {
		t.Fatal("SAGE sync should cost more than GCN (larger model)")
	}
}

func TestSyncTimeEq13(t *testing.T) {
	m := fpgaModel(t, datagen.OGBNProducts, gnn.GCN)
	// GCN model: W1 100×256 + b 256, W2 256×47 + b 47.
	params := float64(100*256 + 256 + 256*47 + 47)
	want := 2 * params * 4 / (m.Plat.PCIe.EffGBs() * 1e9)
	if math.Abs(m.SyncTime()-want) > want*1e-12 {
		t.Fatalf("SyncTime = %v, want %v", m.SyncTime(), want)
	}
}

func TestIterationsAndEpoch(t *testing.T) {
	m := fpgaModel(t, datagen.OGBNProducts, gnn.GCN)
	a := m.InitialAssignment(true)
	// 196,615 train nodes / 4096 global batch = 49 iterations.
	if got := m.Iterations(a); got != 49 {
		t.Fatalf("Iterations = %d, want 49", got)
	}
	if m.EpochTime(a) <= 0 {
		t.Fatal("epoch time must be positive")
	}
	if math.Abs(m.EpochTime(a)-float64(m.Iterations(a))*m.IterTime(a)) > 1e-12 {
		t.Fatal("EpochTime != Iterations × IterTime")
	}
	if m.Iterations(Assignment{}) != 0 {
		t.Fatal("empty assignment should have 0 iterations")
	}
}

func TestInitialAssignmentConservesBatch(t *testing.T) {
	for _, spec := range datagen.PaperSpecs() {
		for _, kind := range []gnn.Kind{gnn.GCN, gnn.SAGE} {
			m := fpgaModel(t, spec, kind)
			hybrid := m.InitialAssignment(true)
			baseline := m.InitialAssignment(false)
			if hybrid.TotalBatch() != 4096 || baseline.TotalBatch() != 4096 {
				t.Fatalf("%s/%v: batches %d/%d, want 4096",
					spec.Name, kind, hybrid.TotalBatch(), baseline.TotalBatch())
			}
			if baseline.CPUBatch != 0 {
				t.Fatal("non-hybrid assignment must not train on CPU")
			}
			// Hybrid must never predict worse than accelerator-only.
			if m.IterTime(hybrid) > m.IterTime(baseline)+1e-12 {
				t.Fatalf("%s/%v: hybrid %v slower than baseline %v",
					spec.Name, kind, m.IterTime(hybrid), m.IterTime(baseline))
			}
		}
	}
}

func TestInitialAssignmentCPUOnly(t *testing.T) {
	plat := hw.CPUFPGAPlatform()
	plat.Accels = nil
	m, err := New(plat, DefaultWorkload(datagen.OGBNProducts, gnn.GCN))
	if err != nil {
		t.Fatal(err)
	}
	a := m.InitialAssignment(true)
	if a.CPUBatch != 1024 || len(a.AccelBatch) != 0 {
		t.Fatalf("CPU-only assignment: %+v", a)
	}
}

func TestHybridBeatsAccelOnly(t *testing.T) {
	// The intro's motivation: CPU+accel should beat accel-only. Check the
	// predicted epoch time improves for the FPGA platform on every dataset.
	for _, spec := range datagen.PaperSpecs() {
		m := fpgaModel(t, spec, gnn.GCN)
		hybrid := m.EpochTime(m.InitialAssignment(true))
		only := m.EpochTime(m.InitialAssignment(false))
		if hybrid >= only {
			t.Errorf("%s: hybrid %v not faster than accel-only %v", spec.Name, hybrid, only)
		}
	}
}

func TestThroughputMTEPS(t *testing.T) {
	m := fpgaModel(t, datagen.OGBNProducts, gnn.GCN)
	a := m.InitialAssignment(true)
	mteps := m.ThroughputMTEPS(a)
	if mteps <= 0 {
		t.Fatal("throughput must be positive")
	}
	// Cross-check Eq. 5: edges/iter ÷ iter time.
	var edges float64
	edges += m.Work.EdgesPerBatch(a.CPUBatch)
	for _, b := range a.AccelBatch {
		edges += m.Work.EdgesPerBatch(b)
	}
	want := edges / m.IterTime(a) / 1e6
	if math.Abs(mteps-want) > want*1e-9 {
		t.Fatalf("MTEPS = %v, want %v", mteps, want)
	}
	if m.ThroughputMTEPS(Assignment{}) != 0 {
		t.Fatal("empty assignment throughput should be 0")
	}
}

// Software profiles: the torch loader path is thread-independent and slower
// than the native loader at full threads; the PyG sampling factor inflates
// sampling cost.
func TestSoftwareProfiles(t *testing.T) {
	m := fpgaModel(t, datagen.OGBNPapers100M, gnn.GCN)
	nativeFull := m.LoadTimeForRows(100000, 64)

	m.Profile = TorchProfile()
	torch32 := m.LoadTimeForRows(100000, 32)
	torch4 := m.LoadTimeForRows(100000, 4)
	if torch32 != torch4 {
		t.Fatal("torch loader should be thread-independent")
	}
	if torch32 <= nativeFull {
		t.Fatal("torch loader should be slower than the saturated native loader")
	}

	m.Profile = PyGBaselineProfile()
	pygSamp := m.SampleTimeCPUEdges(m.Work.EdgesPerBatch(4096), 32)
	m.Profile = NativeProfile()
	natSamp := m.SampleTimeCPUEdges(m.Work.EdgesPerBatch(4096), 32)
	if pygSamp <= natSamp {
		t.Fatal("PyG dataloader sampling should cost more than native")
	}
}

// Property: stage times are non-negative and monotone in batch size.
func TestStageMonotonicity(t *testing.T) {
	m := fpgaModel(t, datagen.OGBNPapers100M, gnn.GCN)
	f := func(rawB uint16) bool {
		b := int(rawB%2048) + 1
		a1 := Assignment{CPUBatch: b, AccelBatch: []int{b}, SampThreads: 16, LoadThreads: 16, TrainThreads: 32}
		a2 := Assignment{CPUBatch: 2 * b, AccelBatch: []int{2 * b}, SampThreads: 16, LoadThreads: 16, TrainThreads: 32}
		s1, s2 := m.Stages(a1), m.Stages(a2)
		return s1.Load <= s2.Load && s1.Trans <= s2.Trans &&
			s1.TrainCPU <= s2.TrainCPU && s1.TrainAcc <= s2.TrainAcc &&
			s1.SampCPU <= s2.SampCPU && s1.Load >= 0 && s1.Bottleneck() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func heteroModel(t *testing.T, kinds ...hw.Kind) *Model {
	t.Helper()
	plat, err := hw.HeteroPlatform(kinds...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(plat, DefaultWorkload(datagen.OGBNProducts, gnn.SAGE))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Per-device links: the same payload must cost more over the FPGA's PCIe3
// than over the GPU's PCIe4, and TransferTime must follow each device's own
// link rather than the platform default.
func TestTransferTimeDevUsesOwnLink(t *testing.T) {
	m := heteroModel(t, hw.GPU, hw.FPGA)
	s := m.Work.SizesFor(1024)
	gpu, fpga := m.TransferTimeDev(0, s), m.TransferTimeDev(1, s)
	if gpu >= fpga {
		t.Fatalf("PCIe4 transfer %v not faster than PCIe3 %v", gpu, fpga)
	}
	// Equal shares: the aggregate is the slow link's time, not the default's.
	a := Assignment{AccelBatch: []int{1024, 1024}}
	if got := m.Stages(a).Trans; math.Abs(got-fpga) > 1e-15 {
		t.Fatalf("TransferTime = %v, want slowest device's %v", got, fpga)
	}
}

// Mixed-fleet loading: GPU-bound rows ride the framework loader, FPGA-bound
// rows the native loader, and the two stacks overlap (max, not sum).
func TestLoadTimeSplitsLoaderStacks(t *testing.T) {
	m := heteroModel(t, hw.GPU, hw.FPGA)
	bytesPerRow := float64(m.Work.Spec.FeatDims[0]) * 4
	gpuOnly := m.LoadTimeForDeviceRows([]float64{50000, 0}, 64)
	wantGPU := 50000 * bytesPerRow / (hw.A5000().LoaderGBs * 1e9)
	if math.Abs(gpuOnly-wantGPU) > wantGPU*1e-9 {
		t.Fatalf("framework-loader time = %v, want %v", gpuOnly, wantGPU)
	}
	fpgaOnly := m.LoadTimeForDeviceRows([]float64{0, 50000}, 64)
	if fpgaOnly >= gpuOnly {
		t.Fatalf("native loader %v not faster than framework loader %v", fpgaOnly, gpuOnly)
	}
	both := m.LoadTimeForDeviceRows([]float64{50000, 50000}, 64)
	if math.Abs(both-math.Max(gpuOnly, fpgaOnly)) > 1e-12 {
		t.Fatalf("stacks should overlap: %v, want max(%v, %v)", both, gpuOnly, fpgaOnly)
	}
	// A Profile-level loader overrides the split (the whole run is torch).
	m.Profile = TorchProfile()
	override := m.LoadTimeForDeviceRows([]float64{50000, 50000}, 64)
	if math.Abs(override-m.LoadTimeForRows(100000, 64)) > 1e-12 {
		t.Fatal("Profile.LoaderGBs should override the per-device split")
	}
}

// The one-device loader the serving price list uses must be the per-device
// split over a one-hot row vector, bit for bit — on both loader stacks, under
// a Profile override, with starved threads and with no rows at all.
func TestLoadTimeForDeviceMatchesOneHotRows(t *testing.T) {
	for _, profile := range []SoftwareProfile{NativeProfile(), TorchProfile()} {
		m := heteroModel(t, hw.GPU, hw.FPGA)
		m.Profile = profile
		for dev := range m.Plat.Accels {
			for _, rows := range []float64{0, 1, 37, 50000, 123456.5} {
				for _, threads := range []int{0, 1, 16, 64} {
					oneHot := make([]float64, len(m.Plat.Accels))
					oneHot[dev] = rows
					want := m.LoadTimeForDeviceRows(oneHot, threads)
					if got := m.loadTimeForDevice(dev, rows, threads); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("device %d, %v rows, %d threads: %x, one-hot rows give %x", dev, rows, threads, got, want)
					}
				}
			}
		}
	}
}

// The homogeneous CPU-FPGA path must be bit-identical to the pre-split
// loader model (calibrated figures depend on it).
func TestLoadTimeNativeFleetUnchanged(t *testing.T) {
	m := fpgaModel(t, datagen.OGBNPapers100M, gnn.GCN)
	a := Assignment{AccelBatch: []int{512, 256, 0, 128}, LoadThreads: 32}
	var rows float64
	for _, b := range a.AccelBatch {
		if b > 0 {
			rows += m.Work.SizesFor(b).VL[0]
		}
	}
	if got, want := m.Stages(a).Load, m.LoadTimeForRows(rows, 32); math.Abs(got-want) > want*1e-12 {
		t.Fatalf("native LoadTime = %v, want %v", got, want)
	}
}

// Sync is gated by the slowest link in the fleet.
func TestSyncTimeSlowestLink(t *testing.T) {
	mixed := heteroModel(t, hw.GPU, hw.FPGA)
	gpuOnly := heteroModel(t, hw.GPU, hw.GPU)
	if mixed.SyncTime() <= gpuOnly.SyncTime() {
		t.Fatal("mixed-fleet sync should pay the FPGA's slower link")
	}
}

// The design-phase mapping sizes shares proportional to per-device
// throughput: unequal devices get unequal shares, equal devices equal ones.
func TestInitialAssignmentProportionalShares(t *testing.T) {
	m := heteroModel(t, hw.GPU, hw.GPU, hw.FPGA)
	a := m.InitialAssignment(true)
	if a.TotalBatch() != 3*m.Work.BatchSize {
		t.Fatalf("total batch %d, want %d", a.TotalBatch(), 3*m.Work.BatchSize)
	}
	if a.AccelBatch[0] != a.AccelBatch[1] {
		t.Fatalf("equal GPUs got unequal shares: %v", a.AccelBatch)
	}
	rGPU, rFPGA := m.deviceRate(0), m.deviceRate(2)
	if rGPU == rFPGA {
		t.Fatal("test premise broken: devices predict identical rates")
	}
	// The faster device must carry the larger share.
	if (rGPU > rFPGA) != (a.AccelBatch[0] > a.AccelBatch[2]) {
		t.Fatalf("shares %v do not follow rates (GPU %v, FPGA %v)",
			a.AccelBatch, rGPU, rFPGA)
	}
	// And the split should track the rate ratio, not just its sign.
	gotRatio := float64(a.AccelBatch[0]) / float64(a.AccelBatch[2])
	wantRatio := rGPU / rFPGA
	if gotRatio < wantRatio*0.9 || gotRatio > wantRatio*1.1 {
		t.Fatalf("share ratio %v far from rate ratio %v", gotRatio, wantRatio)
	}
}

func TestApportion(t *testing.T) {
	cases := []struct {
		total   int
		weights []float64
		want    []int
	}{
		{10, []float64{1, 1}, []int{5, 5}},
		{10, []float64{3, 1}, []int{8, 2}}, // 7.5/2.5 → tie goes to the first
		{10, []float64{3, 2}, []int{6, 4}},
		{7, []float64{1, 1, 1}, []int{3, 2, 2}},
		{5, []float64{0, 0}, []int{3, 2}}, // zero weights → uniform
		{0, []float64{1, 2}, []int{0, 0}},
	}
	for _, c := range cases {
		orig := append([]float64(nil), c.weights...)
		got := apportion(c.total, c.weights)
		sum := 0
		for i, g := range got {
			if g != c.want[i] {
				t.Fatalf("Apportion(%d, %v) = %v, want %v", c.total, orig, got, c.want)
			}
			sum += g
		}
		if sum != c.total {
			t.Fatalf("Apportion(%d, %v) sums to %d", c.total, orig, sum)
		}
		for i := range orig {
			if c.weights[i] != orig[i] {
				t.Fatalf("Apportion mutated weights: %v -> %v", orig, c.weights)
			}
		}
	}
}

// Per-device stages: the aggregate maxima must agree with the vector.
func TestAccelStagesMatchAggregates(t *testing.T) {
	m := heteroModel(t, hw.GPU, hw.FPGA)
	a := Assignment{AccelBatch: []int{1024, 512}, SampThreads: 16, LoadThreads: 16}
	st := m.Stages(a)
	if len(st.PerAccel) != 2 {
		t.Fatalf("PerAccel = %v", st.PerAccel)
	}
	maxTrans, maxTrain := 0.0, 0.0
	for _, d := range st.PerAccel {
		maxTrans = math.Max(maxTrans, d.Trans)
		maxTrain = math.Max(maxTrain, d.Train)
	}
	if math.Abs(st.Trans-maxTrans) > 1e-15 || math.Abs(st.TrainAcc-maxTrain) > 1e-15 {
		t.Fatalf("aggregates (%v, %v) disagree with per-device maxima (%v, %v)",
			st.Trans, st.TrainAcc, maxTrans, maxTrain)
	}
}

// Scalability sanity (Fig. 9 regime): throughput grows with accelerator
// count but saturates as the CPU memory bandwidth becomes the limit
// (the paper observes saturation past ~12 accelerators).
func TestScalabilitySaturates(t *testing.T) {
	base := hw.CPUFPGAPlatform()
	work := DefaultWorkload(datagen.OGBNPapers100M, gnn.GCN)
	var prev float64
	var speedups []float64
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		plat := base.WithAccelCount(n)
		m, err := New(plat, work)
		if err != nil {
			t.Fatal(err)
		}
		a := m.InitialAssignment(false) // accelerator-fleet scaling, as in Fig. 9
		mteps := m.ThroughputMTEPS(a)
		if mteps < prev*0.99 {
			t.Fatalf("throughput regressed at %d accels: %v < %v", n, mteps, prev)
		}
		speedups = append(speedups, mteps)
		prev = mteps
	}
	// Early scaling must be near-linear; past the CPU-memory-bandwidth knee
	// (the paper: ~12 accelerators) it must flatten.
	early := speedups[1] / speedups[0]
	late := speedups[5] / speedups[4]
	if early < 1.7 {
		t.Fatalf("early scaling not near-linear: 1→2 gain %v", early)
	}
	if late >= early*0.8 {
		t.Fatalf("no saturation: 1→2 gain %v, 16→32 gain %v", early, late)
	}
}

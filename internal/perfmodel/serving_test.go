package perfmodel

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
)

func servingModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(hw.CPUFPGAPlatform(), DefaultWorkload(datagen.OGBNProducts, gnn.SAGE))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPredictServingValidation(t *testing.T) {
	m := servingModel(t)
	base := ServingLoad{RatePerSec: 1000, MaxBatch: 32, WindowSec: 1e-3, ComputeFrac: 1, Devices: []int{1, 2}}
	for name, mutate := range map[string]func(*ServingLoad){
		"rate":    func(l *ServingLoad) { l.RatePerSec = 0 },
		"batch":   func(l *ServingLoad) { l.MaxBatch = 0 },
		"window":  func(l *ServingLoad) { l.WindowSec = -1 },
		"workers": func(l *ServingLoad) { l.Devices = nil },
		"frac":    func(l *ServingLoad) { l.ComputeFrac = 1.5 },
	} {
		l := base
		mutate(&l)
		if _, err := m.PredictServing(l); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	cpuOnly, err := New(hw.CPUFPGAPlatform().WithAccelCount(0), DefaultWorkload(datagen.OGBNProducts, gnn.SAGE))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpuOnly.PredictServing(base); err == nil {
		t.Fatal("accelerator serving on an accelerator-less platform must error")
	}
}

func TestPredictServingBatchFormation(t *testing.T) {
	m := servingModel(t)
	// Window-closed: λ·w = 1000 · 1ms = 1 → batch ≈ 2, far below the cap.
	p, err := m.PredictServing(ServingLoad{RatePerSec: 1000, MaxBatch: 64, WindowSec: 1e-3,
		ComputeFrac: 1, Devices: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.BatchSize != 2 {
		t.Fatalf("window-closed batch %v, want 2", p.BatchSize)
	}
	// Size-closed: λ·w ≫ B.
	p, err = m.PredictServing(ServingLoad{RatePerSec: 1e6, MaxBatch: 64, WindowSec: 1e-3,
		ComputeFrac: 1, Devices: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.BatchSize != 64 {
		t.Fatalf("size-closed batch %v, want 64", p.BatchSize)
	}
	if p.BatchWaitSec >= 1e-3 {
		t.Fatalf("size-closed wait %v should undercut the window", p.BatchWaitSec)
	}
}

func TestPredictServingMonotonicity(t *testing.T) {
	m := servingModel(t)
	at := func(window float64, frac float64) ServingPrediction {
		p, err := m.PredictServing(ServingLoad{RatePerSec: 2000, MaxBatch: 256, WindowSec: window,
			ComputeFrac: frac, Devices: []int{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Wider window → bigger batches → more capacity, higher batch wait.
	narrow, wide := at(0.5e-3, 1), at(8e-3, 1)
	if wide.BatchSize <= narrow.BatchSize || wide.CapacityRPS <= narrow.CapacityRPS {
		t.Fatalf("capacity not monotone in window: %v vs %v", narrow.CapacityRPS, wide.CapacityRPS)
	}
	if wide.BatchWaitSec <= narrow.BatchWaitSec || wide.P50Sec <= narrow.P50Sec {
		t.Fatalf("latency not monotone in window")
	}
	// More cache hits → less compute per batch → cheaper service.
	cold, warm := at(2e-3, 1), at(2e-3, 0.25)
	if warm.ServiceSec >= cold.ServiceSec || warm.CapacityRPS <= cold.CapacityRPS {
		t.Fatalf("cache relief missing: service %v vs %v", warm.ServiceSec, cold.ServiceSec)
	}
	// Fully cached: no pipeline work at all.
	free := at(2e-3, 0)
	if free.Stage.SampCPU != 0 || free.Stage.TrainAcc != 0 {
		t.Fatalf("compute charged at 100%% hit rate: %+v", free.Stage)
	}
}

// Two workers bound to identical devices are priced identically.
func TestPredictServingHomogeneousDevices(t *testing.T) {
	m := servingModel(t)
	a, err := m.PredictServing(ServingLoad{RatePerSec: 2000, MaxBatch: 64, WindowSec: 1e-3,
		ComputeFrac: 0.8, Devices: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.PerDevice) != 2 || a.PerDevice[0].ServiceSec != a.PerDevice[1].ServiceSec {
		t.Fatalf("homogeneous per-device vectors differ: %+v", a.PerDevice)
	}
}

// A mixed pool's prediction must resolve per device: the CPU peer carries
// TrainCPU and no transfer, accelerators carry their own links and kinds,
// pool capacity is the per-device sum, and the pool service time sits
// between the fastest and slowest member.
func TestPredictServingMixedPool(t *testing.T) {
	plat, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(plat, DefaultWorkload(datagen.OGBNProducts, gnn.SAGE))
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.PredictServing(ServingLoad{RatePerSec: 2000, MaxBatch: 32, WindowSec: 1e-3,
		ComputeFrac: 1, Devices: []int{1, 2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.PerDevice) != 3 {
		t.Fatalf("expected 3 per-device vectors, got %d", len(p.PerDevice))
	}
	gpu, fpga, cpu := p.PerDevice[0], p.PerDevice[1], p.PerDevice[2]
	if cpu.Stage.TrainCPU <= 0 || cpu.Stage.Trans != 0 || cpu.Stage.TrainAcc != 0 {
		t.Fatalf("CPU peer stage malformed: %+v", cpu.Stage)
	}
	if gpu.Stage.TrainAcc <= 0 || gpu.Stage.Trans <= 0 {
		t.Fatalf("GPU stage malformed: %+v", gpu.Stage)
	}
	if fpga.Stage.TrainAcc <= 0 || fpga.Stage.Trans <= 0 {
		t.Fatalf("FPGA stage malformed: %+v", fpga.Stage)
	}
	// The two accelerators are different hardware behind different links:
	// their stage vectors must not coincide.
	if gpu.ServiceSec == fpga.ServiceSec {
		t.Fatal("GPU and FPGA priced identically — per-device API not per-device")
	}
	var capSum float64
	lo, hi := p.PerDevice[0].ServiceSec, p.PerDevice[0].ServiceSec
	for _, d := range p.PerDevice {
		capSum += d.CapacityRPS
		lo = min(lo, d.ServiceSec)
		hi = max(hi, d.ServiceSec)
	}
	if d := capSum - p.CapacityRPS; d > 1e-9*capSum || d < -1e-9*capSum {
		t.Fatalf("pool capacity %v != per-device sum %v", p.CapacityRPS, capSum)
	}
	if p.ServiceSec < lo || p.ServiceSec > hi {
		t.Fatalf("pool service %v outside per-device range [%v, %v]", p.ServiceSec, lo, hi)
	}
}

// ServingBatchStage input validation and the empty-batch degenerate case.
func TestServingBatchStageValidation(t *testing.T) {
	m := servingModel(t)
	if _, err := m.ServingBatchStage(99, 8, 0, 0); err == nil {
		t.Fatal("out-of-range device accepted")
	}
	if _, err := m.PredictServing(ServingLoad{RatePerSec: 1000, MaxBatch: 8,
		ComputeFrac: 1, Devices: []int{7}}); err == nil {
		t.Fatal("out-of-range binding accepted")
	}
	st, err := m.ServingBatchStage(1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.SampCPU != 0 || st.Load != 0 || st.Trans != 0 || st.TrainCPU != 0 || st.TrainAcc != 0 {
		t.Fatalf("zero-compute batch priced: %+v", st)
	}
}

func TestPredictServingOverloadDiverges(t *testing.T) {
	m := servingModel(t)
	p, err := m.PredictServing(ServingLoad{RatePerSec: 1e9, MaxBatch: 8, WindowSec: 0,
		ComputeFrac: 1, Devices: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Utilization <= 1 {
		t.Fatalf("utilization %v at absurd load", p.Utilization)
	}
	if p.ThroughputRPS != p.CapacityRPS {
		t.Fatalf("overload throughput %v should cap at capacity %v", p.ThroughputRPS, p.CapacityRPS)
	}
}

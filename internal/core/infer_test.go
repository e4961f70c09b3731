package core

import (
	"testing"

	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

func inferFixture(t *testing.T, plat hw.Platform, device int) (*InferencePipeline, *gnn.Model) {
	t.Helper()
	ds := smallDataset(t, 3)
	model, err := gnn.NewModel(gnn.Config{Kind: gnn.SAGE, Dims: []int{16, 16, 5}}, tensor.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewInferencePipeline(InferConfig{
		Plat: plat, Data: ds, Model: model, Fanouts: []int{5, 5},
		Device: device, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, model
}

// A serving worker reads the feature table in place, so a table that does
// not cover the graph is refused at construction, not discovered mid-batch.
func TestNewInferencePipelineRejectsShortFeatures(t *testing.T) {
	_, model := inferFixture(t, smallPlatform(), 0)
	ds := shortFeatures(smallDataset(t, 3))
	requireShortFeaturesError(t, ds, func() error {
		_, err := NewInferencePipeline(InferConfig{
			Plat: smallPlatform(), Data: ds, Model: model, Fanouts: []int{5, 5},
		})
		return err
	})
}

// An FPGA-bound serving worker is an account: the batch carries the
// dataflow's hardware accounting, the clock charge is that account (plus
// serving overheads) rather than the analytic Eq. 10, and the logits are the
// one reference forward's — bit for bit the CPU peer's on the same sample.
// The serving counterpart of TestFPGATrainerMatchesReferenceForward.
func TestInferFPGABindingMeasuresKernels(t *testing.T) {
	p, _ := inferFixture(t, smallPlatform(), 1)
	if p.Device().Kind != hw.FPGA {
		t.Fatalf("device 1 on the CPU-FPGA platform is %v", p.Device().Kind)
	}
	targets := []int32{3, 7, 11, 19, 23, 42, 77, 101}
	res, err := p.RunBatch(targets)
	if err != nil {
		t.Fatal(err)
	}
	if res.FPGA == nil || res.FPGA.AggCycles <= 0 || res.FPGA.Sec <= 0 {
		t.Fatalf("FPGA worker reported no kernel accounting: %+v", res.FPGA)
	}
	want := perfmodel.ServingOverheads(p.Device(), res.FPGA.Sec)
	if res.Stage.TrainAcc != want {
		t.Fatalf("clock charged %v, measured kernels say %v", res.Stage.TrainAcc, want)
	}
	// Same batch through a CPU-bound pipeline (same seed → same sample):
	// every worker computes through gnn, so the numbers are identical.
	ref, _ := inferFixture(t, smallPlatform(), 0)
	refRes, err := ref.RunBatch(targets)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Logits.Equal(refRes.Logits) {
		t.Fatalf("FPGA worker logits differ from the CPU peer's by %g", res.Logits.MaxAbsDiff(refRes.Logits))
	}
	if refRes.FPGA != nil {
		t.Fatal("CPU worker reported FPGA stats")
	}
	if refRes.Stage.TrainCPU <= 0 || refRes.Stage.Trans != 0 {
		t.Fatalf("CPU worker stage malformed: %+v", refRes.Stage)
	}
}

// A GPU-bound worker prices its transfer on its own host link and loads
// features through its framework loader — the per-device binding the mixed
// fleets rely on.
func TestInferDeviceBindings(t *testing.T) {
	plat, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	gpu, _ := inferFixture(t, plat, 1)
	fpga, _ := inferFixture(t, plat, 2)
	if gpu.Device().Kind != hw.GPU || fpga.Device().Kind != hw.FPGA {
		t.Fatalf("bindings resolved to %v/%v", gpu.Device().Kind, fpga.Device().Kind)
	}
	if gpu.DeviceIndex() != 1 || fpga.DeviceIndex() != 2 {
		t.Fatal("DeviceIndex does not echo the binding")
	}
	targets := []int32{3, 7, 11, 19, 23, 42, 77, 101}
	gRes, err := gpu.RunBatch(targets)
	if err != nil {
		t.Fatal(err)
	}
	fRes, err := fpga.RunBatch(targets)
	if err != nil {
		t.Fatal(err)
	}
	// Same sample (same seed), different hardware: the GPU's PCIe 4.0 link
	// must beat the FPGA's PCIe 3.0 on the same payload, and the loader
	// stacks must differ (torch gather vs native threads).
	if gRes.Stage.Trans >= fRes.Stage.Trans {
		t.Fatalf("GPU transfer %v not below FPGA transfer %v despite the faster link",
			gRes.Stage.Trans, fRes.Stage.Trans)
	}
	if gRes.Stage.Load == fRes.Stage.Load {
		t.Fatal("framework and native loader stacks priced identically")
	}
	if gRes.FPGA != nil || fRes.FPGA == nil {
		t.Fatal("kernel accounting attached to the wrong worker")
	}
	// The router's per-device prediction API must price the same bindings.
	gSt, err := gpu.predictBatchStage(len(targets))
	if err != nil {
		t.Fatal(err)
	}
	fSt, err := fpga.predictBatchStage(len(targets))
	if err != nil {
		t.Fatal(err)
	}
	if gSt.TrainAcc <= 0 || fSt.TrainAcc <= 0 ||
		perfmodel.ServingServiceSec(gSt) == perfmodel.ServingServiceSec(fSt) {
		t.Fatalf("per-device predictions not device-specific: %+v vs %+v", gSt, fSt)
	}
}

package core

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/optim"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// smallPlatform is a shrunk CPU-FPGA node (2 accelerators) so tests run fast.
func smallPlatform() hw.Platform {
	p := hw.CPUFPGAPlatform()
	p.Accels = p.Accels[:2]
	return p
}

func smallDataset(t *testing.T, seed uint64) *datagen.Dataset {
	t.Helper()
	spec := datagen.Spec{Name: "core-test", NumVertices: 1500, NumEdges: 9000,
		FeatDims: []int{16, 16, 5}, TrainNodes: 600}
	ds, err := datagen.Materialize(spec, 0.4, tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func baseConfig(t *testing.T) Config {
	return Config{
		Plat:      smallPlatform(),
		Data:      smallDataset(t, 1),
		Model:     gnn.Config{Kind: gnn.SAGE, Dims: []int{16, 16, 5}},
		LR:        0.3,
		BatchSize: 64,
		Fanouts:   []int{5, 5},
		Hybrid:    true,
		TFP:       true,
		DRM:       true,
		Seed:      7,
	}
}

func TestNewEngineValidation(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Data = nil
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("expected error for nil dataset")
	}
	cfg = baseConfig(t)
	cfg.LR = 0
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("expected error for zero LR")
	}
	cfg = baseConfig(t)
	cfg.BatchSize = 0
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("expected error for zero batch")
	}
	cfg = baseConfig(t)
	cfg.Fanouts = []int{5}
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("expected error for fanout/layer mismatch")
	}
	cfg = baseConfig(t)
	cfg.Pipeline = PipelineMode(7)
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("expected error for a pipeline mode that is neither serial nor prefetch")
	}
	cfg = baseConfig(t)
	cfg.Data = shortFeatures(cfg.Data)
	requireShortFeaturesError(t, cfg.Data, func() error { _, err := NewEngine(cfg); return err })
}

// shortFeatures returns a copy of ds whose feature table covers only half of
// the graph's vertices.
func shortFeatures(ds *datagen.Dataset) *datagen.Dataset {
	short := *ds
	short.Features = tensor.FromSlice(ds.Graph.NumVertices/2, ds.Features.Cols,
		ds.Features.Data[:ds.Graph.NumVertices/2*ds.Features.Cols])
	return &short
}

// requireShortFeaturesError requires build to reject ds's short feature table
// with an error naming both the row and the vertex count: layer 0 reads the
// table in place, so accepting it would panic mid-epoch on a trainer
// goroutine.
func requireShortFeaturesError(t *testing.T, ds *datagen.Dataset, build func() error) {
	t.Helper()
	err := build()
	if err == nil {
		t.Fatalf("a %d-row feature table for %d vertices was accepted", ds.Features.Rows, ds.Graph.NumVertices)
	}
	for _, n := range []int{ds.Features.Rows, ds.Graph.NumVertices} {
		if !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Fatalf("error %q does not name %d", err, n)
		}
	}
}

func TestRunEpochBasics(t *testing.T) {
	e, err := NewEngine(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Iterations <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.VirtualSec <= 0 || st.MTEPS <= 0 {
		t.Fatalf("virtual clock not advancing: %+v", st)
	}
	if st.Loss <= 0 || st.Loss > 10 {
		t.Fatalf("implausible loss %v", st.Loss)
	}
	if st.Accuracy < 0 || st.Accuracy > 1 {
		t.Fatalf("accuracy out of range: %v", st.Accuracy)
	}
}

// Training must converge — the "optimizations do not alter the training
// algorithm" claim measured on real numerics under the full hybrid pipeline.
func TestHybridTrainingConverges(t *testing.T) {
	e, err := NewEngine(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var first, last *EpochStats
	for i := 0; i < 8; i++ {
		st, err := e.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st
		}
		last = st
	}
	if last.Loss >= first.Loss*0.75 {
		t.Fatalf("loss did not converge: %.4f -> %.4f", first.Loss, last.Loss)
	}
	if last.Accuracy <= 1.0/5+0.1 { // 5 classes; must beat chance clearly
		t.Fatalf("accuracy %.3f not above chance", last.Accuracy)
	}
}

// Hybrid and accelerator-only runs with identical seeds must produce
// identical training statistics (same batches, same numerics) — only the
// virtual timing differs. This is the paper's semantics-preservation claim
// at system level.
func TestHybridPreservesSemantics(t *testing.T) {
	run := func(hybrid bool) []float64 {
		cfg := baseConfig(t)
		cfg.Data = smallDataset(t, 11) // same seed → identical dataset
		cfg.Hybrid = hybrid
		cfg.DRM = false // DRM changes split sizes, which re-orders rng draws
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var losses []float64
		for i := 0; i < 3; i++ {
			st, err := e.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, st.Loss)
		}
		return losses
	}
	hyb := run(true)
	only := run(false)
	for i := range hyb {
		// Same global batch, same seeds; split differences change only the
		// partitioning of the same target sequence. Losses track closely.
		if math.Abs(hyb[i]-only[i]) > 0.25*math.Max(hyb[i], only[i]) {
			t.Fatalf("epoch %d: hybrid loss %.4f vs accel-only %.4f diverge structurally",
				i, hyb[i], only[i])
		}
	}
}

// Exact synchronous-SGD equivalence at the gradient level: the gradient of a
// union batch equals the target-weighted average of the per-part gradients
// when the parts' neighborhoods are sampled with the same RNG stream. This
// is paper §II-B ("training on 4 GPUs with mini-batch size 1024 is
// equivalent to training on 1 GPU with mini-batch size 4096") made precise.
// A 1-layer model keeps the sampled frontiers disjoint in RNG consumption.
func TestSyncSGDGradientEquivalence(t *testing.T) {
	ds := smallDataset(t, 3)
	model, err := gnn.NewModel(gnn.Config{Kind: gnn.SAGE, Dims: []int{16, 5}}, tensor.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	smp, err := sampler.New(ds.Graph, []int{6}, ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	targets := ds.TrainIdx[:96]
	gather := func(mb *sampler.MiniBatch) *tensor.Matrix {
		x := tensor.New(len(mb.InputNodes()), 16)
		tensor.GatherRows(x, ds.Features, mb.InputNodes())
		return x
	}
	step := func(mb *sampler.MiniBatch) *gnn.Gradients {
		g := gnn.NewGradients(model.Params)
		if _, _, err := model.TrainStepWS(tensor.NewWorkspace(), &gnn.ForwardState{}, mb, gather(mb), g); err != nil {
			t.Fatal(err)
		}
		return g
	}

	// Union gradient: one batch over all targets.
	rngU := tensor.NewRNG(99)
	mbU, err := smp.Sample(targets, rngU)
	if err != nil {
		t.Fatal(err)
	}
	gU := step(mbU)

	// Split gradients: same RNG stream consumed sequentially over the parts.
	rngS := tensor.NewRNG(99)
	mb1, err := smp.Sample(targets[:64], rngS)
	if err != nil {
		t.Fatal(err)
	}
	mb2, err := smp.Sample(targets[64:], rngS)
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := step(mb1), step(mb2)
	// The trainer pool's weighting: n·b_r/B for n = 2 parts of B = 96 targets.
	avg := gnn.NewGradients(model.Params)
	optim.WeightedMean(avg, []*gnn.Gradients{g1, g2}, []float32{2 * 64.0 / 96, 2 * 32.0 / 96})
	if d := gU.MaxAbsDiff(avg); d > 1e-5 {
		t.Fatalf("union gradient differs from weighted average by %v", d)
	}
}

// TFP must not slow the virtual clock down, and on transfer-heavy configs it
// must help (system-level view of paper Fig. 11's TFP bar).
func TestTFPVirtualClock(t *testing.T) {
	run := func(tfp bool) float64 {
		cfg := baseConfig(t)
		cfg.Data = smallDataset(t, 21)
		cfg.TFP = tfp
		cfg.DRM = false
		cfg.Hybrid = false // all work through PCIe: prefetch path dominant
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		return st.VirtualSec
	}
	with := run(true)
	without := run(false)
	// TFP adds one pipeline stage, so it pays one extra stage-fill barrier
	// per epoch; at toy scale that fill can exceed the (tiny) stage times it
	// overlaps. Allow it, but nothing more.
	const fillAllowance = 2 * runtimeBarrierSec
	if with > without+fillAllowance {
		t.Fatalf("TFP slowed the pipeline: %v vs %v", with, without)
	}
}

// DRM must actually move the assignment when the initial mapping is off.
func TestDRMAdjustsAssignment(t *testing.T) {
	cfg := baseConfig(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Assignment()
	for i := 0; i < 4; i++ {
		if _, err := e.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Assignment()
	if before.CPUBatch == after.CPUBatch &&
		before.SampThreads == after.SampThreads &&
		before.LoadThreads == after.LoadThreads &&
		before.TrainThreads == after.TrainThreads {
		t.Log("DRM made no moves — acceptable only if already balanced")
	}
	if after.TotalBatch() != before.TotalBatch() {
		t.Fatalf("DRM changed the global batch: %d -> %d",
			before.TotalBatch(), after.TotalBatch())
	}
}

// A trainer whose share shrinks to zero for an iteration (the DRM can do
// this) sits the round out: the others train, and the update they produce
// moves the one parameter set the idle trainer steps next.
func TestZeroShareTrainerStaysInSync(t *testing.T) {
	cfg := baseConfig(t)
	cfg.DRM = false
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Force the CPU trainer out of the work split entirely.
	e.assign.CPUBatch = 0
	total := 0
	for i := range e.assign.AccelBatch {
		e.assign.AccelBatch[i] += 32
		total += e.assign.AccelBatch[i]
	}
	before := paramsHash(e.Params())
	st, err := e.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Loss <= 0 || math.IsNaN(st.Loss) || paramsHash(e.Params()) == before {
		t.Fatalf("epoch with an idle CPU trainer: loss %v, parameters moved %v",
			st.Loss, paramsHash(e.Params()) != before)
	}
}

// The virtual clock must be deterministic for a fixed seed.
func TestVirtualClockDeterministic(t *testing.T) {
	run := func() float64 {
		cfg := baseConfig(t)
		cfg.Data = smallDataset(t, 31)
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		return st.VirtualSec
	}
	if run() != run() {
		t.Fatal("virtual clock not deterministic")
	}
}

// Failure injection: corrupted inputs must be rejected at construction, not
// crash a trainer goroutine mid-epoch.
func TestEngineRejectsCorruptInputs(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Model.Dims = []int{8, 16, 5} // dataset features are 16-dim
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("expected feature-width mismatch error")
	}
	cfg = baseConfig(t)
	cfg.Data.Labels[17] = 99 // outside the model's 5 classes
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("expected label-range error")
	}
	cfg = baseConfig(t)
	cfg.Model.Dims = []int{16}
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("expected dims error")
	}
}

// The quantized-transfer extension must still converge: int8 feature noise
// is tiny relative to the planted class structure.
func TestQuantizedTransferConverges(t *testing.T) {
	cfg := baseConfig(t)
	cfg.QuantizeTransfer = true
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	for i := 0; i < 6; i++ {
		st, err := e.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st.Loss
		}
		last = st.Loss
	}
	if last >= first*0.8 {
		t.Fatalf("quantized training did not converge: %.4f -> %.4f", first, last)
	}
}

// Quantized transfer must shrink the virtual transfer time on a
// transfer-heavy (accel-only) configuration.
func TestQuantizedTransferFasterClock(t *testing.T) {
	run := func(quant bool) float64 {
		cfg := baseConfig(t)
		cfg.Data = smallDataset(t, 41)
		cfg.Hybrid = false
		cfg.DRM = false
		cfg.QuantizeTransfer = quant
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		return st.VirtualSec
	}
	if q, f := run(true), run(false); q >= f {
		t.Fatalf("int8 transfer (%v) not faster than fp32 (%v)", q, f)
	}
}

// GraphSAINT mini-batches must train end-to-end through the hybrid runtime
// and converge.
func TestSaintSamplingInRuntime(t *testing.T) {
	cfg := baseConfig(t)
	cfg.UseSaint = true
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	for i := 0; i < 6; i++ {
		st, err := e.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st.Loss
		}
		last = st.Loss
		if st.VirtualSec <= 0 {
			t.Fatal("virtual clock stalled under SAINT")
		}
	}
	if last >= first*0.9 {
		t.Fatalf("SAINT training did not converge: %.4f -> %.4f", first, last)
	}
}

// Train, evaluate held-out accuracy, checkpoint, reload, re-evaluate: the
// full production loop.
func TestEvaluateAndCheckpoint(t *testing.T) {
	cfg := baseConfig(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := e.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := e.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc <= 1.0/5 {
		t.Fatalf("held-out accuracy %.3f not above chance", acc)
	}
	var buf bytes.Buffer
	if err := e.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := gnn.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	acc2, err := m.Evaluate(cfg.Data.Graph, cfg.Data.Features, cfg.Data.Labels, cfg.Data.TrainIdx)
	if err != nil {
		t.Fatal(err)
	}
	if acc2 <= 1.0/5 {
		t.Fatalf("reloaded model accuracy %.3f not above chance", acc2)
	}
}

// mixedPlatform is the paper's title claim: CPU + GPU + FPGA on one node.
func mixedPlatform(t *testing.T) hw.Platform {
	t.Helper()
	p, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The executed mixed fleet: the engine must build a dataflow backend for the
// FPGA device and none for the GPU, the FPGA trainer must charge the §IV-C
// dataflow kernels (their hardware counters appear in the epoch stats), and
// the fleet must converge.
func TestMixedFleetExecutesFPGABackend(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Plat = mixedPlatform(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.backends) != 2 || e.backends[0] != nil || e.backends[1] == nil {
		t.Fatalf("backends = %v, want [nil (GPU: analytic Eq. 10), non-nil (FPGA dataflow)]", e.backends)
	}
	var first, last *EpochStats
	for i := 0; i < 6; i++ {
		st, err := e.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if st.FPGA.AggCycles <= 0 || st.FPGA.UpdateCycles <= 0 {
			t.Fatalf("epoch %d: FPGA kernels did not execute: %+v", i, st.FPGA)
		}
		if st.FPGA.TrafficBytes <= 0 || st.FPGA.Sec <= 0 {
			t.Fatalf("epoch %d: FPGA accounting incomplete: %+v", i, st.FPGA)
		}
		if i == 0 {
			first = st
		}
		last = st
	}
	if last.Loss >= first.Loss*0.75 {
		t.Fatalf("mixed fleet did not converge: %.4f -> %.4f", first.Loss, last.Loss)
	}
}

// Synchronous-SGD equivalence across the mixed fleet: with identical seeds,
// the hybrid CPU+GPU+FPGA fleet must converge into the same loss band as a
// homogeneous fleet with the same device count and global batch — the
// backends change the virtual clock, never the training algorithm.
func TestMixedFleetLossBandEquivalence(t *testing.T) {
	run := func(plat hw.Platform) []float64 {
		cfg := baseConfig(t)
		cfg.Data = smallDataset(t, 51)
		cfg.Plat = plat
		cfg.DRM = false // DRM changes split sizes, which re-orders rng draws
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var losses []float64
		for i := 0; i < 4; i++ {
			st, err := e.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, st.Loss)
		}
		return losses
	}
	mixed := run(mixedPlatform(t))
	homog := run(smallPlatform()) // 2× U250, same device count and batch
	for i := range mixed {
		if math.Abs(mixed[i]-homog[i]) > 0.25*math.Max(mixed[i], homog[i]) {
			t.Fatalf("epoch %d: mixed loss %.4f vs homogeneous %.4f diverge structurally",
				i, mixed[i], homog[i])
		}
	}
	if mixed[3] >= mixed[0]*0.85 {
		t.Fatalf("mixed fleet not converging: %v", mixed)
	}
}

// The FPGA trainer's clock charge must come from the kernels' account:
// an epoch's FPGA.Sec (plus analytic backward and overheads) is what the
// per-device stage saw, so it must be positive yet below the epoch's
// virtual time.
func TestFPGAStatsChargeTheClock(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Plat = mixedPlatform(t)
	cfg.DRM = false
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.FPGA.Sec <= 0 {
		t.Fatal("no measured FPGA seconds")
	}
	if st.FPGA.Sec >= st.VirtualSec {
		t.Fatalf("measured FPGA forward %v exceeds the whole epoch %v",
			st.FPGA.Sec, st.VirtualSec)
	}
	// Sorted-source reuse (§IV-C): external traffic is bounded by feature
	// fetches × row bytes, not edge count × row bytes.
	rowBytes := int64(cfg.Model.Dims[0]) * 4
	if st.FPGA.TrafficBytes > int64(st.FPGA.FeatureFetches)*rowBytes {
		t.Fatalf("traffic %dB exceeds %d fetches × %dB", st.FPGA.TrafficBytes,
			st.FPGA.FeatureFetches, rowBytes)
	}
}

// Fleet-level wiring: the dataflow backend the FPGA trainer is priced on,
// fed the very model it trains, must return that model's reference forward
// bit for bit (the engine's weights, gathered features) together with a
// non-empty account.
func TestFPGATrainerMatchesReferenceForward(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Plat = mixedPlatform(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.backends[1] == nil {
		t.Fatal("the FPGA device (accelerator 1) has no dataflow backend")
	}
	mb, err := e.smp.Sample(cfg.Data.TrainIdx[:64], e.rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(len(mb.InputNodes()), cfg.Model.Dims[0])
	tensor.GatherRows(x, cfg.Data.Features, mb.InputNodes())
	logits, stats, err := e.backends[1].Forward(e.model, mb, x)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.model.InferMiniBatchWS(tensor.NewWorkspace(), mb, x)
	if err != nil {
		t.Fatal(err)
	}
	if !logits.Equal(ref) {
		t.Fatalf("backend logits differ from reference by %g", logits.MaxAbsDiff(ref))
	}
	if stats.Sec <= 0 || stats.AggCycles <= 0 {
		t.Fatalf("backend reported no work: %+v", stats)
	}
}

func TestCPUOnlyPlatform(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Plat.Accels = nil
	cfg.Hybrid = true
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.VirtualSec <= 0 || st.Loss <= 0 {
		t.Fatalf("CPU-only epoch broken: %+v", st)
	}
}

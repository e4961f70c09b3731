// Package perfmodel implements the paper's analytic performance model (§V,
// Eqs. 5–13). It predicts per-stage times for a workload on a platform,
// derives the compile-time ("design phase") task mapping the runtime starts
// from, and evaluates scalability (paper Fig. 9) without executing anything.
//
// The model deliberately excludes kernel-launch overhead and pipeline
// flushing — the two error sources §VI-C identifies — which the pipeline
// simulator (internal/pipesim) does charge; their difference reproduces the
// 5–14% prediction error of Fig. 8.
package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/sampler"
)

// Workload fixes the algorithmic parameters of a training run.
type Workload struct {
	Spec      datagen.Spec
	Model     gnn.Kind
	BatchSize int   // mini-batch size per trainer before re-balancing (paper: 1024)
	Fanouts   []int // neighbor-sampling sizes (paper: 25, 10)
}

// DefaultWorkload returns the paper's standard configuration for a dataset.
func DefaultWorkload(spec datagen.Spec, model gnn.Kind) Workload {
	return Workload{Spec: spec, Model: model, BatchSize: 1024, Fanouts: []int{25, 10}}
}

// Validate checks the workload: a positive batch size and one fan-out per
// layer. It is the one statement of both rules; core.Config.Validate applies
// it to the workload a training configuration describes, and
// core.NewInferencePipeline and serve.Config.Validate to a serving model's
// fan-outs (at batch size 1).
func (w Workload) Validate() error {
	if w.BatchSize <= 0 {
		return fmt.Errorf("perfmodel: non-positive batch size %d", w.BatchSize)
	}
	if len(w.Fanouts) != w.Spec.Layers() {
		return fmt.Errorf("perfmodel: Fanouts %v: %d fan-outs for a %d-layer model", w.Fanouts, len(w.Fanouts), w.Spec.Layers())
	}
	return nil
}

// ModelBytes is the float32 weight footprint of the workload's model (the
// Eq. 13 numerator): per layer fin×fout weights plus fout biases, fin doubled
// by GraphSAGE's concat.
func (w Workload) ModelBytes() float64 {
	dims := w.Spec.FeatDims
	var params float64
	for l := 0; l < w.Spec.Layers(); l++ {
		fin := float64(dims[l])
		if w.Model == gnn.SAGE {
			fin *= 2
		}
		params += fin*float64(dims[l+1]) + float64(dims[l+1])
	}
	return params * 4
}

// Sizes holds the expected sampled-set sizes per mini-batch target count.
// Index 0 is the input-most layer; VL[L] is the target count.
type Sizes struct {
	VL []float64 // len L+1
	EL []float64 // len L
}

// SizesFor returns expected |V_l|, |E_l| for a mini-batch with `batch`
// targets (the sampler's expectation model, sampler.ExpectedSizes).
func (w Workload) SizesFor(batch int) Sizes {
	avgDeg := float64(w.Spec.NumEdges) / float64(w.Spec.NumVertices)
	vl, el := sampler.ExpectedSizes(float64(w.Spec.NumVertices), avgDeg, batch, w.Fanouts)
	return Sizes{VL: vl, EL: el}
}

// EdgesPerBatch returns Σ_l E[|E_l|] for a batch (MTEPS numerator, Eq. 5).
func (w Workload) EdgesPerBatch(batch int) float64 {
	s := w.SizesFor(batch)
	var total float64
	for _, e := range s.EL {
		total += e
	}
	return total
}

// Assignment is a task mapping: per-device mini-batch shares and CPU thread
// allocation. It is what the DRM engine mutates at runtime.
type Assignment struct {
	CPUBatch     int   // targets trained on the CPU per iteration (0 = no hybrid)
	AccelBatch   []int // targets per accelerator
	SampThreads  int   // CPU threads running the Mini-batch Sampler
	LoadThreads  int   // CPU threads running the Feature Loader
	TrainThreads int   // CPU threads running the CPU Trainer
	// AccelSampleFrac is the fraction of each iteration's sampling work
	// performed by the accelerators' own samplers (0 = all on CPU). The DRM
	// engine's balance_work(T_SC, T_SA) moves this knob.
	AccelSampleFrac float64
}

// TotalBatch returns the global mini-batch size per iteration.
func (a Assignment) TotalBatch() int {
	t := a.CPUBatch
	for _, b := range a.AccelBatch {
		t += b
	}
	return t
}

// Clone deep-copies the assignment.
func (a Assignment) Clone() Assignment {
	out := a
	out.AccelBatch = append([]int(nil), a.AccelBatch...)
	return out
}

// CloneInto deep-copies the assignment into dst, reusing dst's AccelBatch
// backing when it is large enough — the allocation-free variant for hot
// paths that copy one every iteration (drm.Engine.Adjust).
func (a Assignment) CloneInto(dst *Assignment) {
	acc := dst.AccelBatch
	*dst = a
	if cap(acc) < len(a.AccelBatch) {
		acc = make([]int, len(a.AccelBatch))
	}
	acc = acc[:len(a.AccelBatch)]
	copy(acc, a.AccelBatch)
	dst.AccelBatch = acc
}

// DeviceStage is one accelerator's share of an iteration: its private-link
// transfer time and its propagation time. The per-device vector is what lets
// the DRM engine move work between *unequal* devices — the aggregated maxima
// in StageTimes cannot say which device is the straggler.
type DeviceStage struct {
	Trans float64
	Train float64
}

// Busy returns the device's per-iteration pipeline constraint: transfer and
// propagation overlap across iterations, so the device sustains whichever is
// slower.
func (d DeviceStage) Busy() float64 { return math.Max(d.Trans, d.Train) }

// StageTimes are per-iteration durations of the pipeline stages (paper
// Fig. 4/5 and Algorithm 1 inputs). Zero means the stage is absent.
type StageTimes struct {
	SampCPU   float64 // T_SC
	SampAccel float64 // T_SA
	Load      float64 // T_Load
	Trans     float64 // T_Tran (max over accelerators; links are parallel)
	TrainCPU  float64 // T_TC
	TrainAcc  float64 // T_TA (max over accelerators)
	Sync      float64 // gradient all-reduce (part of propagation stage, Eq. 9)

	// PerAccel resolves Trans/TrainAcc per device (PerAccel[i].Trans etc.);
	// the aggregates above remain the maxima. Empty when the producer
	// predates the per-device API or the fleet is empty.
	PerAccel []DeviceStage

	// Multi-node charges (zero on a single node). NetFetch is the remote
	// feature traffic over the node's NIC, overlapped with the local pipeline
	// as its own stage (the DistDGL-style prefetch); NetSync is the inter-node
	// gradient all-reduce, serial after the local sync.
	NetFetch float64
	NetSync  float64
}

// Scaled returns the stage vector with every scalar stage multiplied by
// factor — the scripted-straggler inflation of the fault subsystem. Factor 1
// returns the receiver unchanged (bit-exact: no arithmetic runs). PerAccel
// keeps pointing at the original per-device rows; the aggregate fields are
// what the serving clock and ServingServiceSec consume.
func (s StageTimes) Scaled(factor float64) StageTimes {
	if factor == 1 {
		return s
	}
	s.SampCPU *= factor
	s.SampAccel *= factor
	s.Load *= factor
	s.Trans *= factor
	s.TrainCPU *= factor
	s.TrainAcc *= factor
	s.Sync *= factor
	s.NetFetch *= factor
	s.NetSync *= factor
	return s
}

// Bottleneck returns the largest pipelined-stage time (Eq. 6), bundling
// Trans with TrainAcc the way Algorithm 1 line 1 does (T_Accel). Remote
// feature fetching overlaps the local pipeline (it is one more stage in the
// max), while the inter-node all-reduce is serial on top.
func (s StageTimes) Bottleneck() float64 {
	local := math.Max(math.Max(s.SampCPU, s.SampAccel),
		math.Max(s.Load, math.Max(s.Trans, math.Max(s.TrainCPU, s.TrainAcc+s.Sync))))
	return math.Max(local, s.NetFetch) + s.NetSync
}

// SoftwareProfile captures stack-dependent efficiencies that the paper's
// hardware-level equations do not see. The paper's CPU-GPU design and its
// PyG baseline are implemented in Python/PyTorch (§VI-A): their Feature
// Loader is a torch gather running at a few GB/s regardless of thread
// count, and the baseline's sampler runs in Python dataloader workers. The
// CPU-FPGA design uses native threads and is modeled by the zero value.
type SoftwareProfile struct {
	// LoaderGBs, when positive, replaces the native threaded-DRAM-gather
	// model for Feature Loading with a fixed-bandwidth (thread-independent)
	// loader, as a torch/Python gather behaves.
	LoaderGBs float64
	// SampleCostFactor multiplies CPU sampling cost (≥1; 0 means 1).
	SampleCostFactor float64
}

// NativeProfile is the CPU-FPGA design's native (Pthreads/OpenMP) stack.
func NativeProfile() SoftwareProfile { return SoftwareProfile{} }

// TorchProfile is the stack of the paper's CPU-GPU design: native sampling
// pipeline but torch-based feature gathering.
func TorchProfile() SoftwareProfile { return SoftwareProfile{LoaderGBs: 6} }

// PyGBaselineProfile is the stack of the multi-GPU PyG baseline: Python
// dataloader sampling and torch feature collation.
func PyGBaselineProfile() SoftwareProfile {
	return SoftwareProfile{LoaderGBs: 6, SampleCostFactor: 1.5}
}

// Model evaluates the analytic equations for one platform + workload.
type Model struct {
	Plat    hw.Platform
	Work    Workload
	Profile SoftwareProfile
}

// New constructs a model after validating inputs.
func New(plat hw.Platform, work Workload) (*Model, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if err := work.Validate(); err != nil {
		return nil, err
	}
	return &Model{Plat: plat, Work: work}, nil
}

// sampleNsPerEdge is the measured per-edge cost of the neighbor sampler on
// one CPU thread (the paper profiles sampling rather than modeling it; this
// constant plays the role of that profile table).
const sampleNsPerEdge = 80.0

// accelSampleNsPerEdge is the per-edge sampling cost on an accelerator
// (random access into the topology resident in device memory).
const accelSampleNsPerEdge = 60.0

// loadSaturationThreads is the number of CPU threads needed to saturate the
// DRAM gather bandwidth during feature loading.
const loadSaturationThreads = 32

// loaderDRAMShare is the fraction of aggregate CPU DRAM bandwidth the
// Feature Loader can claim: it shares the memory controllers with the
// concurrently-running sampler and CPU trainer. This contention is what
// saturates scaling past ~12 accelerators in the paper's Fig. 9 (§VI-D:
// "the limiting factor of scalability is the CPU memory bandwidth").
const loaderDRAMShare = 0.30

// SampleTimeCPUEdges is T_SC: the CPU sampling cost of an explicit edge count
// on `threads` sampler threads.
func (m *Model) SampleTimeCPUEdges(edges float64, threads int) float64 {
	if edges <= 0 || threads <= 0 {
		return 0
	}
	factor := m.Profile.SampleCostFactor
	if factor < 1 {
		factor = 1
	}
	return edges * sampleNsPerEdge * factor * 1e-9 / float64(threads)
}

// SampleTimeAccelEdges is T_SA: one accelerator's cost of sampling an
// explicit edge count itself.
func (m *Model) SampleTimeAccelEdges(edges float64) float64 {
	if edges <= 0 {
		return 0
	}
	return edges * accelSampleNsPerEdge * 1e-9
}

// LoadTimeForDeviceRows is T_Load (Eq. 7) over explicit per-accelerator
// feature-row counts (rows[i] feeds Plat.Accels[i]): the Feature Loader
// gathers Σ_i rows[i] rows from CPU DRAM, at a bandwidth that scales with the
// thread count up to saturation. Two loader stacks exist: devices
// with LoaderGBs > 0 are fed by their host framework's gather — a single
// process whose work serializes across all such devices — while the rest go
// through the native threaded loader. The two stacks run concurrently, so
// the stage time is the max of the two. A Profile-level LoaderGBs overrides
// everything (the whole run is on that framework's stack).
func (m *Model) LoadTimeForDeviceRows(rows []float64, threads int) float64 {
	var total float64
	for _, r := range rows {
		total += r
	}
	if total <= 0 {
		return 0
	}
	if m.Profile.LoaderGBs > 0 {
		return m.LoadTimeForRows(total, threads)
	}
	bytesPerRow := float64(m.Work.Spec.FeatDims[0]) * 4
	var frameworkSec, nativeRows float64
	for i, r := range rows {
		if r <= 0 {
			continue
		}
		if i < len(m.Plat.Accels) && m.Plat.Accels[i].LoaderGBs > 0 {
			frameworkSec += r * bytesPerRow / (m.Plat.Accels[i].LoaderGBs * 1e9)
		} else {
			nativeRows += r
		}
	}
	return math.Max(frameworkSec, m.LoadTimeForRows(nativeRows, threads))
}

// loadTimeForDevice is LoadTimeForDeviceRows when every row feeds the one
// accelerator i — bit for bit: the other devices' zero rows add nothing to
// the sums and max(x, 0) is exact for x ≥ 0.
func (m *Model) loadTimeForDevice(i int, rows float64, threads int) float64 {
	if rows > 0 && m.Profile.LoaderGBs <= 0 && m.Plat.Accels[i].LoaderGBs > 0 {
		return rows * (float64(m.Work.Spec.FeatDims[0]) * 4) / (m.Plat.Accels[i].LoaderGBs * 1e9)
	}
	return m.LoadTimeForRows(rows, threads)
}

// LoadTimeForRows is Eq. 7 for an explicit feature-row count.
func (m *Model) LoadTimeForRows(rows float64, threads int) float64 {
	if rows <= 0 {
		return 0
	}
	bytes := rows * float64(m.Work.Spec.FeatDims[0]) * 4
	if m.Profile.LoaderGBs > 0 {
		// Torch-style gather: fixed bandwidth, insensitive to thread count.
		return bytes / (m.Profile.LoaderGBs * 1e9)
	}
	bw := m.Plat.CPUMemBWGBs() * loaderDRAMShare * 1e9
	scale := math.Min(1, float64(threads)/loadSaturationThreads)
	if scale <= 0 {
		return math.Inf(1)
	}
	return bytes / (bw * scale)
}

// TransferTimeFor is Eq. 8 for explicit sampled-set sizes: the feature
// sub-matrix plus the mini-batch topology crossing the platform's default
// PCIe link. Use TransferTimeDev when the fleet carries per-device links.
func (m *Model) TransferTimeFor(s Sizes) float64 {
	return m.transferSec(m.Plat.PCIe, s)
}

// TransferTimeDev is Eq. 8 over accelerator i's own host link.
func (m *Model) TransferTimeDev(i int, s Sizes) float64 {
	return m.transferSec(m.Plat.AccelLink(i), s)
}

func (m *Model) transferSec(link hw.Link, s Sizes) float64 {
	bytes := s.VL[0] * float64(m.Work.Spec.FeatDims[0]) * 4 // float32 rows (Sfeat)
	for _, e := range s.EL {
		bytes += e * 8 // topology: (src,dst) int32 pairs
	}
	return link.TransferSec(bytes)
}

// cpuTrainBackendEff is the fraction of the CPU's (already derated)
// compute and bandwidth the CPU *trainer* achieves. The trainer runs a
// software GNN stack (libtorch/MKL in the paper's implementation) whose
// GNN-sized GEMMs and scattered aggregations fall well short of platform
// peak. Calibrated so the hybrid-over-accelerator-only gain lands in the
// paper's ablation band (Fig. 11: hybrid static ≤ 1.13×): the CPU
// contributes a modest slice, not half the fleet.
const cpuTrainBackendEff = 0.30

// PropTimeFor returns forward+backward time on a device (Eq. 10) for explicit
// sampled-set sizes — the expectation (SizesFor) on the analytic side, the
// mini-batches actually sampled in the runtime — using Eq. 11 for aggregation
// (traffic/bandwidth) and Eq. 12 for update (MACs/compute rate). For
// pipelined devices ⊕ = max, else ⊕ = Σ. cpuShare scales CPU resources when
// only a fraction of cores train.
func (m *Model) PropTimeFor(dev hw.Device, s Sizes, cpuShare float64) float64 {
	fwd, bwd := m.propFwdBwd(dev, s, cpuShare)
	return fwd + bwd
}

// PropForwardFor returns only the forward half of Eq. 10 — the half an FPGA
// is charged its dataflow's cycle account for instead.
func (m *Model) PropForwardFor(dev hw.Device, s Sizes, cpuShare float64) float64 {
	fwd, _ := m.propFwdBwd(dev, s, cpuShare)
	return fwd
}

// PropBackwardFor returns only the backward half of Eq. 10. The executing
// runtime adds it to an FPGA trainer's dataflow account, which covers the
// forward half only.
func (m *Model) PropBackwardFor(dev hw.Device, s Sizes, cpuShare float64) float64 {
	_, bwd := m.propFwdBwd(dev, s, cpuShare)
	return bwd
}

func (m *Model) propFwdBwd(dev hw.Device, s Sizes, cpuShare float64) (float64, float64) {
	dims := m.Work.Spec.FeatDims
	L := m.Work.Spec.Layers()

	flops := dev.EffectiveTFLOPS() * 1e12
	gather := dev.GatherGBs() * 1e9
	stream := dev.StreamGBs() * 1e9
	if dev.Kind == hw.CPU {
		scale := float64(m.Plat.Sockets) * cpuShare * cpuTrainBackendEff
		flops *= scale
		gather *= scale
		stream *= scale
	}

	aggT := func(l int) float64 { // layer l ∈ [0,L): aggregate over E_l with f_{l} inputs... Eq. 11
		if dev.Kind == hw.FPGA {
			// Sorted-edge reuse: each distinct source feature read once (§IV-C).
			return s.VL[l] * float64(dims[l]) * 4 / stream
		}
		return s.EL[l] * float64(dims[l]) * 4 / gather
	}
	updT := func(l int) float64 { // Eq. 12: |V_{l+1}| rows through f_in×f_out MLP
		fin := float64(dims[l])
		if m.Work.Model == gnn.SAGE {
			fin *= 2 // concatenation doubles the dense-update input
		}
		macs := s.VL[l+1] * fin * float64(dims[l+1])
		return macs * 2 / flops // 1 MAC = 2 FLOP
	}
	combine := func(a, u float64) float64 {
		if dev.Pipelined {
			return math.Max(a, u)
		}
		return a + u
	}
	var fwd, bwd float64
	for l := 0; l < L; l++ {
		fwd += combine(aggT(l), updT(l))
	}
	// Eq. 10 backward: t_update^1 + Σ_{l=2..L} ⊕(agg, upd); weight-gradient
	// GEMMs double the update cost.
	bwd = updT(0)
	for l := 1; l < L; l++ {
		bwd += combine(aggT(l), updT(l))
	}
	return fwd, bwd
}

// Per-batch overheads the executing runtime charges on top of the analytic
// Eq. 10 propagation time (the two error sources §VI-C identifies, plus the
// host-side framework cost). Exported so the runtime (internal/core) and the
// analytic serving model price them identically.
const (
	// flushFraction is the pipeline-flush overhead of an accelerator batch.
	flushFraction = 0.06
	// kernelsPerIteration is how many device kernels one batch launches.
	kernelsPerIteration = 4
	// RuntimeBarrierSec is the host-side synchronization barrier between
	// pipeline stages.
	RuntimeBarrierSec = 120e-6
)

// DeviceOverheads applies the per-batch runtime overheads to a raw
// propagation time t on dev: framework overhead on every device, pipeline
// flush + kernel launches on accelerators. The runtime charges every trainer
// through it, whether its propagation time is analytic (PropTimeFor) or
// accounted (the FPGA dataflow kernel).
func DeviceOverheads(dev hw.Device, t float64) float64 {
	if dev.Kind == hw.CPU {
		return t + dev.FrameworkOverheadMs*1e-3
	}
	return t*(1+flushFraction) + dev.FrameworkOverheadMs*1e-3 +
		kernelsPerIteration*dev.KernelLaunchUs*1e-6
}

// SyncTime returns T_sync (Eq. 13): the model crosses the host link twice.
// Every device must receive the averaged gradient, so a mixed fleet is gated
// by its slowest link.
func (m *Model) SyncTime() float64 {
	bw := m.Plat.PCIe.EffGBs()
	for i := range m.Plat.Accels {
		if l := m.Plat.AccelLink(i).EffGBs(); l < bw {
			bw = l
		}
	}
	return 2 * m.Work.ModelBytes() / (bw * 1e9)
}

// Stages evaluates every stage time of one iteration under an assignment,
// each share priced at the sampler's expected sizes (SizesFor): T_Tran
// (Eq. 8) and T_TA (Eq. 10) per accelerator in PerAccel, the busiest
// device's in Trans / TrainAcc (links are private and devices run
// concurrently, so neither adds up across the fleet); T_Load (Eq. 7) over the
// accelerator shares' input rows — the CPU trainer reads features in place,
// and the gather bandwidth that costs is charged in TrainCPU; T_TC (Eq. 10)
// on the TrainThreads slice of the cores; T_SC / T_SA for one batch of
// TotalBatch targets split by AccelSampleFrac.
func (m *Model) Stages(a Assignment) StageTimes {
	nAcc := len(m.Plat.Accels)
	st := StageTimes{Sync: m.SyncTime()}
	if nAcc > 0 {
		st.PerAccel = make([]DeviceStage, nAcc)
	}
	rows := make([]float64, nAcc)
	for i, b := range a.AccelBatch {
		if b <= 0 {
			continue
		}
		s := m.Work.SizesFor(b)
		tt := m.TransferTimeDev(i, s)
		st.Trans = max(st.Trans, tt)
		if i >= nAcc {
			// A share past the fleet's last device has nothing to load for or
			// train on; its transfer over the default link is all that counts.
			continue
		}
		rows[i] = s.VL[0]
		train := m.PropTimeFor(m.Plat.Accels[i], s, 1)
		st.PerAccel[i] = DeviceStage{Trans: tt, Train: train}
		st.TrainAcc = max(st.TrainAcc, train)
	}
	st.Load = m.LoadTimeForDeviceRows(rows, a.LoadThreads)
	if a.CPUBatch != 0 && a.TrainThreads != 0 {
		share := float64(a.TrainThreads) / float64(m.Plat.TotalCPUCores())
		st.TrainCPU = m.PropTimeFor(m.Plat.CPU, m.Work.SizesFor(a.CPUBatch), share)
	}
	total := a.TotalBatch()
	frac := a.AccelSampleFrac
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if nAcc == 0 {
		frac = 0
	}
	cpuTargets := int(float64(total) * (1 - frac))
	st.SampCPU = m.SampleTimeCPUEdges(m.Work.EdgesPerBatch(cpuTargets), a.SampThreads)
	if frac > 0 {
		perAccel := (total - cpuTargets + nAcc - 1) / nAcc
		st.SampAccel = m.SampleTimeAccelEdges(m.Work.EdgesPerBatch(perAccel))
	}
	return st
}

// IterTime returns the predicted steady-state iteration time (Eq. 6):
// the pipeline is limited by its slowest stage.
func (m *Model) IterTime(a Assignment) float64 {
	return m.Stages(a).Bottleneck()
}

// Iterations returns the number of training iterations per epoch.
func (m *Model) Iterations(a Assignment) int {
	total := a.TotalBatch()
	if total == 0 {
		return 0
	}
	return int(math.Ceil(float64(m.Work.Spec.TrainNodes) / float64(total)))
}

// EpochTime predicts one epoch (Eq. 6 × iterations).
func (m *Model) EpochTime(a Assignment) float64 {
	return float64(m.Iterations(a)) * m.IterTime(a)
}

// ThroughputMTEPS returns Eq. 5: million traversed edges per second.
func (m *Model) ThroughputMTEPS(a Assignment) float64 {
	var edges float64
	if a.CPUBatch > 0 {
		edges += m.Work.EdgesPerBatch(a.CPUBatch)
	}
	for _, b := range a.AccelBatch {
		if b > 0 {
			edges += m.Work.EdgesPerBatch(b)
		}
	}
	t := m.IterTime(a)
	if t == 0 {
		return 0
	}
	return edges / t / 1e6
}

// deviceRate returns accelerator i's predicted sustainable training rate in
// targets/second: its per-iteration pipeline constraint is whichever is
// slower of propagation (Eq. 10) and its own-link transfer (Eq. 8),
// evaluated at the workload's reference batch. This is Eqs. 5–13 applied to
// each device individually — the basis of the heterogeneous design-phase
// mapping.
func (m *Model) deviceRate(i int) float64 {
	b := m.Work.BatchSize
	s := m.Work.SizesFor(b)
	t := math.Max(m.PropTimeFor(m.Plat.Accels[i], s, 1), m.TransferTimeDev(i, s))
	if t <= 0 {
		return 0
	}
	return float64(b) / t
}

// apportion splits total into len(weights) integer shares proportional to
// the weights (largest-remainder rounding, ties to the first index; uniform
// when all weights are zero). The shares always sum to total; weights is
// never modified. Shared by the design-phase mapping and the DRM engine's
// heterogeneous work moves.
func apportion(total int, weights []float64) []int {
	n := len(weights)
	return ApportionInto(make([]int, n), make([]float64, n), total, weights)
}

// ApportionInto is apportion into caller-owned storage, for callers that
// apportion every iteration: the shares land in out[:len(weights)], which is
// returned, and fracs (as long) is scratch. Both are fully overwritten.
func ApportionInto(out []int, fracs []float64, total int, weights []float64) []int {
	n := len(weights)
	out, fracs = out[:n], fracs[:n]
	if n == 0 || total <= 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	var sum float64
	for _, w := range weights {
		sum += math.Max(0, w)
	}
	weight := func(i int) float64 {
		if sum <= 0 {
			return 1 // all-zero weights: uniform split
		}
		return math.Max(0, weights[i])
	}
	denom := sum
	if denom <= 0 {
		denom = float64(n)
	}
	assigned := 0
	for i := range out {
		exact := float64(total) * weight(i) / denom
		out[i] = int(exact)
		fracs[i] = exact - float64(out[i])
		assigned += out[i]
	}
	for rem := total - assigned; rem > 0; rem-- {
		best := 0
		for i := 1; i < n; i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		out[best]++
		fracs[best] = -1
	}
	return out
}

// InitialAssignment performs the design-phase coarse task mapping (§IV-A):
// it keeps the global batch at BatchSize × #accelerators (so convergence
// matches the accelerator-only baseline) and scans the CPU share, picking
// the split with the lowest predicted iteration time. The accelerator share
// is split proportionally to each device's predicted throughput
// (deviceRate), so unequal devices start near their equilibrium instead of
// all inheriting the busiest clone's share. CPU threads start with a fixed
// sampler/loader/trainer split of the available cores.
func (m *Model) InitialAssignment(hybrid bool) Assignment {
	nAcc := len(m.Plat.Accels)
	cores := m.Plat.TotalCPUCores()
	a := Assignment{
		AccelBatch:   make([]int, nAcc),
		SampThreads:  cores / 4,
		LoadThreads:  cores / 4,
		TrainThreads: cores / 2,
	}
	total := m.Work.BatchSize * max(nAcc, 1)
	if nAcc == 0 {
		a.CPUBatch = total
		return a
	}
	rates := make([]float64, nAcc)
	for i := range rates {
		rates[i] = m.deviceRate(i)
	}
	// The design-phase mapping is deliberately coarse (the paper: "derive a
	// coarse-grained task mapping ... during the design phase"); the DRM
	// engine owns fine-tuning at runtime. The scan covers the CPU workload
	// share in 20% steps and the CPU thread split among sampler / loader /
	// trainer in quarter-of-cores steps.
	cpuPcts := []int{0, 20, 40, 60}
	if !hybrid {
		cpuPcts = []int{0}
	}
	quarter := cores / 4
	threadSplits := [][2]int{}
	for _, st := range []int{quarter, 2 * quarter, 3 * quarter} {
		for _, lt := range []int{quarter, 2 * quarter, 3 * quarter} {
			if st+lt < cores {
				threadSplits = append(threadSplits, [2]int{st, lt})
			}
		}
	}
	best := a.Clone()
	bestT := math.Inf(1)
	for _, cpuPct := range cpuPcts {
		for _, ts := range threadSplits {
			cand := a.Clone()
			cand.SampThreads = ts[0]
			cand.LoadThreads = ts[1]
			cand.TrainThreads = cores - ts[0] - ts[1]
			if !hybrid {
				cand.TrainThreads = 0
			}
			cand.CPUBatch = total * cpuPct / 100
			cand.AccelBatch = apportion(total-cand.CPUBatch, rates)
			t := m.IterTime(cand)
			if t < bestT {
				bestT = t
				best = cand
			}
		}
	}
	return best
}

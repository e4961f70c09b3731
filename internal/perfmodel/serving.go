package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/gnn"
	"repro/internal/hw"
)

// Serving equations: the paper's per-stage cost model (§V, Eqs. 5–13)
// generalized from training iterations to online inference batches. A
// serving batch runs the same pipeline stages as a training iteration —
// fanout sampling, feature loading, PCIe transfer, propagation — minus the
// backward pass and gradient sync, so each stage reuses the training
// primitives over the expected sampled-set sizes of the dynamic batcher's
// batch. Propagation is priced forward-only (serving has no backward), with
// the device's *inference-stack* overheads (hw.Device.ServeOverheadMs plus
// kernel launches and pipeline flush) instead of the training framework
// cost, and FPGA devices are priced by the analytic mirror of the §IV-C
// dataflow's cycle account — the account an FPGA serving worker charges for
// the blocks it actually sampled.
//
// The model is evaluated per worker *device*: each serving worker binds one
// device (the host CPU peer, a GPU, or an FPGA), so a pool's prediction is
// the per-device stage vectors combined — capacity is the sum of per-device
// capacities and the pool service time is the capacity-weighted mean, which
// is where batches land under earliest-completion routing. The validated
// quantities are the per-batch service time and the steady-state capacity
// (the bench's ext-serve tables assert the executed virtual-clock times land
// within ±35% of these); the latency percentiles are first-order queueing
// estimates for sizing, not guarantees.

// ServingLoad describes an open-loop request stream hitting a serving
// deployment: offered load, the dynamic batcher's knobs, the worker pool,
// and the steady-state embedding-cache behavior.
type ServingLoad struct {
	RatePerSec float64 // offered load λ (accepted requests per second)
	MaxBatch   int     // dynamic batcher's size cap
	WindowSec  float64 // dynamic batcher's max-wait deadline
	// ComputeFrac is the fraction of requests that miss the embedding cache
	// and need the full sample→propagate pipeline (1 = cold cache). The
	// cache hit rate itself depends on the request popularity distribution
	// and cache capacity; it is measured by the serving runtime and fed
	// back here.
	ComputeFrac float64
	// Devices is the worker pool, one entry per serving worker (pipeline)
	// draining batches, naming the device it is bound to: 0 is the host CPU
	// peer, i > 0 is Plat.Accels[i-1] (the core.InferConfig.Device
	// convention).
	Devices []int
	// SampThreads/LoadThreads are the CPU threads charged for sampling and
	// gathering; zero defaults to a quarter of the cores each.
	SampThreads, LoadThreads int
}

// ServingDevicePrediction is one worker device's share of a pool prediction:
// its own stage vector and the service/cadence/capacity it sustains.
type ServingDevicePrediction struct {
	Device int // 0 = CPU peer, i > 0 = Plat.Accels[i-1]
	Stage  StageTimes
	// ServiceSec is one batch's latency through this worker's empty
	// pipeline: the serial sum of its stages plus the runtime barriers.
	ServiceSec float64
	// CycleSec is the worker's steady-state batch cadence: its slowest
	// pipeline stage (batches overlap stage-wise, Eq. 6 applied to serving).
	CycleSec float64
	// CapacityRPS is the worker's saturation throughput BatchSize/CycleSec.
	CapacityRPS float64
}

// ServingPrediction is the analytic model's answer for a ServingLoad.
type ServingPrediction struct {
	BatchSize float64 // expected requests per closed batch
	Computed  float64 // expected cache-missing targets per batch
	// Stage aggregates the pool the way StageTimes does for training: Trans
	// and TrainAcc are maxima over the worker devices.
	Stage StageTimes
	// PerDevice resolves the prediction per worker device — the vectors the
	// kind-aware router steers by. One entry per pool worker.
	PerDevice []ServingDevicePrediction
	// ServiceSec is one batch's latency through an empty pipeline: the
	// capacity-weighted mean of the per-device service times (the share of
	// batches each device absorbs under earliest-completion routing).
	ServiceSec float64
	// CycleSec is the pool's effective per-worker batch cadence:
	// Workers·BatchSize/CapacityRPS.
	CycleSec float64
	// CapacityRPS is the saturation throughput: Σ_d BatchSize/CycleSec_d.
	CapacityRPS float64
	Utilization float64 // offered load over capacity
	// ThroughputRPS is the predicted served rate: the offered load, capped
	// by capacity.
	ThroughputRPS float64
	// BatchWaitSec is the mean time a request spends in the batcher before
	// its batch closes.
	BatchWaitSec   float64
	P50Sec, P99Sec float64 // first-order latency estimates
}

// ServingOverheads applies the per-batch *inference-stack* overheads to a raw
// forward time t on dev: the compiled serving stack's dispatch cost on every
// device, plus pipeline flush and kernel launches on accelerators. The
// serving runtime charges exactly this on its virtual clock, so the analytic
// model and the executed path price overheads identically (the serving
// counterpart of DeviceOverheads, which carries the training stack's cost).
func ServingOverheads(dev hw.Device, t float64) float64 {
	if dev.Kind == hw.CPU {
		return t + dev.ServeOverheadMs*1e-3
	}
	return t*(1+FlushFraction) + dev.ServeOverheadMs*1e-3 +
		KernelsPerIteration*dev.KernelLaunchUs*1e-6
}

// ServingServiceSec is the serial service time of one batch's stage vector:
// one batch through an idle serving pipeline, which is the Pipeline{TFP: true}
// shape — sampling, loading, transfer and propagation as four stages on a
// single node. It is the quantity the serving runtime measures per batch and
// the router adds to a worker's availability.
func ServingServiceSec(st StageTimes) float64 { return Pipeline{TFP: true}.Serial(st) }

// servingCycleSec is one worker's steady-state batch cadence: its slowest
// stage.
func servingCycleSec(st StageTimes) float64 { return Pipeline{TFP: true}.Steady(st) }

// ServingBatchStage prices one closed serving batch of `computed`
// cache-missing targets on a single bound worker device — the per-device
// stage vector of the kind-aware router and of PredictServing's pool
// aggregation: ServingStageFor at the expected sampled-set sizes, with the
// forward priced analytically.
func (m *Model) ServingBatchStage(device, computed, sampThreads, loadThreads int) (StageTimes, error) {
	if device < 0 || device > len(m.Plat.Accels) {
		return StageTimes{}, fmt.Errorf("perfmodel: serving device %d outside [0,%d]",
			device, len(m.Plat.Accels))
	}
	if computed <= 0 {
		return StageTimes{}, nil
	}
	quarter := m.Plat.TotalCPUCores() / 4
	if sampThreads <= 0 {
		sampThreads = max(1, quarter)
	}
	if loadThreads <= 0 {
		loadThreads = max(1, quarter)
	}
	sz := m.Work.SizesFor(computed)
	var edges float64
	for _, e := range sz.EL {
		edges += e
	}
	return m.ServingStageFor(device, sz, edges, sampThreads, loadThreads, -1), nil
}

// ServingStageFor is the serving price list: the stage vector of one batch
// with sampled-set sizes sz and `edges` traversed sampling edges on a bound
// worker device, charged to sampThreads/loadThreads CPU threads. The router
// predicts with it at the expected sizes (ServingBatchStage) and the
// executing worker charges it at the sizes it actually sampled, so the two
// cannot drift apart. Device 0 is the host CPU peer (propagation on the
// trainer's core share, no PCIe); device i > 0 is Plat.Accels[i-1], whose
// features cross its own host link and, for framework-driven devices
// (Device.LoaderGBs), load through that stack. forwardSec is the raw forward
// time when the worker accounted the batch it actually sampled (an FPGA
// worker's accel.Backend.Account of its blocks); negative prices the forward
// analytically — FPGA devices by the account's size-vector mirror
// (EstimateForwardSec), everything else by the forward half of Eq. 10. All
// propagation carries ServingOverheads.
func (m *Model) ServingStageFor(device int, sz Sizes, edges float64, sampThreads, loadThreads int, forwardSec float64) StageTimes {
	st := StageTimes{SampCPU: m.SampleTimeCPUEdges(edges, sampThreads)}
	if device == 0 {
		st.Load = m.LoadTimeForRows(sz.VL[0], loadThreads)
		cores := m.Plat.TotalCPUCores()
		share := float64(cores-sampThreads-loadThreads) / float64(cores)
		if share <= 0 {
			share = 0.5
		}
		st.TrainCPU = ServingOverheads(m.Plat.CPU, m.PropForwardFor(m.Plat.CPU, sz, share))
		return st
	}
	dev := m.Plat.Accels[device-1]
	st.Load = m.loadTimeForDevice(device-1, sz.VL[0], loadThreads)
	st.Trans = m.TransferTimeDev(device-1, sz)
	if forwardSec < 0 && dev.Kind == hw.FPGA {
		// Like every other perfmodel equation, the estimate prices the
		// workload's Spec.FeatDims (the convention throughout: served model
		// dims equal the spec's layer dims, enforced for the input layer at
		// pipeline construction). Spec-derived sizes and dims always agree
		// in length, so the estimate's short-vector guard cannot trip here.
		bk := accel.U250Backend(m.Work.Spec.FeatDims[0])
		forwardSec = bk.EstimateForwardSec(gnn.Config{Kind: m.Work.Model, Dims: m.Work.Spec.FeatDims},
			sz.VL, sz.EL)
	} else if forwardSec < 0 {
		forwardSec = m.PropForwardFor(dev, sz, 1)
	}
	st.TrainAcc = ServingOverheads(dev, forwardSec)
	return st
}

// PredictServing evaluates the serving equations for a load on this
// platform + workload: per-device stage vectors for every pool worker,
// combined into pool capacity, service time, and first-order latency.
func (m *Model) PredictServing(l ServingLoad) (ServingPrediction, error) {
	if l.RatePerSec <= 0 {
		return ServingPrediction{}, fmt.Errorf("perfmodel: non-positive request rate %v", l.RatePerSec)
	}
	if l.MaxBatch <= 0 {
		return ServingPrediction{}, fmt.Errorf("perfmodel: non-positive max batch %d", l.MaxBatch)
	}
	if l.WindowSec < 0 {
		return ServingPrediction{}, fmt.Errorf("perfmodel: negative batch window %v", l.WindowSec)
	}
	if len(l.Devices) == 0 {
		return ServingPrediction{}, fmt.Errorf("perfmodel: serving load binds no worker devices")
	}
	for _, d := range l.Devices {
		if d < 0 || d > len(m.Plat.Accels) {
			return ServingPrediction{}, fmt.Errorf("perfmodel: serving device %d outside [0,%d]",
				d, len(m.Plat.Accels))
		}
	}
	if l.ComputeFrac < 0 || l.ComputeFrac > 1 {
		return ServingPrediction{}, fmt.Errorf("perfmodel: compute fraction %v outside [0,1]", l.ComputeFrac)
	}

	var p ServingPrediction
	// Expected batch size of the dynamic batcher under open-loop arrivals:
	// the batch closes either when the MaxBatch-th request arrives (expected
	// after (B−1)/λ) or at the window deadline, whichever is first.
	p.BatchSize = math.Min(float64(l.MaxBatch), 1+l.RatePerSec*l.WindowSec)
	p.BatchWaitSec = math.Min(l.WindowSec, (float64(l.MaxBatch)-1)/l.RatePerSec) / 2
	p.Computed = p.BatchSize * l.ComputeFrac
	computed := 0
	if p.Computed > 0 {
		computed = max(1, int(math.Round(p.Computed)))
	}

	p.PerDevice = make([]ServingDevicePrediction, len(l.Devices))
	for i, d := range l.Devices {
		st, err := m.ServingBatchStage(d, computed, l.SampThreads, l.LoadThreads)
		if err != nil {
			return ServingPrediction{}, err
		}
		dp := ServingDevicePrediction{
			Device:     d,
			Stage:      st,
			ServiceSec: ServingServiceSec(st),
			CycleSec:   servingCycleSec(st),
		}
		dp.CapacityRPS = p.BatchSize / dp.CycleSec
		p.PerDevice[i] = dp

		// Pool stage aggregate: maxima, the StageTimes convention.
		p.Stage.SampCPU = math.Max(p.Stage.SampCPU, st.SampCPU)
		p.Stage.Load = math.Max(p.Stage.Load, st.Load)
		p.Stage.Trans = math.Max(p.Stage.Trans, st.Trans)
		p.Stage.TrainCPU = math.Max(p.Stage.TrainCPU, st.TrainCPU)
		p.Stage.TrainAcc = math.Max(p.Stage.TrainAcc, st.TrainAcc)
		p.CapacityRPS += dp.CapacityRPS
	}
	// Pool service time: capacity-weighted mean of the per-device service
	// times — the batch mix earliest-completion routing converges to.
	for _, dp := range p.PerDevice {
		p.ServiceSec += dp.CapacityRPS / p.CapacityRPS * dp.ServiceSec
	}
	p.CycleSec = float64(len(l.Devices)) * p.BatchSize / p.CapacityRPS
	p.Utilization = l.RatePerSec / p.CapacityRPS
	p.ThroughputRPS = math.Min(l.RatePerSec, p.CapacityRPS)

	// First-order latency: batcher wait + service, plus an M/D/c-style
	// queueing term that diverges as utilization approaches 1.
	queue := 0.0
	if p.Utilization < 1 {
		queue = p.Utilization / (1 - p.Utilization) * p.CycleSec / 2
	} else {
		queue = math.Inf(1)
	}
	p.P50Sec = p.BatchWaitSec + p.ServiceSec + queue
	p.P99Sec = 2*p.BatchWaitSec + p.ServiceSec + 3*queue
	return p, nil
}

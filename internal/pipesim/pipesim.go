// Package pipesim is the execution simulator for HyScale-GNN's 4-stage
// training pipeline (paper Fig. 4/7): Sampling → Feature Loading → Data
// Transfer → GNN Propagation. Every simulated iteration's stage vector goes
// through perfmodel.Pipeline — the same max-plus composition, barriers
// included, the executing engine's virtual clock runs on — which models both
// the pipeline fill and the steady state.
//
// Unlike the analytic model (perfmodel.EpochTime), the simulator charges the
// overheads §VI-C identifies as model error: accelerator kernel-launch
// latency, dataflow pipeline flushing, per-stage runtime coordination
// (barriers/handshakes, inside Pipeline), and measurement noise. The gap
// between the two is exactly the paper's Fig. 8 "predicted vs actual"
// experiment.
package pipesim

import (
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// Mode selects which of the paper's optimizations are active (the Fig. 11
// ablation axes).
type Mode struct {
	Hybrid bool // CPU trainer participates (vs. accelerator-only)
	DRM    bool // dynamic resource management adjusts the mapping at runtime
	TFP    bool // two-stage feature prefetching (split Load / Transfer stages)
}

// Controller adjusts the task mapping between iterations; the DRM engine
// implements it. Adjust receives the stage times measured in iteration i and
// returns the assignment for iteration i+1, which may live in storage the
// controller reuses on its next call.
type Controller interface {
	Adjust(iter int, measured perfmodel.StageTimes, a perfmodel.Assignment) perfmodel.Assignment
}

// Config drives one simulated training epoch.
type Config struct {
	Model *perfmodel.Model
	Mode  Mode
	Ctrl  Controller // nil for static mapping
	Seed  uint64
	// Iterations overrides the epoch length (0 = derive from TrainNodes).
	Iterations int
	// NoiseStd is the multiplicative measurement noise per stage.
	// Zero selects the default (0.02); pass a negative value to disable
	// noise entirely.
	NoiseStd float64
	// InitialAssign overrides the design-phase mapping the simulation starts
	// from (nil = Model.InitialAssignment). Used to study how the DRM engine
	// recovers from a naive split — e.g. uniform shares across unequal
	// devices.
	InitialAssign *perfmodel.Assignment
}

// Result reports a simulated epoch.
type Result struct {
	EpochSec float64
	IterSec  []float64 // completion-time deltas per iteration
	MTEPS    float64
	// Trace holds the per-iteration stage times (after overheads/noise,
	// before the pipeline's barriers), the raw series behind the figures.
	Trace []perfmodel.StageTimes
}

// Run simulates one epoch and returns the timing result.
func Run(cfg Config) (*Result, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("pipesim: nil model")
	}
	m := cfg.Model
	assign := m.InitialAssignment(cfg.Mode.Hybrid)
	if cfg.InitialAssign != nil {
		assign = cfg.InitialAssign.Clone()
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = m.Iterations(assign)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("pipesim: zero iterations")
	}
	noiseStd := cfg.NoiseStd
	if noiseStd == 0 {
		noiseStd = 0.02
	} else if noiseStd < 0 {
		noiseStd = 0
	}
	rng := tensor.NewRNG(cfg.Seed)

	pipe := perfmodel.Pipeline{TFP: cfg.Mode.TFP}
	res := &Result{IterSec: make([]float64, 0, iters)}
	var totalEdges float64

	for i := 0; i < iters; i++ {
		st := m.Stages(assign)
		applyOverheads(&st, m.Plat, rng, noiseStd)
		res.Trace = append(res.Trace, st)

		before := pipe.Now()
		pipe.Advance(st)
		res.IterSec = append(res.IterSec, pipe.Now()-before)

		if assign.CPUBatch > 0 {
			totalEdges += m.Work.EdgesPerBatch(assign.CPUBatch)
		}
		for _, b := range assign.AccelBatch {
			if b > 0 {
				totalEdges += m.Work.EdgesPerBatch(b)
			}
		}
		if cfg.Mode.DRM && cfg.Ctrl != nil {
			assign = cfg.Ctrl.Adjust(i, st, assign)
		}
	}
	res.EpochSec = pipe.Now()
	if res.EpochSec > 0 {
		res.MTEPS = totalEdges / res.EpochSec / 1e6
	}
	return res, nil
}

// applyOverheads adds the device-stack costs and measurement noise to the
// analytic stage times. The accelerator-side overheads (kernel launches,
// pipeline flush, framework cost) are perfmodel.DeviceOverheads, shared with
// the executing runtime, charged per device.
func applyOverheads(st *perfmodel.StageTimes, plat hw.Platform, rng *tensor.RNG, noiseStd float64) {
	// Accelerator trainers: framework overhead + kernel launches + flush,
	// charged per device through the per-device stage vector — a mixed fleet
	// pays each device's own stack, not the first device's. (For homogeneous
	// fleets this equals the old busiest-clone charge. Stages always fills
	// PerAccel when the fleet is non-empty, so this is the only path.)
	st.TrainAcc = 0
	for i := range st.PerAccel {
		if i >= len(plat.Accels) || st.PerAccel[i].Train <= 0 {
			continue
		}
		st.PerAccel[i].Train = perfmodel.DeviceOverheads(plat.Accels[i], st.PerAccel[i].Train)
		st.TrainAcc = math.Max(st.TrainAcc, st.PerAccel[i].Train)
	}
	// CPU trainer: host framework overhead.
	if st.TrainCPU > 0 {
		st.TrainCPU = perfmodel.DeviceOverheads(plat.CPU, st.TrainCPU)
	}
	// One multiplicative noise draw per stage per iteration: the whole stage
	// jitters together (a slow iteration is slow for every device), so the
	// per-device entries share the aggregate's factor and keep the invariant
	// that the aggregates are the per-device maxima — the DRM engine's
	// intra-fleet move sees the same measurement jitter the aggregates carry.
	noiseF := func(t float64) (float64, float64) {
		if t <= 0 {
			return t, 1
		}
		f := 1 + noiseStd*rng.NormFloat64()
		return t * f, f
	}
	noise := func(t float64) float64 { n, _ := noiseF(t); return n }
	st.SampCPU = noise(st.SampCPU)
	st.SampAccel = noise(st.SampAccel)
	st.Load = noise(st.Load)
	var fTrans, fTrain float64
	st.Trans, fTrans = noiseF(st.Trans)
	st.TrainCPU = noise(st.TrainCPU)
	st.TrainAcc, fTrain = noiseF(st.TrainAcc)
	for i := range st.PerAccel {
		st.PerAccel[i].Trans *= fTrans
		st.PerAccel[i].Train *= fTrain
	}
}

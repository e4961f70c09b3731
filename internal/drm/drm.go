// Package drm implements the paper's Dynamic Resource Management engine
// (§IV-A, Algorithm 1): a bottleneck-guided optimizer that fine-tunes the
// task mapping every iteration. Two moves exist:
//
//   - balance_work: shift mini-batch targets between a CPU task and an
//     accelerator task (trainer↔trainer or sampler↔sampler), keeping the
//     global mini-batch size constant;
//   - balance_thread: re-assign CPU threads from the fastest CPU task to a
//     bottlenecked CPU task, keeping the total thread count constant.
//
// The engine consumes the stage times measured by the runtime (or the
// pipeline simulator) and returns the assignment for the next iteration. It
// deliberately has no model of *why* a stage is slow — exactly like the
// paper's engine, it reacts only to measured times, which is what lets it
// absorb model error (framework overheads, contention) that the design-time
// mapping cannot see.
package drm

import (
	"repro/internal/perfmodel"
)

// Stage identifies one of Algorithm 1's five candidate bottlenecks.
type Stage int

const (
	SampCPU   Stage = iota // T_SC
	SampAccel              // T_SA
	Load                   // T_Load
	TrainCPU               // T_TC
	Accel                  // T_Accel = max(T_Tran, T_TA), bundled per Algorithm 1 line 1

	numStages = iota
)

// stageTimes holds Algorithm 1's five inputs, indexed by Stage.
type stageTimes [numStages]float64

// String names the stage.
func (s Stage) String() string {
	switch s {
	case SampCPU:
		return "T_SC"
	case SampAccel:
		return "T_SA"
	case Load:
		return "T_Load"
	case TrainCPU:
		return "T_TC"
	case Accel:
		return "T_Accel"
	default:
		return "?"
	}
}

// Engine is the DRM controller. It implements pipesim.Controller.
type Engine struct {
	// Cores is the CPU thread budget balance_thread conserves.
	Cores int
	// Gain is the fraction of the measured imbalance corrected per step
	// (1 = jump straight to the estimated optimum; smaller damps oscillation).
	Gain float64
	// MinBatch is the smallest per-device mini-batch share (keeps every
	// trainer participating so measurements stay available).
	MinBatch int
	// MinThreads is the floor for any CPU task's thread count.
	MinThreads int
	// ThreadStep is how many threads one balance_thread move transfers.
	ThreadStep int
	// Tolerance suppresses adjustment when the bottleneck exceeds the
	// fastest stage by less than this relative margin (hysteresis).
	Tolerance float64
	// FusedPrefetch tells the engine that Feature Loading and Data Transfer
	// run as one fused pipeline stage (the pre-TFP configuration, §IV-B).
	// The engine then optimizes the fused time Load+Trans as a unit and
	// treats T_Accel as the trainer time alone. With TFP enabled (the
	// paper's full system) leave this false: Algorithm 1's bundling
	// T_Accel = max(T_Tran, T_TA) applies.
	FusedPrefetch bool

	// Moves counts applied adjustments, by kind, for introspection.
	MovesWork   int
	MovesThread int

	// next is the storage of the assignment Adjust returns, and parts /
	// weights / fracs the scratch of a work move's apportioning, so a
	// steady-state Adjust allocates nothing.
	next           perfmodel.Assignment
	parts          []int
	weights, fracs []float64
}

// New returns an engine with the defaults used throughout the experiments.
func New(cores int) *Engine {
	return &Engine{
		Cores: cores, Gain: 0.5, MinBatch: 32, MinThreads: 4,
		ThreadStep: 4, Tolerance: 0.08,
	}
}

// times extracts Algorithm 1's five inputs from the measured stage times.
func times(st perfmodel.StageTimes) stageTimes {
	tAccel := st.Trans
	if st.TrainAcc > tAccel {
		tAccel = st.TrainAcc
	}
	return stageTimes{
		SampCPU:   st.SampCPU,
		SampAccel: st.SampAccel,
		Load:      st.Load,
		TrainCPU:  st.TrainCPU,
		Accel:     tAccel,
	}
}

// rank returns the *present* (non-zero) stages ordered slowest-first in
// order[:n], and the fastest present CPU task. Absent stages (e.g. T_SA when
// accelerators do not sample) never appear as bottleneck or fastest.
func rank(ts *stageTimes) (order [numStages]Stage, n int, fastestCPU Stage) {
	for s := Stage(0); s < numStages; s++ {
		if ts[s] > 0 {
			order[n] = s
			n++
		}
	}
	// Insertion sort by time descending (≤5 elements).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && ts[order[j]] > ts[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	fastestCPU = SampCPU
	best := -1.0
	for _, s := range [...]Stage{SampCPU, Load, TrainCPU} {
		t := ts[s]
		if t <= 0 {
			continue
		}
		if best < 0 || t < best {
			best = t
			fastestCPU = s
		}
	}
	return order, n, fastestCPU
}

// Adjust implements Algorithm 1 for one iteration, extended with the
// intra-fleet move: after the CPU↔accelerator balancing of the original
// algorithm, per-device stage measurements (when provided) rebalance the
// shares of *unequal* accelerators against each other.
//
// a is not modified — unless it is the previous call's result: the returned
// assignment's AccelBatch is storage the engine owns and rewrites on the next
// call (feeding a result straight back in, as the epoch loop does, is the
// intended use). A caller that keeps a result across calls Clones it.
func (e *Engine) Adjust(_ int, st perfmodel.StageTimes, a perfmodel.Assignment) perfmodel.Assignment {
	ts := times(st)
	if e.FusedPrefetch {
		ts[Load] = st.Load + st.Trans
		ts[Accel] = st.TrainAcc
	}
	a.CloneInto(&e.next)
	e.adjustGlobal(&e.next, st, &ts)
	e.balanceAccels(&e.next, st.PerAccel)
	return e.next
}

// adjustGlobal is the original Algorithm 1 step over the five aggregated
// stage times.
func (e *Engine) adjustGlobal(out *perfmodel.Assignment, st perfmodel.StageTimes, ts *stageTimes) {
	order, n, fastestCPU := rank(ts)
	if n < 2 {
		return
	}
	bottleneck := order[0]
	fastest := order[n-1]
	second := order[n-2]

	// Hysteresis: when the bottleneck barely exceeds the runner-up, any move
	// just swaps the two and the pipeline oscillates; the bottleneck time —
	// which is what the pipeline clock follows — cannot drop below the
	// runner-up anyway.
	if ts[second] > 0 && ts[bottleneck] < ts[second]*(1+e.Tolerance) {
		return
	}

	switch bottleneck {
	case SampAccel: // line 11: shift sampling work back toward the CPU
		e.balanceSampling(out, -1)
	case Accel: // line 13: shift training work toward the CPU
		e.balanceTraining(out, ts, -1)
	case Load: // line 15
		if e.FusedPrefetch && st.Trans > st.Load {
			// The fused prefetch stage is transfer-dominated: shedding
			// accelerator work shrinks both halves; more loader threads
			// would not help the PCIe half.
			e.balanceTraining(out, ts, -1)
		} else {
			e.balanceThread(out, fastestCPU, Load)
		}
	case SampCPU: // lines 17–24
		if fastest == SampAccel || (fastest == Accel && second == SampAccel) {
			e.balanceSampling(out, +1)
		} else {
			e.balanceThread(out, fastestCPU, SampCPU)
		}
	case TrainCPU: // lines 25–32
		if fastest == Accel || (fastest == SampAccel && second == Accel) {
			e.balanceTraining(out, ts, +1)
		} else {
			e.balanceThread(out, fastestCPU, TrainCPU)
		}
	}
}

// balanceAccels is balance_work *within* the accelerator fleet. Algorithm 1
// moves work between the CPU and "the accelerators" as one block — enough
// when the fleet is homogeneous, but on a mixed CPU+GPU+FPGA node the
// per-device stage vector exposes a straggler the aggregates hide. One move
// shifts targets from the slowest device to the fastest, sized (like
// balanceTraining) to land at the crossover of the two devices' per-target
// costs, so unequal devices converge to equal stage times instead of
// oscillating.
func (e *Engine) balanceAccels(a *perfmodel.Assignment, per []perfmodel.DeviceStage) {
	n := len(a.AccelBatch)
	if n < 2 || len(per) < n {
		return
	}
	slow, fast := -1, -1
	for i := 0; i < n; i++ {
		if a.AccelBatch[i] <= 0 || per[i].Busy() <= 0 {
			continue
		}
		if slow < 0 || per[i].Busy() > per[slow].Busy() {
			slow = i
		}
		if fast < 0 || per[i].Busy() < per[fast].Busy() {
			fast = i
		}
	}
	if slow < 0 || fast < 0 || slow == fast {
		return
	}
	tSlow, tFast := per[slow].Busy(), per[fast].Busy()
	if tSlow < tFast*(1+e.Tolerance) {
		return // hysteresis: the fleet is balanced enough
	}
	cSlow := tSlow / float64(a.AccelBatch[slow])
	cFast := tFast / float64(a.AccelBatch[fast])
	move := int(e.Gain * (tSlow - tFast) / (cSlow + cFast))
	if a.AccelBatch[slow]-move < e.MinBatch {
		move = a.AccelBatch[slow] - e.MinBatch
	}
	if move <= 0 {
		return
	}
	a.AccelBatch[slow] -= move
	a.AccelBatch[fast] += move
	e.MovesWork++
}

// balanceTraining is balance_work over trainer mini-batch shares.
// dir = +1 moves work CPU→accelerators, −1 moves accelerators→CPU.
//
// The step size targets the equilibrium of the two sides that the moved
// batch actually scales: the CPU-side time (T_TC, proportional to the CPU
// share) against the accelerator-proportional side — whichever is larger of
// the loading and accelerator stages, both of which scale with the
// accelerator share. Solving  t_cpu − Δ·c_cpu = t_acc + Δ·c_acc  for Δ lands
// at the crossover instead of hopping over it, so the engine settles rather
// than oscillates.
func (e *Engine) balanceTraining(a *perfmodel.Assignment, ts *stageTimes, dir int) {
	nAcc := len(a.AccelBatch)
	if nAcc == 0 {
		return
	}
	accTotal := 0
	for _, b := range a.AccelBatch {
		accTotal += b
	}
	total := a.CPUBatch + accTotal
	cpuSide := ts[TrainCPU]
	accSide := ts[Accel]
	if ts[Load] > accSide {
		accSide = ts[Load]
	}
	var move int
	if cpuSide > 0 && accSide > 0 && a.CPUBatch > 0 && accTotal > 0 {
		cCPU := cpuSide / float64(a.CPUBatch)
		cAcc := accSide / float64(accTotal)
		move = int(e.Gain * (accSide - cpuSide) / (cCPU + cAcc) * float64(-dir))
		if move < 0 {
			move = -move
		}
	} else {
		move = total / 20
	}
	if move == 0 {
		return
	}
	if dir > 0 { // CPU → accelerators
		if a.CPUBatch-move < e.MinBatch {
			move = a.CPUBatch - e.MinBatch
		}
		if move <= 0 {
			return
		}
		a.CPUBatch -= move
		e.distribute(a.AccelBatch, move)
	} else { // accelerators → CPU
		if accTotal-move < e.MinBatch*nAcc {
			move = accTotal - e.MinBatch*nAcc
		}
		if move <= 0 {
			return
		}
		a.CPUBatch += move
		e.distribute(a.AccelBatch, -move)
	}
	e.MovesWork++
}

// balanceSampling is balance_work over the sampling split.
// dir = +1 moves sampling work CPU→accelerators, −1 the reverse.
func (e *Engine) balanceSampling(a *perfmodel.Assignment, dir int) {
	step := 0.1 * e.Gain * 2
	frac := a.AccelSampleFrac + float64(dir)*step
	if frac < 0 {
		frac = 0
	}
	if frac > 0.9 {
		frac = 0.9
	}
	if frac == a.AccelSampleFrac {
		return
	}
	a.AccelSampleFrac = frac
	e.MovesWork++
}

// balanceThread moves ThreadStep CPU threads from one task to another.
func (e *Engine) balanceThread(a *perfmodel.Assignment, from, to Stage) {
	if from == to {
		return
	}
	get := func(s Stage) *int {
		switch s {
		case SampCPU:
			return &a.SampThreads
		case Load:
			return &a.LoadThreads
		case TrainCPU:
			return &a.TrainThreads
		default:
			return nil
		}
	}
	src, dst := get(from), get(to)
	if src == nil || dst == nil {
		return
	}
	step := e.ThreadStep
	if *src-step < e.MinThreads {
		step = *src - e.MinThreads
	}
	if step <= 0 {
		return
	}
	*src -= step
	*dst += step
	e.MovesThread++
}

// distribute spreads delta targets across the accelerator shares in
// proportion to their current sizes (falling back to a uniform split when
// every share is zero), so a heterogeneous fleet's balance survives
// CPU↔accelerator moves — the old uniform split would push the same
// increment onto a U250 and an A5000 alike and undo the throughput-
// proportional mapping every iteration. Negative deltas shed proportionally
// and never push a share below zero; the shares' sum changes by exactly
// delta as long as |delta| does not exceed the fleet total (which callers
// guarantee), and by the fleet total otherwise. The apportioning runs in the
// engine's scratch.
func (e *Engine) distribute(shares []int, delta int) {
	n := len(shares)
	if n == 0 || delta == 0 {
		return
	}
	if cap(e.parts) < n {
		e.parts, e.weights, e.fracs = make([]int, n), make([]float64, n), make([]float64, n)
	}
	weights := e.weights[:n]
	if delta > 0 {
		// Revive starved devices first: a share that hit zero would
		// otherwise have zero growth weight forever (and no measurements
		// for the intra-fleet move to act on). One target is noise for
		// healthy fleets but hands the idle device a trickle, after which
		// its measured stage times — and proportional weights — return.
		for i := range shares {
			if delta == 0 {
				return
			}
			if shares[i] == 0 {
				shares[i]++
				delta--
			}
		}
		for i, s := range shares {
			weights[i] = float64(s)
		}
		for i, p := range perfmodel.ApportionInto(e.parts, e.fracs, delta, weights) {
			shares[i] += p
		}
		return
	}
	total := 0
	for i, s := range shares {
		weights[i] = float64(s)
		total += s
	}
	mag := -delta
	if mag > total {
		mag = total
	}
	parts := perfmodel.ApportionInto(e.parts, e.fracs, mag, weights)
	// Shedding: cap each removal at the share itself, then drain any
	// leftover from the largest remaining shares.
	left := 0
	for i := range shares {
		take := parts[i]
		if take > shares[i] {
			left += take - shares[i]
			take = shares[i]
		}
		shares[i] -= take
	}
	for left > 0 {
		big := -1
		for i := range shares {
			if shares[i] > 0 && (big < 0 || shares[i] > shares[big]) {
				big = i
			}
		}
		if big < 0 {
			return
		}
		shares[big]--
		left--
	}
}

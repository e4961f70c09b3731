package drm

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/pipesim"
)

func baseAssign() perfmodel.Assignment {
	return perfmodel.Assignment{
		CPUBatch:    1024,
		AccelBatch:  []int{768, 768, 768, 768},
		SampThreads: 32, LoadThreads: 32, TrainThreads: 64,
	}
}

func TestStageString(t *testing.T) {
	for s, want := range map[Stage]string{
		SampCPU: "T_SC", SampAccel: "T_SA", Load: "T_Load", TrainCPU: "T_TC", Accel: "T_Accel",
	} {
		if s.String() != want {
			t.Fatalf("%v != %s", s, want)
		}
	}
}

func TestAccelBundling(t *testing.T) {
	// Algorithm 1 line 1: T_Accel = max(T_Tran, T_TA).
	ts := times(perfmodel.StageTimes{Trans: 3, TrainAcc: 5})
	if ts[Accel] != 5 {
		t.Fatalf("T_Accel = %v, want max(3,5)", ts[Accel])
	}
	ts = times(perfmodel.StageTimes{Trans: 7, TrainAcc: 5})
	if ts[Accel] != 7 {
		t.Fatalf("T_Accel = %v, want max(7,5)", ts[Accel])
	}
}

func TestHysteresisNoChangeWhenBalanced(t *testing.T) {
	e := New(128)
	a := baseAssign()
	st := perfmodel.StageTimes{SampCPU: 1, Load: 1, Trans: 1, TrainCPU: 1, TrainAcc: 1}
	out := e.Adjust(0, st, a)
	if out.CPUBatch != a.CPUBatch || out.SampThreads != a.SampThreads {
		t.Fatal("balanced pipeline was adjusted")
	}
	if e.MovesWork+e.MovesThread != 0 {
		t.Fatal("moves counted for no-op")
	}
}

func TestAccelBottleneckShiftsWorkToCPU(t *testing.T) {
	e := New(128)
	a := baseAssign()
	// Accelerator path is 3× slower than the CPU trainer.
	st := perfmodel.StageTimes{SampCPU: 0.5, Load: 0.5, Trans: 1, TrainAcc: 3, TrainCPU: 1}
	out := e.Adjust(0, st, a)
	if out.CPUBatch <= a.CPUBatch {
		t.Fatalf("CPU batch should grow: %d -> %d", a.CPUBatch, out.CPUBatch)
	}
	if out.TotalBatch() != a.TotalBatch() {
		t.Fatalf("total batch changed: %d -> %d", a.TotalBatch(), out.TotalBatch())
	}
	if e.MovesWork != 1 {
		t.Fatalf("MovesWork = %d", e.MovesWork)
	}
}

func TestCPUTrainerBottleneckShiftsWorkToAccel(t *testing.T) {
	e := New(128)
	a := baseAssign()
	// CPU trainer slowest, accelerator path fastest.
	st := perfmodel.StageTimes{SampCPU: 1, Load: 1, Trans: 0.2, TrainAcc: 0.4, TrainCPU: 3}
	out := e.Adjust(0, st, a)
	if out.CPUBatch >= a.CPUBatch {
		t.Fatalf("CPU batch should shrink: %d -> %d", a.CPUBatch, out.CPUBatch)
	}
	if out.TotalBatch() != a.TotalBatch() {
		t.Fatal("total batch not conserved")
	}
}

func TestLoadBottleneckMovesThreads(t *testing.T) {
	e := New(128)
	a := baseAssign()
	st := perfmodel.StageTimes{SampCPU: 0.5, Load: 3, Trans: 1, TrainAcc: 1, TrainCPU: 1}
	out := e.Adjust(0, st, a)
	if out.LoadThreads <= a.LoadThreads {
		t.Fatalf("loader threads should grow: %d -> %d", a.LoadThreads, out.LoadThreads)
	}
	// Threads conserved: the fastest CPU task (sampler at 0.5) donates.
	if out.SampThreads >= a.SampThreads {
		t.Fatal("sampler should donate threads")
	}
	totalBefore := a.SampThreads + a.LoadThreads + a.TrainThreads
	totalAfter := out.SampThreads + out.LoadThreads + out.TrainThreads
	if totalBefore != totalAfter {
		t.Fatalf("thread count changed: %d -> %d", totalBefore, totalAfter)
	}
	if e.MovesThread != 1 {
		t.Fatalf("MovesThread = %d", e.MovesThread)
	}
}

func TestCPUSamplerBottleneckOffloadsToAccelSampler(t *testing.T) {
	e := New(128)
	a := baseAssign()
	// Sampler slowest; accelerator sampler fastest → balance_work (line 18).
	st := perfmodel.StageTimes{SampCPU: 3, SampAccel: 0.1, Load: 1, Trans: 0.5, TrainAcc: 0.8, TrainCPU: 1}
	out := e.Adjust(0, st, a)
	if out.AccelSampleFrac <= a.AccelSampleFrac {
		t.Fatalf("accel sampling share should grow: %v -> %v", a.AccelSampleFrac, out.AccelSampleFrac)
	}
}

func TestCPUSamplerBottleneckStealsThreadsOtherwise(t *testing.T) {
	e := New(128)
	a := baseAssign()
	// Sampler slowest; fastest stage is the loader (a CPU task) → balance_thread.
	st := perfmodel.StageTimes{SampCPU: 3, SampAccel: 2.5, Load: 0.2, Trans: 1, TrainAcc: 1.5, TrainCPU: 1}
	out := e.Adjust(0, st, a)
	if out.SampThreads <= a.SampThreads {
		t.Fatalf("sampler threads should grow: %d -> %d", a.SampThreads, out.SampThreads)
	}
	if out.LoadThreads >= a.LoadThreads {
		t.Fatal("loader should donate threads")
	}
}

func TestAccelSamplerBottleneckPullsSamplingBack(t *testing.T) {
	e := New(128)
	a := baseAssign()
	a.AccelSampleFrac = 0.5
	st := perfmodel.StageTimes{SampCPU: 0.5, SampAccel: 3, Load: 1, Trans: 1, TrainAcc: 1, TrainCPU: 1}
	out := e.Adjust(0, st, a)
	if out.AccelSampleFrac >= a.AccelSampleFrac {
		t.Fatalf("accel sampling share should shrink: %v -> %v", a.AccelSampleFrac, out.AccelSampleFrac)
	}
}

// Algorithm 1 lines 20–21: sampler bottlenecked, the accelerator path is
// fastest AND the accelerator sampler is second-fastest → balance_work
// moves sampling to the accelerators.
func TestCPUSamplerBottleneckAccelFastestPath(t *testing.T) {
	e := New(128)
	a := baseAssign()
	// Order (desc): SampCPU 3 > TrainCPU 1 > Load 0.9 > SampAccel 0.3 > Accel 0.1.
	st := perfmodel.StageTimes{SampCPU: 3, SampAccel: 0.3, Load: 0.9, Trans: 0.05, TrainAcc: 0.1, TrainCPU: 1}
	out := e.Adjust(0, st, a)
	if out.AccelSampleFrac <= a.AccelSampleFrac {
		t.Fatalf("expected sampling offload via lines 20-21: %v -> %v",
			a.AccelSampleFrac, out.AccelSampleFrac)
	}
}

// Algorithm 1 lines 28–29: CPU trainer bottlenecked, accel sampler fastest
// and accel trainer second → balance_work moves training to accelerators.
func TestCPUTrainerBottleneckAccelSamplerFastestPath(t *testing.T) {
	e := New(128)
	a := baseAssign()
	a.AccelSampleFrac = 0.3
	// Order (desc): TrainCPU 3 > SampCPU 1 > Load 0.9 > Accel 0.2 > SampAccel 0.1.
	st := perfmodel.StageTimes{SampCPU: 1, SampAccel: 0.1, Load: 0.9, Trans: 0.05, TrainAcc: 0.2, TrainCPU: 3}
	out := e.Adjust(0, st, a)
	if out.CPUBatch >= a.CPUBatch {
		t.Fatalf("expected training offload via lines 28-29: %d -> %d", a.CPUBatch, out.CPUBatch)
	}
}

// With no accelerators in the assignment, work moves are silently skipped.
func TestNoAccelNoWorkMove(t *testing.T) {
	e := New(128)
	a := perfmodel.Assignment{CPUBatch: 1024, SampThreads: 32, LoadThreads: 32, TrainThreads: 64}
	st := perfmodel.StageTimes{SampCPU: 0.1, Load: 0.1, TrainCPU: 5, TrainAcc: 0.2, Trans: 0.1}
	out := e.Adjust(0, st, a)
	if out.CPUBatch != 1024 {
		t.Fatal("work moved despite no accelerators")
	}
}

func TestMinBatchFloorRespected(t *testing.T) {
	e := New(128)
	a := perfmodel.Assignment{
		CPUBatch:    minBatch,
		AccelBatch:  []int{4000},
		SampThreads: 32, LoadThreads: 32, TrainThreads: 64,
	}
	// CPU trainer bottleneck wants to shed work but is already at the floor.
	st := perfmodel.StageTimes{SampCPU: 0.1, Load: 0.1, Trans: 0.1, TrainAcc: 0.2, TrainCPU: 5}
	out := e.Adjust(0, st, a)
	if out.CPUBatch < minBatch {
		t.Fatalf("CPU batch %d below floor %d", out.CPUBatch, minBatch)
	}
	if out.TotalBatch() != a.TotalBatch() {
		t.Fatal("total batch not conserved at floor")
	}
}

func TestThreadFloorRespected(t *testing.T) {
	e := New(128)
	a := baseAssign()
	a.SampThreads = minThreads // fastest task already at floor
	st := perfmodel.StageTimes{SampCPU: 0.01, Load: 5, Trans: 1, TrainAcc: 1, TrainCPU: 1}
	out := e.Adjust(0, st, a)
	if out.SampThreads < minThreads {
		t.Fatalf("sampler threads %d below floor", out.SampThreads)
	}
}

// Property: Adjust always conserves the global batch and the thread budget,
// and never produces negative shares.
func TestAdjustInvariants(t *testing.T) {
	e := New(128)
	f := func(sc, sa, ld, tc, ta, tr uint16, frac uint8) bool {
		a := baseAssign()
		a.AccelSampleFrac = float64(frac%10) / 10
		st := perfmodel.StageTimes{
			SampCPU:   float64(sc)/1000 + 0.001,
			SampAccel: float64(sa) / 1000,
			Load:      float64(ld)/1000 + 0.001,
			TrainCPU:  float64(tc)/1000 + 0.001,
			TrainAcc:  float64(ta)/1000 + 0.001,
			Trans:     float64(tr) / 1000,
		}
		out := e.Adjust(0, st, a)
		if out.TotalBatch() != a.TotalBatch() {
			return false
		}
		if out.CPUBatch < 0 {
			return false
		}
		for _, b := range out.AccelBatch {
			if b < 0 {
				return false
			}
		}
		threadsBefore := a.SampThreads + a.LoadThreads + a.TrainThreads
		threadsAfter := out.SampThreads + out.LoadThreads + out.TrainThreads
		if threadsBefore != threadsAfter {
			return false
		}
		return out.AccelSampleFrac >= 0 && out.AccelSampleFrac <= 0.9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributeEdgeCases(t *testing.T) {
	distribute := New(64).distribute // one engine: its scratch is reused and regrown across the cases
	// Zero accelerators: a no-op, not a panic.
	distribute(nil, 100)
	distribute([]int{}, -100)

	// Proportional growth: a 3:1 fleet keeps its ratio.
	s := []int{300, 100}
	distribute(s, 40)
	if s[0] != 330 || s[1] != 110 {
		t.Fatalf("proportional add: %v", s)
	}

	// Proportional shedding conserves the delta exactly.
	s = []int{330, 110}
	distribute(s, -40)
	if s[0]+s[1] != 400 {
		t.Fatalf("shed lost targets: %v", s)
	}

	// A share that would go negative is clamped at zero and the remainder
	// drains from the bigger shares — nothing is silently lost.
	s = []int{500, 10}
	distribute(s, -100)
	if s[0]+s[1] != 410 {
		t.Fatalf("clamped shed lost targets: %v (sum %d, want 410)", s, s[0]+s[1])
	}
	if s[0] < 0 || s[1] < 0 {
		t.Fatalf("negative share: %v", s)
	}

	// Shedding more than the fleet holds empties it and stops.
	s = []int{5, 3}
	distribute(s, -100)
	if s[0] != 0 || s[1] != 0 {
		t.Fatalf("over-shed: %v", s)
	}

	// All-zero shares with growth fall back to a uniform split.
	s = []int{0, 0, 0}
	distribute(s, 9)
	if s[0]+s[1]+s[2] != 9 {
		t.Fatalf("zero-fleet add: %v", s)
	}
}

// Regression: a device whose share hit zero must not be starved forever —
// growth moves hand it at least a trickle so its measurements (and its
// proportional weight) come back.
func TestDistributeRevivesZeroedShare(t *testing.T) {
	distribute := New(64).distribute
	s := []int{0, 640}
	distribute(s, 64)
	if s[0] == 0 {
		t.Fatalf("zeroed share never revived: %v", s)
	}
	if s[0]+s[1] != 704 {
		t.Fatalf("revival lost targets: %v", s)
	}
}

// The intra-fleet move: with per-device measurements showing one straggler,
// work must flow from the slow device to the fast one, conserving the total.
func TestBalanceAccelsMovesWorkToFastDevice(t *testing.T) {
	e := New(128)
	a := baseAssign()
	st := perfmodel.StageTimes{
		SampCPU: 1, Load: 1, Trans: 1, TrainAcc: 3, TrainCPU: 1,
		PerAccel: []perfmodel.DeviceStage{
			{Train: 3}, {Train: 1}, {Train: 1}, {Train: 1},
		},
	}
	out := e.Adjust(0, st, a)
	if out.AccelBatch[0] >= a.AccelBatch[0] {
		t.Fatalf("straggler share should shrink: %v", out.AccelBatch)
	}
	if out.AccelBatch[1] <= a.AccelBatch[1] {
		t.Fatalf("fast device share should grow: %v", out.AccelBatch)
	}
	if out.TotalBatch() != a.TotalBatch() {
		t.Fatal("total batch not conserved")
	}
}

// Without per-device data (legacy producers) Adjust must behave exactly as
// the aggregate algorithm — no intra-fleet move is possible.
func TestBalanceAccelsNeedsPerDeviceData(t *testing.T) {
	e := New(128)
	a := baseAssign()
	st := perfmodel.StageTimes{SampCPU: 1, Load: 1, Trans: 1, TrainCPU: 1, TrainAcc: 1}
	out := e.Adjust(0, st, a)
	for i := range out.AccelBatch {
		if out.AccelBatch[i] != a.AccelBatch[i] {
			t.Fatalf("shares moved without per-device data: %v", out.AccelBatch)
		}
	}
}

// Regression: on a mixed GPU+FPGA fleet started from a naive uniform split,
// iterating DRM against the analytic per-device stages must narrow the
// max/min per-device stage-time ratio into the hysteresis band.
func TestDRMConvergesUnequalDevices(t *testing.T) {
	plat, err := hw.HeteroPlatform(hw.GPU, hw.GPU, hw.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	m, err := perfmodel.New(plat, perfmodel.DefaultWorkload(datagen.OGBNProducts, gnn.SAGE))
	if err != nil {
		t.Fatal(err)
	}
	a := perfmodel.Assignment{
		CPUBatch:    0,
		AccelBatch:  []int{1024, 1024, 1024}, // uniform across unequal devices
		SampThreads: 43, LoadThreads: 43, TrainThreads: 42,
	}
	ratio := func(a perfmodel.Assignment) float64 {
		per := m.Stages(a).PerAccel
		lo, hi := math.Inf(1), 0.0
		for _, d := range per {
			if d.Busy() <= 0 {
				continue
			}
			lo = math.Min(lo, d.Busy())
			hi = math.Max(hi, d.Busy())
		}
		return hi / lo
	}
	start := ratio(a)
	if start < 1.2 {
		t.Fatalf("test premise broken: uniform split already balanced (ratio %v)", start)
	}
	e := New(128)
	for i := 0; i < 60; i++ {
		a = e.Adjust(i, m.Stages(a), a)
	}
	end := ratio(a)
	if end >= start {
		t.Fatalf("DRM did not narrow the device imbalance: %v -> %v", start, end)
	}
	// Converged into (or near) the hysteresis band.
	if end > 1+2*tolerance {
		t.Fatalf("unequal-device stage times did not converge: ratio %v", end)
	}
	if a.TotalBatch() != 3*1024 {
		t.Fatalf("global batch not conserved: %d", a.TotalBatch())
	}
}

// End-to-end: running the simulator with the DRM engine must not be slower
// than the static mapping, and should help on every paper dataset
// (the Fig. 11 "Hybrid+DRM ≥ Hybrid(static)" ordering).
func TestDRMImprovesOverStatic(t *testing.T) {
	for _, spec := range datagen.PaperSpecs() {
		m, err := perfmodel.New(hw.CPUFPGAPlatform(), perfmodel.DefaultWorkload(spec, gnn.GCN))
		if err != nil {
			t.Fatal(err)
		}
		static, err := pipesim.Run(pipesim.Config{
			Model: m, Mode: pipesim.Mode{Hybrid: true}, Seed: 5, Iterations: 80})
		if err != nil {
			t.Fatal(err)
		}
		eng := New(m.Plat.TotalCPUCores())
		eng.FusedPrefetch = true // pre-TFP pipeline: Load and Trans are one stage
		withDRM, err := pipesim.Run(pipesim.Config{
			Model: m, Mode: pipesim.Mode{Hybrid: true, DRM: true},
			Ctrl: eng, Seed: 5, Iterations: 80})
		if err != nil {
			t.Fatal(err)
		}
		if withDRM.EpochSec > static.EpochSec*1.02 {
			t.Errorf("%s: DRM %.4fs worse than static %.4fs",
				spec.Name, withDRM.EpochSec, static.EpochSec)
		}
	}
}

// The DRM engine must absorb a mis-calibrated initial mapping: start with
// everything on the accelerators and verify it converges toward the
// balanced optimum.
func TestDRMRecoversFromBadMapping(t *testing.T) {
	m, err := perfmodel.New(hw.CPUFPGAPlatform(), perfmodel.DefaultWorkload(datagen.MAG240MHomo, gnn.GCN))
	if err != nil {
		t.Fatal(err)
	}
	bad := perfmodel.Assignment{
		CPUBatch:    64,
		AccelBatch:  []int{1008, 1008, 1008, 1008},
		SampThreads: 43, LoadThreads: 43, TrainThreads: 42,
	}
	e := New(128)
	a := bad.Clone()
	for i := 0; i < 100; i++ {
		a = e.Adjust(i, m.Stages(a), a)
	}
	good := m.InitialAssignment(true)
	tuned := m.IterTime(a)
	optimal := m.IterTime(good)
	naive := m.IterTime(bad)
	if tuned > naive {
		t.Fatalf("DRM made things worse: %v > %v", tuned, naive)
	}
	if tuned > optimal*1.25 {
		t.Fatalf("DRM stuck far from optimum: tuned %v, optimal %v", tuned, optimal)
	}
}

// Adjust's bookkeeping (stage vector, ranking) lives in fixed arrays, and the
// assignment it returns and a work move's apportioning live in storage the
// engine owns: once the first call has sized that storage, the hysteresis
// no-op, a thread move, a sampling move and a work move all allocate nothing.
func TestAdjustSteadyStateZeroAlloc(t *testing.T) {
	a := baseAssign()
	for _, tc := range []struct {
		name     string
		st       perfmodel.StageTimes
		workMove bool
	}{
		{"balanced", perfmodel.StageTimes{SampCPU: 1, Load: 1, Trans: 1, TrainCPU: 1, TrainAcc: 1}, false},
		{"thread-move", perfmodel.StageTimes{SampCPU: 0.5, Load: 3, Trans: 1, TrainAcc: 1, TrainCPU: 1}, false},
		{"sampling-move", perfmodel.StageTimes{SampCPU: 3, SampAccel: 0.1, Load: 1, Trans: 0.5, TrainAcc: 0.8, TrainCPU: 1}, false},
		{"work-move", perfmodel.StageTimes{SampCPU: 0.5, Load: 1, Trans: 1, TrainAcc: 3, TrainCPU: 1}, true},
	} {
		e := New(128)
		if got := testing.AllocsPerRun(100, func() { e.Adjust(0, tc.st, a) }); got != 0 {
			t.Errorf("%s: Adjust allocated %.0f times per call, want 0", tc.name, got)
		}
		if tc.workMove && e.MovesWork == 0 {
			t.Errorf("%s: no work move happened", tc.name)
		}
	}
}

// The assignment Adjust returns shares its AccelBatch with the engine; the
// input must still be left alone, and feeding the result back in — the epoch
// loop's use — must behave exactly like feeding in a private copy of it.
func TestAdjustResultAliasing(t *testing.T) {
	st := perfmodel.StageTimes{SampCPU: 0.5, Load: 1, Trans: 1, TrainAcc: 3, TrainCPU: 1}
	a := baseAssign()
	before := a.Clone()
	fed, cloned := New(128), New(128)
	x, y := fed.Adjust(0, st, a), cloned.Adjust(0, st, a).Clone()
	if !reflect.DeepEqual(a, before) {
		t.Fatalf("Adjust modified its input: %+v, was %+v", a, before)
	}
	for i := 1; i < 20; i++ {
		x, y = fed.Adjust(i, st, x), cloned.Adjust(i, st, y).Clone()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("iteration %d: fed-back result %+v, private copy %+v", i, x, y)
		}
	}
	if fed.MovesWork < 2 {
		t.Fatalf("only %d work moves: the aliased path was not exercised", fed.MovesWork)
	}
}

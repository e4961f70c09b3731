package pipesim

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/perfmodel"
)

func model(t *testing.T, plat hw.Platform, spec datagen.Spec, kind gnn.Kind) *perfmodel.Model {
	t.Helper()
	m, err := perfmodel.New(plat, perfmodel.DefaultWorkload(spec, kind))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("expected error for nil model")
	}
}

func TestRunBasic(t *testing.T) {
	m := model(t, hw.CPUFPGAPlatform(), datagen.OGBNProducts, gnn.GCN)
	res, err := Run(Config{Model: m, Mode: Mode{Hybrid: true, TFP: true}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochSec <= 0 {
		t.Fatal("non-positive epoch time")
	}
	if len(res.IterSec) != m.Iterations(m.InitialAssignment(true)) {
		t.Fatalf("iterations = %d", len(res.IterSec))
	}
	if res.MTEPS <= 0 {
		t.Fatal("non-positive throughput")
	}
	var sum float64
	for _, it := range res.IterSec {
		sum += it
	}
	if math.Abs(sum-res.EpochSec) > 1e-9 {
		t.Fatalf("iteration deltas %v do not sum to epoch %v", sum, res.EpochSec)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	m := model(t, hw.CPUFPGAPlatform(), datagen.OGBNProducts, gnn.GCN)
	a, _ := Run(Config{Model: m, Mode: Mode{Hybrid: true}, Seed: 7, Iterations: 20})
	b, _ := Run(Config{Model: m, Mode: Mode{Hybrid: true}, Seed: 7, Iterations: 20})
	if a.EpochSec != b.EpochSec {
		t.Fatal("simulation not deterministic for fixed seed")
	}
	c, _ := Run(Config{Model: m, Mode: Mode{Hybrid: true}, Seed: 8, Iterations: 20})
	if a.EpochSec == c.EpochSec {
		t.Fatal("different seeds produced identical noise")
	}
}

// sequentialSec is what the simulated iterations would take with no
// inter-stage overlap: each one sample → load → transfer → train, start to
// finish, before the next begins.
func sequentialSec(res *Result, tfp bool) float64 {
	var sum float64
	for _, st := range res.Trace {
		sum += perfmodel.Pipeline{TFP: tfp}.Serial(st)
	}
	return sum
}

// Overlapped execution must beat strictly sequential execution.
func TestPipeliningBeatsSequential(t *testing.T) {
	m := model(t, hw.CPUFPGAPlatform(), datagen.OGBNPapers100M, gnn.GCN)
	piped, err := Run(Config{Model: m, Mode: Mode{Hybrid: true}, Seed: 1, Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if seq := sequentialSec(piped, false); piped.EpochSec >= seq {
		t.Fatalf("pipelined %v not faster than sequential %v", piped.EpochSec, seq)
	}
}

// TFP must not hurt, and must help when the fused prefetch stage is the
// bottleneck (paper §IV-B / Fig. 11). MAG240M's 756-wide features make
// prefetching dominant, so the effect is visible there.
func TestTFPHelpsWhenPrefetchBound(t *testing.T) {
	// Accelerator-only training makes the feature-prefetch path (Load +
	// Trans) the clear bottleneck, which is where splitting it pays off.
	m := model(t, hw.CPUFPGAPlatform(), datagen.MAG240MHomo, gnn.GCN)
	fused, err := Run(Config{Model: m, Mode: Mode{Hybrid: false}, Seed: 2, Iterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	split, err := Run(Config{Model: m, Mode: Mode{Hybrid: false, TFP: true}, Seed: 2, Iterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	if split.EpochSec >= fused.EpochSec {
		t.Fatalf("TFP did not help on a prefetch-bound workload: %v vs %v",
			split.EpochSec, fused.EpochSec)
	}
}

// The simulator must run slower than the analytic prediction (it charges
// overheads the model omits) but within a sane factor — the Fig. 8 regime.
func TestSimulatorSlowerThanModelWithinBand(t *testing.T) {
	for _, kind := range []gnn.Kind{gnn.GCN, gnn.SAGE} {
		m := model(t, hw.CPUFPGAPlatform(), datagen.MAG240MHomo, kind)
		a := m.InitialAssignment(true)
		predicted := m.EpochTime(a)
		res, err := Run(Config{Model: m, Mode: Mode{Hybrid: true, TFP: true}, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		ratio := res.EpochSec / predicted
		if ratio < 1.0 {
			t.Fatalf("%v: simulated %v faster than predicted %v", kind, res.EpochSec, predicted)
		}
		if ratio > 1.35 {
			t.Fatalf("%v: simulated/predicted = %.2f, outside the paper's error regime", kind, ratio)
		}
	}
}

// A controller that is invoked must see monotonically increasing iteration
// indices and be able to steer the assignment.
type recordingCtrl struct {
	calls []int
	last  perfmodel.Assignment
}

func (r *recordingCtrl) Adjust(i int, _ perfmodel.StageTimes, a perfmodel.Assignment) perfmodel.Assignment {
	r.calls = append(r.calls, i)
	r.last = a
	return a
}

func TestControllerInvoked(t *testing.T) {
	m := model(t, hw.CPUFPGAPlatform(), datagen.OGBNProducts, gnn.GCN)
	ctrl := &recordingCtrl{}
	_, err := Run(Config{Model: m, Mode: Mode{Hybrid: true, DRM: true}, Ctrl: ctrl, Seed: 1, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ctrl.calls) != 10 {
		t.Fatalf("controller called %d times, want 10", len(ctrl.calls))
	}
	for i, c := range ctrl.calls {
		if c != i {
			t.Fatal("controller iteration indices wrong")
		}
	}
	// DRM off → controller ignored.
	ctrl2 := &recordingCtrl{}
	_, err = Run(Config{Model: m, Mode: Mode{Hybrid: true}, Ctrl: ctrl2, Seed: 1, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ctrl2.calls) != 0 {
		t.Fatal("controller called with DRM disabled")
	}
}

func TestZeroNoiseIsExactlyStable(t *testing.T) {
	m := model(t, hw.CPUFPGAPlatform(), datagen.OGBNProducts, gnn.GCN)
	res, err := Run(Config{Model: m, Mode: Mode{Hybrid: true, TFP: true}, Seed: 1, Iterations: 30, NoiseStd: -1})
	if err != nil {
		t.Fatal(err)
	}
	// After pipeline fill, steady-state iteration deltas are identical.
	for i := 5; i < len(res.IterSec); i++ {
		if math.Abs(res.IterSec[i]-res.IterSec[4]) > 1e-12 {
			t.Fatalf("iteration %d delta %v differs from steady state %v",
				i, res.IterSec[i], res.IterSec[4])
		}
	}
}

func TestResultTrace(t *testing.T) {
	m := model(t, hw.CPUFPGAPlatform(), datagen.OGBNProducts, gnn.GCN)
	res, err := Run(Config{Model: m, Mode: Mode{Hybrid: true}, Seed: 1, Iterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 15 {
		t.Fatalf("trace length %d, want 15", len(res.Trace))
	}
	for i, st := range res.Trace {
		if st.Bottleneck() <= 0 {
			t.Fatalf("iteration %d has empty stage times", i)
		}
	}
}

// Property: the pipelined epoch is never longer than the sequential one and
// never shorter than the slowest stage sum — the max-plus recurrence bounds.
func TestPipelineBounds(t *testing.T) {
	for _, spec := range datagen.PaperSpecs() {
		for _, kind := range []gnn.Kind{gnn.GCN, gnn.SAGE} {
			m := model(t, hw.CPUFPGAPlatform(), spec, kind)
			const iters = 40
			piped, err := Run(Config{Model: m, Mode: Mode{Hybrid: true, TFP: true}, Seed: 9, Iterations: iters, NoiseStd: -1})
			if err != nil {
				t.Fatal(err)
			}
			if seq := sequentialSec(piped, true); piped.EpochSec > seq+1e-12 {
				t.Fatalf("%s/%v: pipelined %v exceeds sequential %v", spec.Name, kind, piped.EpochSec, seq)
			}
			// Lower bound: iters × bottleneck stage (steady state can't beat it).
			st := m.Stages(m.InitialAssignment(true))
			if piped.EpochSec < float64(iters)*st.Bottleneck() {
				t.Fatalf("%s/%v: pipelined %v beats the bottleneck bound %v",
					spec.Name, kind, piped.EpochSec, float64(iters)*st.Bottleneck())
			}
		}
	}
}

func TestHybridBeatsAccelOnlyInSim(t *testing.T) {
	m := model(t, hw.CPUFPGAPlatform(), datagen.OGBNPapers100M, gnn.GCN)
	hyb, _ := Run(Config{Model: m, Mode: Mode{Hybrid: true}, Seed: 4, Iterations: 50})
	only, _ := Run(Config{Model: m, Mode: Mode{Hybrid: false}, Seed: 4, Iterations: 50})
	if hyb.EpochSec >= only.EpochSec {
		t.Fatalf("hybrid %v not faster than accel-only %v", hyb.EpochSec, only.EpochSec)
	}
}

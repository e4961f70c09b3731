package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gnn"
	"repro/internal/perfmodel"
)

// core_test.go's fill allowance and the clock tests below name the barrier
// the way the runtime used to; production code spells it
// perfmodel.RuntimeBarrierSec only.
const runtimeBarrierSec = perfmodel.RuntimeBarrierSec

// The pipeline clock is its own layer: feed it a known stage sequence and
// check the max-plus recurrence directly, without any engine around it.
func TestPipelineClockMaxPlus(t *testing.T) {
	c := perfmodel.Pipeline{}
	st := perfmodel.StageTimes{SampCPU: 10, Load: 1, TrainCPU: 5}
	// Stage times: samp=10+b, load=1+b, prop=5+b (b = barrier).
	c.Advance(st)
	first := c.Now()
	want := 16 + 3*runtimeBarrierSec
	if math.Abs(first-want) > 1e-12 {
		t.Fatalf("fill iteration: got %v, want %v", first, want)
	}
	// Steady state: each further iteration costs the bottleneck stage (samp).
	c.Advance(st)
	if d := c.Now() - first; math.Abs(d-(10+runtimeBarrierSec)) > 1e-12 {
		t.Fatalf("steady-state iteration: got %v, want bottleneck %v", d, 10+runtimeBarrierSec)
	}
}

// A networked clock overlaps NetFetch with local stages (it only costs time
// when it is the bottleneck) and serialises NetSync into propagation.
func TestPipelineClockNetworkStages(t *testing.T) {
	iter := func(netFetch, netSync float64) float64 {
		c := perfmodel.Pipeline{TFP: true, Networked: true}
		st := perfmodel.StageTimes{SampCPU: 10, Load: 1, Trans: 1, TrainCPU: 5,
			NetFetch: netFetch, NetSync: netSync}
		c.Advance(st) // fill
		before := c.Now()
		c.Advance(st)
		return c.Now() - before
	}
	base := iter(0, 0)
	// A sub-bottleneck fetch is hidden by the pipeline.
	if got := iter(5, 0); math.Abs(got-base) > 1e-12 {
		t.Fatalf("overlapped NetFetch leaked into the clock: %v vs %v", got, base)
	}
	// A super-bottleneck fetch becomes the pipeline bottleneck.
	if got := iter(20, 0); math.Abs(got-20) > 1e-9 {
		t.Fatalf("bottleneck NetFetch: steady iteration %v, want 20", got)
	}
	// NetSync is serial: it extends the propagation stage.
	if got := iter(0, 7); math.Abs(got-(5+7+runtimeBarrierSec)) > 1e-9 {
		t.Fatalf("NetSync not serialised: %v", got)
	}
}

// Zero-valued network stages must leave a networked clock identical to the
// single-node one — a 1-node multi-node run keeps the single-node timing.
func TestNetworkedClockDegenerates(t *testing.T) {
	a := perfmodel.Pipeline{TFP: true}
	b := perfmodel.Pipeline{TFP: true, Networked: true}
	st := perfmodel.StageTimes{SampCPU: 3, Load: 2, Trans: 4, TrainCPU: 5, Sync: 1}
	for i := 0; i < 5; i++ {
		a.Advance(st)
		b.Advance(st)
	}
	if a.Now() != b.Now() {
		t.Fatalf("networked clock with zero net stages drifted: %v vs %v", a.Now(), b.Now())
	}
}

// stubExecutor swaps in for the hybrid pipeline — the layering contract that
// lets epoch orchestration be tested without sampling or training.
type stubExecutor struct {
	st    perfmodel.StageTimes
	calls int
}

// prepare parks the targets and the stub's stage vector on the slot; compute
// turns them into the iteration result.
func (s *stubExecutor) prepare(sl *iterSlot, targets []int32) error {
	if len(sl.shares) != 1 {
		sl.shares = make([][]int32, 1)
	}
	sl.shares[0], sl.st = targets, s.st
	return nil
}

func (s *stubExecutor) compute(sl *iterSlot) (*IterResult, error) {
	s.calls++
	n := len(sl.shares[0])
	return &IterResult{
		Stage: sl.st, LossSum: 2 * float64(n),
		Correct: float64(n), Targets: n, Edges: 100,
	}, nil
}

// failingSync mimics a dead multi-node ring: the epoch loop must surface
// its error instead of applying a half-reduced gradient.
type failingSync struct{ err error }

func (s failingSync) Reduce(g *gnn.Gradients) (*gnn.Gradients, float64, error) {
	return nil, 0, s.err
}

func TestRunEpochSurfacesSyncError(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Sync = failingSync{err: errors.New("peer node died")}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunEpoch(); err == nil || err.Error() != "peer node died" {
		t.Fatalf("RunEpoch returned %v, want the sync error", err)
	}
}

func TestRunEpochWithSwappedExecutor(t *testing.T) {
	e, err := NewEngine(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubExecutor{st: perfmodel.StageTimes{SampCPU: 1, TrainCPU: 1}}
	e.exec = stub
	st, err := e.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stub.calls != st.Iterations || stub.calls == 0 {
		t.Fatalf("executor called %d times for %d iterations", stub.calls, st.Iterations)
	}
	if math.Abs(st.Loss-2) > 1e-9 || math.Abs(st.Accuracy-1) > 1e-9 {
		t.Fatalf("orchestrator mis-aggregated stub stats: %+v", st)
	}
	if st.VirtualSec <= 0 {
		t.Fatal("clock did not advance on stub stage times")
	}
}

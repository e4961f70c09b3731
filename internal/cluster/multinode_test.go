package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// The ring all-reduce must compute the exact element-wise average, for any
// node count and vector length (including vectors shorter than the ring),
// and match the sequential ring oracle bit for bit.
func TestRingAllReduceAverages(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7} {
		view := make([]int, n)
		for r := range view {
			view[r] = r
		}
		for _, m := range []int{1, 3, 64, 1000} {
			vecs := make([][]float32, n)
			want := make([]float32, m)
			for r := range vecs {
				vecs[r] = make([]float32, m)
				for i := range vecs[r] {
					vecs[r][i] = float32(r*m + i)
					want[i] += vecs[r][i] / float32(n)
				}
			}
			oracle := simulateRing(vecs, view)
			rg := newRing(n, hw.Ethernet100G(), nil)
			var wg sync.WaitGroup
			secs := make([]float64, n)
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					var err error
					secs[r], err = rg.allReduce(r, 0, vecs[r])
					if err != nil {
						t.Errorf("rank %d: %v", r, err)
					}
				}(r)
			}
			wg.Wait()
			for r := 0; r < n; r++ {
				for i := range want {
					if math.Abs(float64(vecs[r][i]-want[i])) > 1e-3 {
						t.Fatalf("n=%d m=%d rank %d elem %d: got %v want %v",
							n, m, r, i, vecs[r][i], want[i])
					}
					if vecs[r][i] != oracle[r][i] {
						t.Fatalf("n=%d m=%d rank %d elem %d: got %x, sequential oracle %x",
							n, m, r, i, vecs[r][i], oracle[r][i])
					}
				}
				if n > 1 && secs[r] <= 0 {
					t.Fatalf("n=%d rank %d charged no network time", n, r)
				}
				if n == 1 && secs[r] != 0 {
					t.Fatalf("single rank charged %v", secs[r])
				}
			}
		}
	}
}

// A ring round reuses its wire format: each rank's flat gradient vector stays
// on its nodeSync and consumed chunks go back to the senders through the
// ring's free list, so once the first round has sized them a round allocates
// nothing. The second rank lives on one goroutine for the whole test, so the
// count is the round's own (AllocsPerRun counts every goroutine's mallocs).
func TestRingWarmRoundZeroAlloc(t *testing.T) {
	rg := newRing(2, hw.Ethernet100G(), nil)
	params := gnn.NewParameters(gnn.Config{Kind: gnn.SAGE, Dims: []int{16, 16, 5}}, tensor.NewRNG(3))
	syncs := [2]*nodeSync{}
	grads := [2]*gnn.Gradients{}
	for r := range syncs {
		syncs[r] = &nodeSync{rank: r, ring: rg, failIter: -1, crashIter: -1}
		grads[r] = gnn.NewGradients(params)
		grads[r].Weights[0].Fill(float32(r + 1))
	}
	reduce := func(r int) {
		if _, _, err := syncs[r].Reduce(grads[r]); err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	start, done := make(chan struct{}), make(chan struct{})
	go func() {
		for range start {
			reduce(1)
			done <- struct{}{}
		}
	}()
	defer close(start)
	round := func() {
		start <- struct{}{}
		reduce(0)
		<-done
	}
	round() // sizes the flat vectors and the message buffers
	if got, want := grads[0].Weights[0].Data[0], float32(1.5); got != want {
		t.Fatalf("two-rank mean of 1 and 2 = %v, want %v", got, want)
	}
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Fatalf("a warm two-rank ring round allocates %v times, want 0", a)
	}
}

// A dead peer must unblock the survivors with errRingAborted instead of
// deadlocking them — the failure mode of a fleet whose node dies mid-epoch.
// Survivors can be parked in either of two places: the membership barrier
// (the peer never entered the round) or a chunk receive (the peer entered,
// then died before sending).
func TestRingAbortReleasesSurvivors(t *testing.T) {
	const n = 4
	cases := map[string]func(rg *ring){
		"in-barrier": func(rg *ring) { rg.fail() },
		"mid-round": func(rg *ring) {
			if _, err := rg.enter(); err != nil {
				t.Errorf("rank 0 entering the round: %v", err)
			}
			rg.fail()
		},
	}
	for name, rank0 := range cases {
		t.Run(name, func(t *testing.T) {
			rg := newRing(n, hw.Ethernet100G(), nil)
			errs := make(chan error, n-1)
			for r := 1; r < n; r++ {
				go func(r int) {
					vec := make([]float32, 64)
					_, err := rg.allReduce(r, 0, vec)
					errs <- err
				}(r)
			}
			done := make(chan struct{})
			go func() { // rank 0 dies instead of reducing
				defer close(done)
				rank0(rg)
			}()
			for i := 0; i < n-1; i++ {
				if err := <-errs; err != errRingAborted {
					t.Errorf("survivor got %v, want errRingAborted", err)
				}
			}
			<-done
		})
	}
}

func multiDataset(t *testing.T, seed uint64) *datagen.Dataset {
	t.Helper()
	spec := datagen.Spec{Name: "multi-test", NumVertices: 3000, NumEdges: 18000,
		FeatDims: []int{16, 16, 5}, TrainNodes: 1500}
	ds, err := datagen.Materialize(spec, 0.5, tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func multiConfig(t *testing.T, nodes int, ds *datagen.Dataset) MultiNodeConfig {
	t.Helper()
	plat := hw.CPUFPGAPlatform()
	plat.Accels = plat.Accels[:2]
	return MultiNodeConfig{
		Nodes: nodes,
		Net:   hw.Ethernet100G(),
		Node: core.Config{
			Plat:      plat,
			Data:      ds,
			Model:     gnn.Config{Kind: gnn.SAGE, Dims: []int{16, 16, 5}},
			LR:        0.3,
			BatchSize: 64,
			Fanouts:   []int{5, 5},
			Hybrid:    true,
			TFP:       true,
			DRM:       true,
			Seed:      7,
		},
	}
}

func TestMultiNodeConfigValidation(t *testing.T) {
	ds := multiDataset(t, 1)
	cfg := multiConfig(t, 0, ds)
	if _, err := NewMultiNode(cfg); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
	cfg = multiConfig(t, 4, ds)
	cfg.Net = hw.Link{}
	if _, err := NewMultiNode(cfg); err == nil {
		t.Fatal("expected error for missing network")
	}
	cfg = multiConfig(t, 2, ds)
	cfg.Node.Locator = &shardLocator{}
	if _, err := NewMultiNode(cfg); err == nil {
		t.Fatal("expected error for pre-wired locator")
	}
	cfg = multiConfig(t, 2, ds)
	cfg.Plats = []hw.Platform{cfg.Node.Plat}
	if _, err := NewMultiNode(cfg); err == nil {
		t.Fatal("expected error for platform/node count mismatch")
	}
	cfg = multiConfig(t, 2, ds)
	cfg.Plats = []hw.Platform{cfg.Node.Plat, hw.CPUFPGAPlatform()} // 2 vs 4 accels
	if _, err := NewMultiNode(cfg); err == nil {
		t.Fatal("expected error for unequal per-node accelerator counts")
	}
}

// A heterogeneous cluster: one CPU+GPU+FPGA node next to a CPU+FPGA node.
// The ring protocol is platform-blind, so the fleet must stay bit-identical
// across nodes while each node's virtual clock prices its own hardware.
func TestMultiNodeHeterogeneousNodes(t *testing.T) {
	mixed, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	homog := hw.CPUFPGAPlatform()
	homog.Accels = homog.Accels[:2]
	cfg := multiConfig(t, 2, multiDataset(t, 9))
	cfg.Plats = []hw.Platform{mixed, homog}
	m, err := NewMultiNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last *MultiNodeStats
	for i := 0; i < 2; i++ {
		if last, err = m.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if d := m.ReplicasInSync(); d != 0 {
		t.Fatalf("heterogeneous fleet diverged by %v", d)
	}
	if last.Loss <= 0 || last.VirtualSec <= 0 {
		t.Fatalf("implausible stats: %+v", last)
	}
	// Node 0 hosts the only FPGA-kind trainer driven through the dataflow
	// backend on a GPU-sibling fleet; both nodes must have executed.
	for i, st := range last.PerNode {
		if st.Iterations != last.Iterations {
			t.Fatalf("node %d ran %d iterations, fleet ran %d", i, st.Iterations, last.Iterations)
		}
	}
	if last.PerNode[0].FPGA.AggCycles <= 0 {
		t.Fatal("mixed node's FPGA dataflow backend did not execute")
	}
	if last.PerNode[1].FPGA.AggCycles <= 0 {
		t.Fatal("homogeneous FPGA node's dataflow backend did not execute")
	}
}

// The headline protocol property: 4 executed shards with real gradient
// exchange stay bit-identical across nodes AND inside each node's fleet,
// converge, and pay real network charges on the virtual clock.
func TestMultiNodeExecutesAndStaysInSync(t *testing.T) {
	m, err := NewMultiNode(multiConfig(t, 4, multiDataset(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if m.ReplicasInSync() != 0 {
		t.Fatal("fleet diverged at initialisation")
	}
	if cut := m.EdgeCut(); cut <= 0 || cut >= 1 {
		t.Fatalf("degenerate measured edge cut %v", cut)
	}
	var first, last *MultiNodeStats
	for i := 0; i < 6; i++ {
		st, err := m.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st
		}
		last = st
	}
	if d := m.ReplicasInSync(); d != 0 {
		t.Fatalf("fleet diverged by %v — cross-node synchronous SGD violated", d)
	}
	if last.Loss >= first.Loss*0.9 {
		t.Fatalf("sharded training did not converge: %.4f -> %.4f", first.Loss, last.Loss)
	}
	if last.NetFetchSec <= 0 || last.NetSyncSec <= 0 || last.RemoteRows <= 0 {
		t.Fatalf("4-node epoch paid no network charges: %+v", last)
	}
	if last.VirtualSec <= 0 || last.MTEPS <= 0 {
		t.Fatalf("virtual clock stalled: %+v", last)
	}
	for i, st := range last.PerNode {
		if st.Iterations != last.Iterations {
			t.Fatalf("node %d ran %d iterations, fleet %d — ring would deadlock",
				i, st.Iterations, last.Iterations)
		}
	}
}

// The schedule is a wall-clock choice on a fleet too: two 2-node runs with DRM
// on, one per Config.Pipeline value, must agree on every node's per-epoch
// loss, accuracy, virtual clock and task mapping and on every parameter, bit
// for bit — each node's prefetch worker reads a mapping that node's DRM
// moves only while the worker is idle.
func TestMultiNodeScheduleChangesNoNumber(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			var initial string // every node starts from the same design-phase mapping
			run := func(mode core.PipelineMode) (*MultiNode, []*MultiNodeStats) {
				cfg := multiConfig(t, 2, multiDataset(t, 5)) // DRM on
				cfg.Node.Pipeline = mode
				m, err := NewMultiNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				initial = fmt.Sprintf("%+v", m.Node(0).Assignment())
				stats := make([]*MultiNodeStats, 3)
				for i := range stats {
					if stats[i], err = m.RunEpoch(); err != nil {
						t.Fatal(err)
					}
				}
				return m, stats
			}
			ms, ss := run(core.PipelineSerial)
			mp, sp := run(core.PipelinePrefetch)
			moved := false
			for ep := range ss {
				for n, a := range ss[ep].PerNode {
					b := sp[ep].PerNode[n]
					if a.Loss != b.Loss || a.Accuracy != b.Accuracy || a.VirtualSec != b.VirtualSec || a.MTEPS != b.MTEPS {
						t.Fatalf("epoch %d node %d: serial %+v, prefetch %+v", ep+1, n, a, b)
					}
					sa, sb := fmt.Sprintf("%+v", a.Assignment), fmt.Sprintf("%+v", b.Assignment)
					if sa != sb {
						t.Fatalf("epoch %d node %d: task mapping %s under serial, %s under prefetch", ep+1, n, sa, sb)
					}
					moved = moved || sa != initial
				}
			}
			if !moved {
				t.Fatal("DRM never moved a node's mapping: the case compared two static runs")
			}
			for n := 0; n < 2; n++ {
				pa, pb := ms.Node(n).Params(), mp.Node(n).Params()
				for l := range pa.Weights {
					if !pa.Weights[l].Equal(pb.Weights[l]) || !pa.Biases[l].Equal(pb.Biases[l]) {
						t.Fatalf("node %d layer %d parameters diverged bitwise", n, l)
					}
				}
			}
		})
	}
}

// A 1-node MultiNode is the degenerate case: identical numerics and identical
// virtual clock to a plain single-node engine (the network layers must add
// exactly nothing).
func TestOneNodeMatchesPlainEngine(t *testing.T) {
	ds := multiDataset(t, 3)
	cfg := multiConfig(t, 1, ds)
	cfg.Node.DRM = false
	m, err := NewMultiNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.NewEngine(func() core.Config {
		c := cfg.Node
		c.Data = multiDataset(t, 3) // fresh copy: same seed → identical dataset
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ms, err := m.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		ps, err := plain.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		// The trainer pool folds in rank order, so the loss is exact too.
		if ms.Loss != ps.Loss {
			t.Fatalf("epoch %d: loss %v vs plain %v", i, ms.Loss, ps.Loss)
		}
		if ms.VirtualSec != ps.VirtualSec {
			t.Fatalf("epoch %d: virtual clock %v vs plain %v", i, ms.VirtualSec, ps.VirtualSec)
		}
		if ms.NetFetchSec != 0 || ms.NetSyncSec != 0 || ms.RemoteRows != 0 {
			t.Fatalf("1-node run paid network charges: %+v", ms)
		}
	}
}

// The acceptance gate: the executed multi-node slowdown (per-iteration
// virtual time at N nodes over 1 node) must land in a tolerance band around
// the analytic cluster model's prediction for the same configuration. This
// is what turns the repo's largest untested claim — multi-node communication
// erosion — into a measured property.
func TestExecutedSlowdownMatchesAnalytic(t *testing.T) {
	perIter := func(nodes int) (float64, *MultiNodeStats, *MultiNode) {
		ds := multiDataset(t, 4)
		cfg := multiConfig(t, nodes, ds)
		cfg.Node.DRM = false // compare against the static analytic assignment
		m, err := NewMultiNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Epoch 1 fills the pipeline; measure epoch 2's steady state.
		if _, err := m.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		st, err := m.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		return st.VirtualSec / float64(st.Iterations), st, m
	}
	exec1, _, _ := perIter(1)
	execN, stN, mN := perIter(4)
	execSlow := execN / exec1

	pred, err := EpochTime(mN.Analytic())
	if err != nil {
		t.Fatal(err)
	}
	predSlow := PredictedSlowdown(pred, exec1)

	if execSlow < 1 {
		t.Fatalf("multi-node executed FASTER per iteration (%.3fx) — network charges missing", execSlow)
	}
	if predSlow <= 1 {
		t.Fatalf("analytic model predicts no erosion (%.3fx)", predSlow)
	}
	// The executed all-reduce must reproduce the analytic ring cost (same
	// primitive, chunk rounding aside).
	gotSync := stN.NetSyncSec / float64(stN.Iterations)
	if gotSync < 0.5*pred.GlobalSync || gotSync > 2*pred.GlobalSync {
		t.Fatalf("executed all-reduce %.3gs/iter vs analytic %.3gs", gotSync, pred.GlobalSync)
	}
	// Remote fetches: the analytic side prices the expected batch through
	// the edge cut, the executed side counts actually-remote rows.
	gotFetch := stN.NetFetchSec / float64(stN.Iterations)
	if gotFetch < 0.3*pred.RemoteFetch || gotFetch > 3*pred.RemoteFetch {
		t.Fatalf("executed remote fetch %.3gs/iter vs analytic %.3gs", gotFetch, pred.RemoteFetch)
	}
	ratio := execSlow / predSlow
	t.Logf("slowdown: executed %.3fx, analytic %.3fx (ratio %.3f; cut %.2f; sync %.3g/%.3g fetch %.3g/%.3g)",
		execSlow, predSlow, ratio, mN.EdgeCut(), gotSync, pred.GlobalSync, gotFetch, pred.RemoteFetch)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("executed slowdown %.3fx outside tolerance band of analytic %.3fx",
			execSlow, predSlow)
	}
}

package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
)

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// trainSig runs epochs and folds every float the multi-node protocol reports
// into an exact hex-float signature — one differing bit anywhere in the run
// changes the string.
func trainSig(t *testing.T, m *MultiNode, epochs int) string {
	t.Helper()
	var b strings.Builder
	for e := 1; e <= epochs; e++ {
		st, err := m.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "epoch%d loss=%s acc=%s vsec=%s fetch=%s sync=%s mteps=%s iters=%d rows=%d\n",
			e, hexf(st.Loss), hexf(st.Accuracy), hexf(st.VirtualSec), hexf(st.NetFetchSec),
			hexf(st.NetSyncSec), hexf(st.MTEPS), st.Iterations, st.RemoteRows)
	}
	fmt.Fprintf(&b, "insync=%s\n", hexf(m.ReplicasInSync()))
	return b.String()
}

// goldenTrainSig pins the 4-node multiDataset(7)/multiConfig reference run
// (2 epochs) bit for bit. Any change to the fault plane that perturbs a
// fault-free run — a reordered reduction, an extra clock charge, a different
// gradient scale — lands here as a one-character diff. Re-recorded in PR 13
// (on 4a91e8d): the sampler draws its uniform k-subsets with Floyd's
// algorithm instead of Algorithm R, so every mini-batch holds different
// (equally likely) neighbours; the sync charge, which depends on the model
// size alone, did not move. Re-recorded when every c += a·b became one fused
// multiply-add at every SIMD level: only the losses moved.
const goldenTrainSig = "epoch1 loss=0x1.c0b103dcf5049p+00 acc=0x1.37d7635aa6cc8p-02 vsec=0x1.42783d09c835ep-08 fetch=0x1.ac2f95299ccabp-14 sync=0x1.1bfccdd5e827cp-11 mteps=0x1.ac073ffe1e5e1p+01 iters=3 rows=5666\n" +
	"epoch2 loss=0x1.a91acab9ee97ap-01 acc=0x1.9f8bf74c25b61p-01 vsec=0x1.27867492c4eb7p-08 fetch=0x1.ac28b5f1a654cp-14 sync=0x1.1bfccdd5e827cp-11 mteps=0x1.d397d2a5c92cdp+01 iters=3 rows=5663\n" +
	"insync=0x0p+00\n"

func mustParse(t *testing.T, spec string) *fault.Schedule {
	t.Helper()
	s, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The tentpole invariant, training plane: with no cluster fault events every
// code path is byte-identical to the pre-fault build — nil schedule, empty
// schedule, and a schedule holding only serving-plane events all reproduce
// the pinned golden bit for bit.
func TestEmptyClusterFaultByteIdentity(t *testing.T) {
	cases := []struct {
		name  string
		sched *fault.Schedule
	}{
		{"nil", nil},
		{"empty", &fault.Schedule{}},
		{"serving-only", mustParse(t, "fail,worker=1,at=0.05;slow,worker=0,from=0.01,to=0.02,factor=3")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := multiConfig(t, 4, multiDataset(t, 7))
			cfg.Faults = tc.sched
			m, err := NewMultiNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := trainSig(t, m, 2); got != goldenTrainSig {
				t.Fatalf("fault-free run diverged from golden:\ngot:\n%swant:\n%s", got, goldenTrainSig)
			}
			st, err := m.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if st.FailedNodes != 0 {
				t.Fatalf("fault-free run reports %d failed nodes", st.FailedNodes)
			}
		})
	}
}

// simulateRing replays allReduce's arithmetic sequentially: same chunk
// geometry, same own+received fold order, same float32 precision, same final
// 1/m scale. pre is indexed by position in view; the return value is what
// every position's vector must hold after the reduce, bit for bit.
func simulateRing(pre [][]float32, view []int) [][]float32 {
	m := len(view)
	vecs := make([][]float32, m)
	for p := range pre {
		vecs[p] = append([]float32(nil), pre[p]...)
	}
	if m <= 1 {
		return vecs
	}
	L := len(vecs[0])
	msgs := make([][]float32, m)        // indexed by receiving position
	for step := 0; step < m-1; step++ { // scatter-reduce
		for p := 0; p < m; p++ {
			lo, hi := chunkBounds(L, m, mod(p-step, m))
			msgs[mod(p+1, m)] = append([]float32(nil), vecs[p][lo:hi]...)
		}
		for p := 0; p < m; p++ {
			lo, _ := chunkBounds(L, m, mod(p-step-1, m))
			for i, v := range msgs[p] {
				vecs[p][lo+i] += v
			}
		}
	}
	for step := 0; step < m-1; step++ { // all-gather
		for p := 0; p < m; p++ {
			lo, hi := chunkBounds(L, m, mod(p-step+1, m))
			msgs[mod(p+1, m)] = append([]float32(nil), vecs[p][lo:hi]...)
		}
		for p := 0; p < m; p++ {
			lo, _ := chunkBounds(L, m, mod(p-step, m))
			copy(vecs[p][lo:], msgs[p])
		}
	}
	inv := 1 / float32(m)
	for p := range vecs {
		for i := range vecs[p] {
			vecs[p][i] *= inv
		}
	}
	return vecs
}

// The survivor re-ring oracle: a 4-node fleet loses rank 3 at ring round 4
// (mid-epoch 2). Every reduce — full-fleet rounds 0–3 and survivor rounds
// 4–5 — must match a sequential replay of the chunked ring bitwise, with the
// gradient mean rescaled to the live count (÷4 before the failure, ÷3 after).
// The epoch completes, the dead rank contributes nothing, and the survivors
// stay in perfect sync.
func TestSurvivorReRingOracle(t *testing.T) {
	cfg := multiConfig(t, 4, multiDataset(t, 7))
	cfg.Faults = mustParse(t, "fail,node=3,at=iter:4")
	m, err := NewMultiNode(cfg)
	if err != nil {
		t.Fatal(err)
	}

	type key struct{ rank, iter int }
	pres := map[key][]float32{}
	posts := map[key][]float32{}
	var mu sync.Mutex
	tap := func(rank, iter int, vec []float32, post bool) {
		mu.Lock()
		defer mu.Unlock()
		cp := append([]float32(nil), vec...)
		if post {
			posts[key{rank, iter}] = cp
		} else {
			pres[key{rank, iter}] = cp
		}
	}
	for _, s := range m.syncs {
		s.tap = tap
	}

	if _, err := m.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	st, err := m.RunEpoch()
	if err != nil {
		t.Fatalf("epoch with mid-run fail-stop did not complete: %v", err)
	}
	if st.FailedNodes != 1 {
		t.Fatalf("FailedNodes = %d, want 1", st.FailedNodes)
	}
	if st.PerNode[3] != nil {
		t.Fatal("dead rank contributed per-node stats to the failure epoch")
	}
	if st.Iterations != 3 {
		t.Fatalf("survivors ran %d iterations, want the full 3", st.Iterations)
	}
	if d := m.ReplicasInSync(); d != 0 {
		t.Fatalf("surviving fleet diverged by %v after the re-ring", d)
	}
	dead := m.dead
	if !dead[3] || dead[0] || dead[1] || dead[2] {
		t.Fatalf("dead mask %v, want only rank 3", dead)
	}

	// Oracle: rounds 0–3 ran the full view [0 1 2 3], rounds 4–5 the
	// survivor view [0 1 2].
	for iter := 0; iter < 6; iter++ {
		view := []int{0, 1, 2, 3}
		if iter >= 4 {
			view = []int{0, 1, 2}
		}
		pre := make([][]float32, len(view))
		for p, rk := range view {
			v, ok := pres[key{rk, iter}]
			if !ok {
				t.Fatalf("round %d: no pre-reduce tap for rank %d", iter, rk)
			}
			pre[p] = v
		}
		want := simulateRing(pre, view)
		for p, rk := range view {
			got := posts[key{rk, iter}]
			if got == nil {
				t.Fatalf("round %d: no post-reduce tap for rank %d", iter, rk)
			}
			if len(got) != len(want[p]) {
				t.Fatalf("round %d rank %d: vector length %d vs oracle %d", iter, rk, len(got), len(want[p]))
			}
			for i := range got {
				if got[i] != want[p][i] {
					t.Fatalf("round %d rank %d elem %d: got %x want %x — executed re-ring diverges from the sequential oracle",
						iter, rk, i, got[i], want[p][i])
				}
			}
		}
	}
	// The dead rank must not have participated past its departure round.
	for iter := 4; iter < 6; iter++ {
		if _, ok := pres[key{3, iter}]; ok {
			t.Fatalf("rank 3 reduced at round %d after its scripted fail-stop", iter)
		}
	}
}

// A scripted cluster fault schedule replays bit-exactly: two independent runs
// of the same fail-stop scenario produce identical signatures.
func TestClusterFaultReplayDeterminism(t *testing.T) {
	run := func() string {
		cfg := multiConfig(t, 4, multiDataset(t, 7))
		cfg.Faults = mustParse(t, "fail,node=2,at=iter:4;degrade,link,from=iter:0,to=iter:2,factor=4")
		m, err := NewMultiNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sig := trainSig(t, m, 2)
		st, err := m.RunEpoch() // one more epoch entirely on the survivor ring
		if err != nil {
			t.Fatal(err)
		}
		return sig + fmt.Sprintf("epoch3 loss=%s sync=%s failed=%d\n",
			hexf(st.Loss), hexf(st.NetSyncSec), st.FailedNodes)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("scripted fault replay diverged:\nrun A:\n%srun B:\n%s", a, b)
	}
	if !strings.Contains(a, "failed=1") {
		t.Fatalf("fail-stop not reflected in stats:\n%s", a)
	}
}

// Satellite 3: when a node hard-crashes, RunEpoch must surface the root cause
// — not the errRingAborted collateral the survivors report after the ring is
// torn down.
func TestCrashRootCauseAggregation(t *testing.T) {
	cfg := multiConfig(t, 4, multiDataset(t, 7))
	cfg.Faults = mustParse(t, "crash,node=1,at=iter:4")
	m, err := NewMultiNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunEpoch(); err != nil {
		t.Fatal(err) // rounds 0–2 are pre-crash
	}
	_, err = m.RunEpoch()
	if err == nil {
		t.Fatal("crashed fleet completed the epoch")
	}
	msg := err.Error()
	if !strings.Contains(msg, "node 1") || !strings.Contains(msg, "crashed") {
		t.Fatalf("error %q does not name the crashed node", msg)
	}
	if strings.Contains(msg, "aborted") {
		t.Fatalf("error %q reports survivor collateral instead of the root cause", msg)
	}
}

// Link degradation charges the scripted window — and only the window — on the
// virtual clock: epoch 1 (rounds 0–2, inside the 4× window) pays more
// all-reduce time than the healthy golden, epoch 2 (rounds 3–5, outside)
// matches the healthy sync charge bit for bit. The numerics are untouched:
// degradation scales a clock, not a gradient.
func TestLinkDegradeWindow(t *testing.T) {
	cfg := multiConfig(t, 4, multiDataset(t, 7))
	cfg.Faults = mustParse(t, "degrade,link,from=iter:0,to=iter:3,factor=4")
	m, err := NewMultiNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := m.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	const healthySync = "0x1.1bfccdd5e827cp-11" // from goldenTrainSig, both epochs
	if hexf(st1.NetSyncSec) == healthySync || st1.NetSyncSec <= st2.NetSyncSec {
		t.Fatalf("degraded window not charged: epoch1 sync %v, epoch2 %v", st1.NetSyncSec, st2.NetSyncSec)
	}
	if hexf(st2.NetSyncSec) != healthySync {
		t.Fatalf("post-window sync %s, want healthy %s bit-exact", hexf(st2.NetSyncSec), healthySync)
	}
	if hexf(st1.Loss) != "0x1.c0b103dcf5049p+00" || hexf(st2.Loss) != "0x1.a91acab9ee97ap-01" {
		t.Fatalf("link degradation perturbed the numerics: losses %s / %s", hexf(st1.Loss), hexf(st2.Loss))
	}
	if d := m.ReplicasInSync(); d != 0 {
		t.Fatalf("fleet diverged by %v under link degradation", d)
	}
}

// Schedules referencing ranks outside the fleet, or leaving no rank alive, are
// rejected up front.
func TestClusterFaultScheduleValidated(t *testing.T) {
	cfg := multiConfig(t, 2, multiDataset(t, 7))
	cfg.Faults = mustParse(t, "fail,node=5,at=iter:1")
	if _, err := NewMultiNode(cfg); err == nil || !strings.Contains(err.Error(), "node 5") {
		t.Fatalf("out-of-range fault target accepted: %v", err)
	}
	// A schedule that fail-stops every node leaves no survivor to train.
	const noSurvivor = "fail,node=0,at=iter:0;fail,node=1,at=iter:0"
	cfg.Faults = mustParse(t, noSurvivor)
	if _, err := NewMultiNode(cfg); err == nil || !strings.Contains(err.Error(), noSurvivor) ||
		!strings.Contains(err.Error(), "no survivor") {
		t.Fatalf("a schedule with no survivor accepted or not named: %v", err)
	}
}

package serve

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/hw"
)

// heteroPlatform builds a mixed fleet or fails the test.
func heteroPlatform(t *testing.T, kinds ...hw.Kind) hw.Platform {
	t.Helper()
	p, err := hw.HeteroPlatform(kinds...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// legacyHomogeneousGolden is serveSig of the run below under the deleted
// "least-loaded" policy (dispatch to the smallest AvailableAt, pool order on
// ties — the router before routing read the performance model), recorded on
// commit 9094743, the last tree that shipped it. On a pool whose devices all
// share identical specs predicted completions differ from availability by a
// constant, so the earliest-completion argmin must coincide with the legacy
// argmin on every batch, ties included.
var legacyHomogeneousGolden = map[string]string{
	"fpga": "offered=1200 served=1200 rejected=0 batches=41 computed=368 hits=832 evict=98\n" +
		"lat mean=0x1.ee14e89dbf118p-12 p50=0x1.6c6624e9c4fep-12 p95=0x1.2f395c73d335p-10 p99=0x1.44d21637d31f8p-10 max=0x1.489c115c10d5p-10\n" +
		"makespan=0x1.4f402ca5dd667p-06 rps=0x1.ca2a2457be98fp+15 eps=0x1.30278ca8dce6fp+18 meanbatch=0x1.d44aed44aed45p+04 svc=0x1.8adcecb7a3addp-11 jain=0x1p+00\n" +
		"class1 off=1200 srv=1200 rej=0 mean=0x1.ee14e89dbf118p-12 p50=0x1.6c6624e9c4fep-12 p99=0x1.44d21637d31f8p-10 max=0x1.489c115c10d5p-10\n" +
		"dev0 kind=FPGA batches=14 req=153 busy=0x1.599843586a4bp-07\n" +
		"dev1 kind=FPGA batches=14 req=112 busy=0x1.597b337bfd971p-07\n" +
		"dev2 kind=FPGA batches=13 req=103 busy=0x1.40c2a7c22b8afp-07\n" +
		"routes=01201201201201201201201201201201201201201\n",
	"gpu": "offered=1200 served=1200 rejected=0 batches=41 computed=368 hits=832 evict=98\n" +
		"lat mean=0x1.0e959b7a5e82p-11 p50=0x1.6c7a88efecd4p-12 p95=0x1.5357df5b6ca8cp-10 p99=0x1.68e04d26d12ep-10 max=0x1.6cc81819c0bc8p-10\n" +
		"makespan=0x1.517c25a0d9ab8p-06 rps=0x1.c721a3efdde62p+15 eps=0x1.2e2410cdb7712p+18 meanbatch=0x1.d44aed44aed45p+04 svc=0x1.d2e427d75fe4cp-11 jain=0x1p+00\n" +
		"class1 off=1200 srv=1200 rej=0 mean=0x1.0e959b7a5e82p-11 p50=0x1.6c7a88efecd4p-12 p99=0x1.68e04d26d12ep-10 max=0x1.6cc81819c0bc8p-10\n" +
		"dev0 kind=GPU batches=14 req=153 busy=0x1.98a90c91da0bap-07\n" +
		"dev1 kind=GPU batches=14 req=112 busy=0x1.9873d3a58b054p-07\n" +
		"dev2 kind=GPU batches=13 req=103 busy=0x1.7b4bc5e080a99p-07\n" +
		"routes=01201201201201201201201201201201201201201\n",
}

// Property: on a homogeneous pool the kind-aware router is indistinguishable
// from the legacy least-available dispatch — the same route sequence and
// bit-identical latency, throughput and per-device statistics. The legacy
// side of the comparison is the recorded golden above.
func TestRoutedMatchesLegacyOnHomogeneousPool(t *testing.T) {
	ds, m := testSetup(t)
	for name, plat := range map[string]hw.Platform{
		"fpga": hw.CPUFPGAPlatform(),
		"gpu":  heteroPlatform(t, hw.GPU, hw.GPU, hw.GPU),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(ds, m)
			cfg.Plat = plat
			cfg.Workers = 3
			cfg.CacheSize = 256
			cfg.RatePerSec = 60000 // hot enough that routing decisions matter
			routed, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := serveSig(routed); got != legacyHomogeneousGolden[name] {
				t.Fatalf("homogeneous pool diverged from the legacy least-loaded golden:\ngot:\n%s\nwant:\n%s",
					got, legacyHomogeneousGolden[name])
			}
		})
	}
}

// Determinism: two runs with the same seed must route every batch to the
// same worker and reproduce every statistic exactly, on a mixed pool where
// the router has real choices to make.
func TestRoutingDeterministic(t *testing.T) {
	ds, m := testSetup(t)
	cfg := baseConfig(ds, m)
	cfg.Plat = heteroPlatform(t, hw.GPU, hw.FPGA)
	cfg.Workers = 2
	cfg.CPUPeer = true
	cfg.SmallBatchCut = 4
	cfg.CacheSize = 256
	cfg.RatePerSec = 120000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Routes, b.Routes) {
		t.Fatalf("same seed, different routes:\n%v\n%v", a.Routes, b.Routes)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different stats:\n%v\n%v", a, b)
	}
	if len(a.Routes) == 0 {
		t.Fatal("no computed batches routed")
	}
}

// The mixed fleet must actually be heterogeneous under load: every device
// kind takes computed batches, per-device counters add up, and the
// small-batch split lands cache-hot small batches on the CPU peer.
func TestMixedPoolSharesWork(t *testing.T) {
	ds, m := testSetup(t)
	cfg := baseConfig(ds, m)
	cfg.Plat = heteroPlatform(t, hw.GPU, hw.FPGA)
	cfg.Workers = 2
	cfg.CPUPeer = true
	cfg.SmallBatchCut = 4
	cfg.CacheSize = 256
	cfg.NumRequests = 3000
	cfg.RatePerSec = 250000
	cfg.QueueCap = 256
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PerDevice) != 3 {
		t.Fatalf("expected 3 workers, got %d", len(st.PerDevice))
	}
	var batches, requests int
	for _, d := range st.PerDevice {
		if d.Batches == 0 {
			t.Fatalf("%s %s took no batches — fleet not heterogeneous under load\n%v",
				d.Kind, d.Name, st)
		}
		if d.BusySec <= 0 {
			t.Fatalf("%s busy time missing", d.Name)
		}
		batches += d.Batches
		requests += d.Requests
	}
	if batches != len(st.Routes) {
		t.Fatalf("per-device batches %d != routed batches %d", batches, len(st.Routes))
	}
	if requests != st.Computed {
		t.Fatalf("per-device requests %d != computed %d", requests, st.Computed)
	}
}

// The small-batch split: with the cut enabled, every batch whose computed
// miss count is at or under the cut must land on the CPU peer (unless the
// CPU kind is saturated). Run with an effectively unbounded queue so
// saturation never triggers, then check the peer served every small batch.
func TestSmallBatchesLandOnCPUPeer(t *testing.T) {
	ds, m := testSetup(t)
	cfg := baseConfig(ds, m)
	cfg.Plat = heteroPlatform(t, hw.GPU, hw.FPGA)
	cfg.Workers = 2
	cfg.CPUPeer = true
	cfg.SmallBatchCut = 1000 // every batch is "small"
	cfg.QueueCap = 1 << 20
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peer := st.PerDevice[len(st.PerDevice)-1]
	if peer.Kind != hw.CPU {
		t.Fatalf("last worker is %v, want the CPU peer", peer.Kind)
	}
	if peer.Batches != len(st.Routes) {
		t.Fatalf("CPU peer served %d of %d batches despite a cut above every batch size",
			peer.Batches, len(st.Routes))
	}
}

// SmallBatchCut without a CPU peer has no landing spot on accelerator
// platforms and must be rejected.
func TestSmallCutRequiresPeer(t *testing.T) {
	ds, m := testSetup(t)
	cfg := baseConfig(ds, m)
	cfg.SmallBatchCut = 4
	if _, err := Run(cfg); err == nil {
		t.Fatal("SmallBatchCut without CPUPeer accepted")
	}
	cfg.CPUPeer = true
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// Kind-aware admission: a saturated kind must not absorb further batches
// while another kind has room — the slow-FPGA-starves-GPU scenario. Build a
// controller by hand and drive the saturation check directly.
func TestKindSaturationSteering(t *testing.T) {
	a, err := NewAdmissionController(8)
	if err != nil {
		t.Fatal(err)
	}
	a.SetKindCap(hw.FPGA, 2)
	a.SetKindCap(hw.GPU, 2)
	// Two FPGA batches in flight with far-future completions: saturated.
	a.Admit(0)
	a.Admit(0)
	a.DispatchedKind(hw.FPGA, []float64{100, 200})
	if !a.KindSaturated(hw.FPGA, 1) {
		t.Fatal("FPGA not saturated at its cap")
	}
	if a.KindSaturated(hw.GPU, 1) {
		t.Fatal("GPU saturated without in-flight work")
	}
	// The GPU keeps serving and draining while the FPGA stays pinned.
	a.Admit(1)
	a.DispatchedKind(hw.GPU, []float64{2})
	if a.KindSaturated(hw.GPU, 3) {
		t.Fatal("GPU saturation not cleared by completion")
	}
	if !a.KindSaturated(hw.FPGA, 3) {
		t.Fatal("FPGA saturation cleared early")
	}
	// Uncapped kinds are never saturated.
	if a.KindSaturated(hw.CPU, math.Inf(1)) {
		t.Fatal("uncapped kind reported saturated")
	}
}

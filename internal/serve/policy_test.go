package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hw"
)

// heteroServeConfig shapes a run like the ext-serve-hetero bench: a mixed
// CPU+GPU+FPGA pool with the CPU peer, the small-batch split, and a hot
// Zipf stream — the config where routing decisions actually differ.
func heteroServeConfig(t *testing.T) Config {
	ds, m := testSetup(t)
	cfg := baseConfig(ds, m)
	cfg.Plat = heteroPlatform(t, hw.GPU, hw.FPGA)
	cfg.Workers = 2
	cfg.CPUPeer = true
	cfg.SmallBatchCut = 4
	cfg.CacheSize = 256
	cfg.NumRequests = 2000
	cfg.RatePerSec = 120000
	cfg.QueueCap = 256
	return cfg
}

// Config.Policy is vestigial (benchmark/serve.go still sets it): leaving it
// empty and naming the one router must be byte-identical, and every other
// value — the two removed policies included — is rejected with an error that
// names the field.
func TestDefaultPolicyIsEarliest(t *testing.T) {
	cfg := heteroServeConfig(t)
	def, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = PolicyEarliest
	named, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, named) {
		t.Fatalf("default policy diverged from explicit earliest:\n%+v\n%+v", def, named)
	}
	for _, name := range []string{"affinity", "least-loaded", "route-o-matic"} {
		cfg.Policy = name
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "Config.Policy") ||
			!strings.Contains(err.Error(), name) {
			t.Fatalf("Policy %q: want an error naming Config.Policy and the value, got %v", name, err)
		}
	}
}

// The shard matrix: across {1,4} cache shards at a fixed seed, every run must
// be (a) deterministic — two identical runs produce byte-identical Stats —
// and (b) shard-invariant: with a cache large enough that no shard ever
// evicts, residency is a pure membership property, so hit/miss sequences —
// and therefore the whole run — cannot depend on how keys were partitioned.
// (Under eviction pressure, per-shard LRU legitimately differs from global
// LRU; the 1-shard ≡ legacy property test pins that regime instead.)
func TestServePolicyMatrix(t *testing.T) {
	var ref *Stats
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%s/shards%d", PolicyEarliest, shards), func(t *testing.T) {
			cfg := heteroServeConfig(t)
			cfg.CacheShards = shards
			cfg.CacheSize = 8192 // > vertex count: no evictions possible
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%d shards: same seed, different stats:\n%v\n%v", shards, a, b)
			}
			if a.Evictions != 0 {
				t.Fatalf("eviction-free setup evicted %d times", a.Evictions)
			}
			if len(a.Routes) == 0 {
				t.Fatal("no computed batches routed")
			}
			if ref == nil {
				ref = a
			} else if !reflect.DeepEqual(ref, a) {
				t.Fatalf("stats changed across shard counts:\n%v\n%v", ref, a)
			}
		})
	}
}

// Decision traces must be complete and honest: one row per computed batch,
// the chosen worker matching Stats.Routes, a counterfactual for every pool
// worker — and the choice must actually BE the argmin of the recorded
// counterfactuals (no non-saturated alternative was predicted to finish
// sooner), except for small batches steered to the peer.
func TestRouteTraceCounterfactuals(t *testing.T) {
	cfg := heteroServeConfig(t)
	cfg.RouteTrace = true
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.RouteTrace) != len(st.Routes) {
		t.Fatalf("%d trace rows for %d routed batches", len(st.RouteTrace), len(st.Routes))
	}
	pool := len(st.PerDevice)
	for i, d := range st.RouteTrace {
		if d.Batch != i || d.Worker != st.Routes[i] {
			t.Fatalf("row %d: batch %d worker %d, Routes says %d", i, d.Batch, d.Worker, st.Routes[i])
		}
		if d.Computed <= 0 {
			t.Fatalf("row %d malformed: %+v", i, d)
		}
		if len(d.Alternatives) != pool {
			t.Fatalf("row %d: %d counterfactuals for a pool of %d", i, len(d.Alternatives), pool)
		}
		chosen := d.Alternatives[d.Worker]
		if chosen.PredictedDoneSec != d.PredictedDoneSec {
			t.Fatalf("row %d: chosen counterfactual %v != summary %v", i, chosen.PredictedDoneSec, d.PredictedDoneSec)
		}
		if d.SmallToPeer {
			if w := st.PerDevice[d.Worker]; w.Kind != hw.CPU {
				t.Fatalf("row %d: small batch landed on %v", i, w.Kind)
			}
			continue
		}
		if chosen.Saturated {
			continue // all-saturated fallback: argmin property doesn't apply
		}
		for _, a := range d.Alternatives {
			if !a.Saturated && a.PredictedDoneSec < d.PredictedDoneSec {
				t.Fatalf("row %d: earliest chose %v done %.6f but worker %d was predicted %.6f",
					i, d.Worker, d.PredictedDoneSec, a.Worker, a.PredictedDoneSec)
			}
		}
	}
	if s := st.TraceString(3); s == "" {
		t.Fatal("empty trace rendering")
	}
}

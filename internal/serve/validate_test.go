package serve

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
)

// Config.Validate checks what needs no dataset or model and names the
// rejected value in its error; Run, GenerateTrace and Predict reject exactly
// what it rejects, with its error. A negative cache, shard or worker count is
// an error, not a quietly disabled cache or a pool bound to every accelerator.
func TestConfigValidate(t *testing.T) {
	ds, m := testSetup(t)
	bare := baseConfig(nil, nil)
	if err := bare.Validate(); err != nil {
		t.Fatalf("a config without a dataset or model is rejected: %v", err)
	}
	zero := bare
	zero.Workers, zero.QueueCap, zero.CacheShards = 0, 0, 0
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero Workers / QueueCap / CacheShards (the defaults) rejected: %v", err)
	}
	badWorker, err := fault.Parse("fail,worker=9,at=0.01")
	if err != nil {
		t.Fatal(err)
	}
	replay := &Trace{Requests: []Request{{ID: 0, Vertex: 1, Arrival: 1e-3}, {ID: 1, Vertex: 2, Arrival: 2e-3, Class: NumClasses}}}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"requests", func(c *Config) { c.NumRequests = 0 }, "NumRequests 0"},
		{"negative fan-out", func(c *Config) { c.Fanouts = []int{8, -4} }, "Fanouts [8 -4]: sampler: negative fanout -4"},
		{"no fan-outs", func(c *Config) { c.Fanouts = nil }, "Fanouts []: sampler: no fanouts"},
		{"workers", func(c *Config) { c.Workers = -1 }, "Workers -1"},
		{"queue", func(c *Config) { c.QueueCap = -1 }, "QueueCap -1"},
		{"cache size", func(c *Config) { c.CacheSize = -5 }, "CacheSize -5"},
		{"cache shards", func(c *Config) { c.CacheShards = -2 }, "CacheShards -2"},
		{"max batch", func(c *Config) { c.MaxBatch = 0 }, "max batch 0"},
		{"window", func(c *Config) { c.WindowSec = math.NaN() }, "batch window NaN"},
		{"small cut", func(c *Config) { c.SmallBatchCut = -1 }, "small-batch cut -1"},
		{"batch over default queue", func(c *Config) { c.MaxBatch, c.QueueCap = 2048, 0 }, "MaxBatch 2048 exceeds QueueCap 1024"},
		{"small cut without peer", func(c *Config) { c.SmallBatchCut = 4 }, "SmallBatchCut 4"},
		{"formation", func(c *Config) { c.Formation = "speculative" }, `"speculative"`},
		{"policy", func(c *Config) { c.Policy = "affinity" }, `Config.Policy "affinity"`},
		{"rate", func(c *Config) { c.RatePerSec = 0 }, "rate 0"},
		{"rate +Inf", func(c *Config) { c.RatePerSec = math.Inf(1) }, "rate +Inf"},
		{"zipf", func(c *Config) { c.ZipfExponent = -1 }, "Zipf exponent -1"},
		{"workload", func(c *Config) {
			c.Workload = &WorkloadSpec{Cohorts: []Cohort{{Name: "web", RatePerSec: -1}}}
		}, `"web": rate -1`},
		{"workload and replay", func(c *Config) {
			c.Workload = &WorkloadSpec{Cohorts: []Cohort{{Name: "web", RatePerSec: 100}}}
			c.Replay = replay
		}, "mutually exclusive"},
		{"replayed class", func(c *Config) { c.Replay = replay }, "request 1 has class 3"},
		{"fault worker", func(c *Config) { c.Faults = badWorker }, "worker 9, pool has 2"},
		{"slo target", func(c *Config) { c.SLOTargets = []ClassSLO{{Class: ClassBulk, TargetSec: 0}} }, "SLO target 0 for bulk"},
		{"slo target NaN", func(c *Config) { c.SLOTargets = []ClassSLO{{Class: ClassBulk, TargetSec: math.NaN()}} }, "SLO target NaN"},
		{"slo class", func(c *Config) { c.SLOTargets = []ClassSLO{{Class: 7, TargetSec: 1}} }, "class 7"},
	} {
		cfg := baseConfig(ds, m)
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Validate error %v, want one naming %q", tc.name, err, tc.want)
		}
		_, rerr := Run(cfg)
		_, gerr := GenerateTrace(cfg)
		_, perr := Predict(cfg, 1)
		for entry, e := range map[string]error{"Run": rerr, "GenerateTrace": gerr, "Predict": perr} {
			if e == nil || e.Error() != err.Error() {
				t.Fatalf("%s: %s error %v, want Validate's %v", tc.name, entry, e, err)
			}
		}
	}
}

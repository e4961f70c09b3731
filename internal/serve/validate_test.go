package serve

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
)

// Config.Validate checks what needs no dataset or model and names the
// rejected value in its error; Run and GenerateTrace reject exactly what it
// rejects, with its error, and so does Predict, except for the arrival
// stream, which it does not read: it accepts a config whose only fault is
// the stream, and rejects a rate of its own that is not finite and positive.
// A negative cache, shard or worker count is an error, not a quietly
// disabled cache or a pool bound to every accelerator.
func TestConfigValidate(t *testing.T) {
	ds, m := testSetup(t)
	bare := baseConfig(nil, nil)
	if err := bare.Validate(); err != nil {
		t.Fatalf("a config without a dataset or model is rejected: %v", err)
	}
	zero := bare
	zero.Workers, zero.CacheShards = 0, 0
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero Workers / CacheShards (the defaults) rejected: %v", err)
	}
	zero.QueueCap = 0
	if err := zero.Validate(); err == nil || !strings.Contains(err.Error(), "QueueCap 0") {
		t.Fatalf("zero QueueCap: Validate error %v, want one naming QueueCap 0", err)
	}
	badWorker, err := fault.Parse("fail,worker=9,at=0.01")
	if err != nil {
		t.Fatal(err)
	}
	replay := &Trace{Requests: []Request{{ID: 0, Vertex: 1, Arrival: 1e-3}, {ID: 1, Vertex: 2, Arrival: 2e-3, Class: NumClasses}}}
	// The arrival stream's rules, which Predict does not read.
	streamRules := map[string]bool{"rate": true, "rate +Inf": true, "zipf": true,
		"workload": true, "workload and replay": true, "replayed class": true}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"requests", func(c *Config) { c.NumRequests = 0 }, "NumRequests 0"},
		{"negative fan-out", func(c *Config) { c.Fanouts = []int{8, -4} }, "Fanouts [8 -4]: sampler: negative fanout -4"},
		{"no fan-outs", func(c *Config) { c.Fanouts = nil }, "Fanouts []: sampler: no fanouts"},
		{"fan-outs for the model", func(c *Config) { c.Fanouts = []int{8} }, "Fanouts [8]: 1 fan-outs for a 2-layer model"},
		{"workers", func(c *Config) { c.Workers = -1 }, "Workers -1"},
		{"queue", func(c *Config) { c.QueueCap = -1 }, "QueueCap -1"},
		{"cache size", func(c *Config) { c.CacheSize = -5 }, "CacheSize -5"},
		{"cache shards", func(c *Config) { c.CacheShards = -2 }, "CacheShards -2"},
		{"max batch", func(c *Config) { c.MaxBatch = 0 }, "max batch 0"},
		{"window", func(c *Config) { c.WindowSec = math.NaN() }, "batch window NaN"},
		{"small cut", func(c *Config) { c.SmallBatchCut = -1 }, "small-batch cut -1"},
		{"batch over queue", func(c *Config) { c.MaxBatch, c.QueueCap = 2048, 1024 }, "MaxBatch 2048 exceeds QueueCap 1024"},
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
		_, perr := Predict(cfg, 1000, 1)
		entries := map[string]error{"Run": rerr, "GenerateTrace": gerr, "Predict": perr}
		if streamRules[tc.name] {
			if perr != nil {
				t.Fatalf("%s: Predict reads no stream, yet failed: %v", tc.name, perr)
			}
			delete(entries, "Predict")
		}
		for entry, e := range entries {
			if e == nil || e.Error() != err.Error() {
				t.Fatalf("%s: %s error %v, want Validate's %v", tc.name, entry, e, err)
			}
		}
	}
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		want := fmt.Sprintf("rate %v is not a finite positive number", rate)
		if _, err := Predict(baseConfig(ds, m), rate, 1); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Predict at rate %v: error %v, want one naming %q", rate, err, want)
		}
	}
}

// A front end's config carries its stream as a Workload and leaves
// RatePerSec 0, as hyscale's does: Predict prices the rate it is given,
// reads neither, and predicts what it predicts for the one-cohort stream.
func TestPredictTakesItsRate(t *testing.T) {
	ds, m := testSetup(t)
	cfg := baseConfig(ds, m)
	cfg.RatePerSec, cfg.ZipfExponent = 0, 0
	var err error
	if cfg.Workload, err = ParseWorkloadSpec("poisson,rate=5000,zipf=1.1"); err != nil {
		t.Fatal(err)
	}
	got, err := Predict(cfg, 2000, 1)
	if err != nil {
		t.Fatalf("a Workload config with RatePerSec 0 failed Predict: %v", err)
	}
	want, err := Predict(baseConfig(ds, m), 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Predict read the stream: %+v with a Workload, %+v without", got, want)
	}
}

// FuzzServeConfig holds Config.Validate to its contract over the numeric
// knobs: an accepted config serves (Run returns nil, and every class's
// offered requests are served, rejected or shed), and a rejected one fails
// Run, GenerateTrace and Predict with Validate's error. Every count decodes
// from a byte and NumRequests stays ≤ 200, so one execution takes
// milliseconds.
func FuzzServeConfig(f *testing.F) {
	ds, m := testSetup(f)
	formations := []string{"", FormationFCFS, FormationPriority, "sjf", "speculative"}
	// A fan-out byte b decodes to b mod 15 − 2, so enc(v) = v + 2; the
	// defaults mirror baseConfig.
	type seed struct {
		maxBatch, queue, cache, shards, workers, cut, retry int8
		requests                                            uint8
		fan                                                 []byte
		window, rate, zipf                                  float32
		peer                                                bool
		formation                                           uint8
	}
	base := seed{32, 127, 0, 0, 2, 0, 0, 200, []byte{10, 6}, 0.5e-3, 2000, 1.1, false, 0}
	add := func(mutate func(*seed)) {
		s := base
		mutate(&s)
		f.Add(s.maxBatch, s.queue, s.cache, s.shards, s.workers, s.cut, s.retry, s.requests, s.fan,
			math.Float32bits(s.window), math.Float32bits(s.rate), math.Float32bits(s.zipf), s.peer, s.formation)
	}
	// One seed per TestConfigValidate row the decoded knobs can express
	// (Policy, Workload, Replay, Faults and SLOTargets are not decoded),
	// then accepted ones.
	for _, mutate := range []func(*seed){
		func(s *seed) { s.requests = 0 },
		func(s *seed) { s.fan = []byte{10, 0} },
		func(s *seed) { s.fan = nil },
		func(s *seed) { s.fan = []byte{10} },
		func(s *seed) { s.workers = -1 },
		func(s *seed) { s.queue = -1 },
		func(s *seed) { s.cache = -5 },
		func(s *seed) { s.shards = -2 },
		func(s *seed) { s.maxBatch = 0 },
		func(s *seed) { s.window = float32(math.NaN()) },
		func(s *seed) { s.cut = -1 },
		func(s *seed) { s.queue = 16 },
		func(s *seed) { s.cut = 4 },
		func(s *seed) { s.formation = 4 },
		func(s *seed) { s.rate = 0 },
		func(s *seed) { s.rate = float32(math.Inf(1)) },
		func(s *seed) { s.zipf = -1 },
		func(s *seed) {},
		func(s *seed) { s.formation, s.cache, s.shards, s.queue = 2, 64, 4, 0 },
		func(s *seed) { s.peer, s.cut, s.workers, s.window = true, 4, 0, 0 },
	} {
		add(mutate)
	}
	f.Fuzz(func(t *testing.T, maxBatch, queue, cache, shards, workers, cut, retry int8, requests uint8,
		fan []byte, windowBits, rateBits, zipfBits uint32, peer bool, formation uint8) {
		fanouts := make([]int, min(len(fan), 3))
		for i := range fanouts {
			fanouts[i] = int(fan[i]%15) - 2
		}
		cfg := Config{
			Plat: hw.CPUFPGAPlatform(), Data: ds, Model: m, Fanouts: fanouts,
			NumRequests: int(requests % 201), RatePerSec: float64(math.Float32frombits(rateBits)),
			ZipfExponent: float64(math.Float32frombits(zipfBits)),
			MaxBatch:     int(maxBatch), WindowSec: float64(math.Float32frombits(windowBits)),
			Workers: int(workers), CPUPeer: peer, SmallBatchCut: int(cut),
			Formation: formations[int(formation)%len(formations)],
			QueueCap:  int(queue), CacheSize: int(cache), CacheShards: int(shards),
			RetryBudget: int(retry), Seed: 7,
		}
		verr := cfg.Validate()
		st, rerr := Run(cfg)
		// Predict reads no stream: it rejects what Validate rejects once the
		// stream is a valid one.
		valid := cfg
		valid.RatePerSec, valid.ZipfExponent = 1, 0
		serr := valid.Validate()
		if _, perr := Predict(cfg, 1, 1); (perr == nil) != (serr == nil) || perr != nil && perr.Error() != serr.Error() {
			t.Fatalf("Validate rejected %+v with a valid stream with %v, Predict with %v", cfg, serr, perr)
		}
		if verr != nil {
			_, gerr := GenerateTrace(cfg)
			for entry, e := range map[string]error{"Run": rerr, "GenerateTrace": gerr} {
				if e == nil || e.Error() != verr.Error() {
					t.Fatalf("Validate rejected %+v with %v, %s with %v", cfg, verr, entry, e)
				}
			}
			return
		}
		if rerr != nil {
			t.Fatalf("Validate accepted %+v, Run failed: %v", cfg, rerr)
		}
		for c, cs := range st.PerClass {
			if cs.Offered != cs.Served+cs.Rejected+cs.Shed {
				t.Fatalf("class %d: offered %d != served %d + rejected %d + shed %d",
					c, cs.Offered, cs.Served, cs.Rejected, cs.Shed)
			}
		}
	})
}

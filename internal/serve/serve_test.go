package serve

import (
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// testSetup materializes a small dataset and an (untrained) model — serving
// cost does not depend on the weights.
func testSetup(t testing.TB) (*datagen.Dataset, *gnn.Model) {
	t.Helper()
	rng := tensor.NewRNG(1)
	spec := datagen.Spec{Name: "serve-test", NumVertices: 1500, NumEdges: 12000,
		FeatDims: []int{20, 16, 5}, TrainNodes: 750}
	ds, err := datagen.Materialize(spec, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gnn.NewModel(gnn.Config{Kind: gnn.SAGE, Dims: spec.FeatDims}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ds, m
}

func baseConfig(ds *datagen.Dataset, m *gnn.Model) Config {
	return Config{
		Plat: hw.CPUFPGAPlatform(), Data: ds, Model: m,
		Fanouts: []int{8, 4}, NumRequests: 1200, RatePerSec: 2000,
		ZipfExponent: 1.1, MaxBatch: 32, WindowSec: 0.5e-3, Workers: 2,
		QueueCap: 512, CacheSize: 0, Seed: 7,
	}
}

func TestServeEndToEnd(t *testing.T) {
	ds, m := testSetup(t)
	st, err := Run(baseConfig(ds, m))
	if err != nil {
		t.Fatal(err)
	}
	if st.Served+st.Rejected != st.Offered {
		t.Fatalf("accounting: %d served + %d rejected != %d offered", st.Served, st.Rejected, st.Offered)
	}
	if st.Served == 0 || st.Batches == 0 {
		t.Fatal("nothing served")
	}
	if st.P50Sec <= 0 || st.P50Sec > st.P99Sec || st.P99Sec > st.MaxSec {
		t.Fatalf("latency ordering broken: p50=%v p99=%v max=%v", st.P50Sec, st.P99Sec, st.MaxSec)
	}
	if st.ThroughputRPS <= 0 || st.MakespanSec <= 0 {
		t.Fatalf("throughput %v over %v", st.ThroughputRPS, st.MakespanSec)
	}
	if st.MeanBatch < 1 || st.MeanBatch > 32 {
		t.Fatalf("mean batch %v outside [1,32]", st.MeanBatch)
	}
	if st.HitRate != 0 || st.CacheHits != 0 {
		t.Fatal("cache hits without a cache")
	}
}

func TestServeDeterministic(t *testing.T) {
	ds, m := testSetup(t)
	cfg := baseConfig(ds, m)
	cfg.CacheSize = 256
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != b.Served || a.P50Sec != b.P50Sec || a.P99Sec != b.P99Sec ||
		a.ThroughputRPS != b.ThroughputRPS || a.HitRate != b.HitRate {
		t.Fatalf("same seed, different runs:\n%v\n%v", a, b)
	}
}

// The executed per-batch pipeline time must land within the analytic
// serving model's stated tolerance band (±35%).
func TestServePredictionTolerance(t *testing.T) {
	ds, m := testSetup(t)
	for _, cacheSize := range []int{0, 512} {
		cfg := baseConfig(ds, m)
		cfg.CacheSize = cacheSize
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(st.MeanServiceSec-st.Prediction.ServiceSec) / st.MeanServiceSec
		if relErr > 0.35 {
			t.Fatalf("cache=%d: predicted service %.4gs vs executed %.4gs (%.0f%% off)",
				cacheSize, st.Prediction.ServiceSec, st.MeanServiceSec, 100*relErr)
		}
	}
}

// A wider batch window must raise median latency (requests wait longer for
// their batch to close) at fixed, non-saturating load.
func TestServeLatencyMonotoneInWindow(t *testing.T) {
	ds, m := testSetup(t)
	var prev float64
	for i, win := range []float64{0, 1e-3, 4e-3} {
		cfg := baseConfig(ds, m)
		cfg.WindowSec = win
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && st.P50Sec <= prev {
			t.Fatalf("window %v: p50 %v not above previous %v", win, st.P50Sec, prev)
		}
		prev = st.P50Sec
	}
}

// A larger embedding cache must raise the hit rate and, under overload,
// throughput; the p99 tail must not grow.
func TestServeCacheMonotone(t *testing.T) {
	ds, m := testSetup(t)
	probe, err := Predict(baseConfig(ds, m), 1)
	if err != nil {
		t.Fatal(err)
	}
	overload := 3 * probe.CapacityRPS
	var prevHit, prevRPS float64
	prevP99 := math.Inf(1)
	for i, cacheSize := range []int{0, 256, 1500} {
		cfg := baseConfig(ds, m)
		cfg.RatePerSec = overload
		cfg.WindowSec = 0 // no batching help: the cache is the only relief
		cfg.CacheSize = cacheSize
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if st.HitRate <= prevHit {
				t.Fatalf("cache %d: hit rate %v not above %v", cacheSize, st.HitRate, prevHit)
			}
			if st.ThroughputRPS < prevRPS {
				t.Fatalf("cache %d: throughput %v regressed below %v", cacheSize, st.ThroughputRPS, prevRPS)
			}
			if st.P99Sec > prevP99*1.01 {
				t.Fatalf("cache %d: p99 %v grew above %v", cacheSize, st.P99Sec, prevP99)
			}
		}
		prevHit, prevRPS, prevP99 = st.HitRate, st.ThroughputRPS, st.P99Sec
	}
}

// Overload with a tiny queue must shed load through admission control
// rather than growing latency unboundedly.
func TestServeAdmissionShedsOverload(t *testing.T) {
	ds, m := testSetup(t)
	probe, err := Predict(baseConfig(ds, m), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(ds, m)
	cfg.RatePerSec = 4 * probe.CapacityRPS
	cfg.WindowSec = 0
	cfg.QueueCap = 64
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Fatal("no rejections at 4x capacity with a 64-deep queue")
	}
	if st.Served+st.Rejected != st.Offered {
		t.Fatal("rejected requests leaked")
	}
	// Accepted requests ride a bounded queue: worst case ≈ queue depth ×
	// per-batch service, far below the unbounded-backlog alternative.
	if st.MaxSec > float64(cfg.QueueCap)*2*st.MeanServiceSec {
		t.Fatalf("max latency %v despite bounded queue", st.MaxSec)
	}
}

func TestServeConfigValidation(t *testing.T) {
	ds, m := testSetup(t)
	bad := func(mutate func(*Config)) Config {
		cfg := baseConfig(ds, m)
		mutate(&cfg)
		return cfg
	}
	cases := map[string]Config{
		"requests": bad(func(c *Config) { c.NumRequests = 0 }),
		"rate":     bad(func(c *Config) { c.RatePerSec = 0 }),
		"batch":    bad(func(c *Config) { c.MaxBatch = 0 }),
		"window":   bad(func(c *Config) { c.WindowSec = -1 }),
		"zipf":     bad(func(c *Config) { c.ZipfExponent = -1 }),
		"fanouts":  bad(func(c *Config) { c.Fanouts = []int{5} }),
		"model":    bad(func(c *Config) { c.Model = nil }),
		// A bare comparison lets NaN and +Inf through, and each ran to garbage:
		// every request shed, capacity 0, or every request on one vertex.
		"rate NaN":   bad(func(c *Config) { c.RatePerSec = math.NaN() }),
		"rate +Inf":  bad(func(c *Config) { c.RatePerSec = math.Inf(1) }),
		"window NaN": bad(func(c *Config) { c.WindowSec = math.NaN() }),
		"window Inf": bad(func(c *Config) { c.WindowSec = math.Inf(1) }),
		"zipf NaN":   bad(func(c *Config) { c.ZipfExponent = math.NaN() }),
		"zipf +Inf":  bad(func(c *Config) { c.ZipfExponent = math.Inf(1) }),
	}
	for name, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// Admission holds at most QueueCap requests waiting or in flight, so a
// MaxBatch above it could never fill: it is rejected — before the server
// prices the service time of every batch size up to it.
func TestServeRejectsBatchAboveQueue(t *testing.T) {
	ds, m := testSetup(t)
	for _, c := range []struct{ maxBatch, queueCap int }{{64, 32}, {2048, 0}} {
		cfg := baseConfig(ds, m)
		cfg.MaxBatch, cfg.QueueCap = c.maxBatch, c.queueCap
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "exceeds QueueCap") {
			t.Fatalf("MaxBatch %d, QueueCap %d: %v", c.maxBatch, c.queueCap, err)
		}
	}
	cfg := baseConfig(ds, m)
	cfg.MaxBatch, cfg.QueueCap = 64, 64
	if _, err := Run(cfg); err != nil {
		t.Fatalf("MaxBatch equal to QueueCap rejected: %v", err)
	}
}

package bench

import (
	"fmt"
	"math"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// serveFixture materializes the products-serve dataset and model shared by
// every serving experiment.
func serveFixture(seed uint64) (*datagen.Dataset, *gnn.Model, error) {
	rng := tensor.NewRNG(seed)
	spec := datagen.Spec{Name: "products-serve", NumVertices: 3000, NumEdges: 24000,
		FeatDims: []int{100, 64, 16}, TrainNodes: 1500}
	ds, err := datagen.Materialize(spec, 0.5, rng)
	if err != nil {
		return nil, nil, err
	}
	model, err := gnn.NewModel(gnn.Config{Kind: gnn.SAGE, Dims: spec.FeatDims}, rng)
	if err != nil {
		return nil, nil, err
	}
	return ds, model, nil
}

// ExtServe exercises the online-serving extension end to end: an open-loop
// Zipf request stream against the serving stack (admission → dynamic batcher
// → embedding cache → accelerator worker pool), executed on the virtual
// clock. Two sweeps bracket the design space:
//
//   - batch window at moderate load — median latency must rise with the
//     window while the analytic serving model tracks the executed per-batch
//     service time within its ±35% band;
//   - cache size at ~3x overload with no batching window — the hit rate and
//     served throughput must rise with capacity while the p99 tail falls.
func ExtServe(seed uint64) (*Table, error) {
	t := &Table{
		Title: "Extension: online serving (CPU-FPGA pool, open-loop Zipf stream; " +
			"analytic service time within ±35% of executed)",
		Header: []string{"Sweep", "Rate(r/s)", "Win(ms)", "Cache", "Batch", "Hit%",
			"p50(ms)", "p99(ms)", "RPS", "Svc exec(ms)", "Svc pred(ms)", "Err%"},
	}
	ds, model, err := serveFixture(seed)
	if err != nil {
		return nil, err
	}
	base := serve.Config{
		Plat: hw.CPUFPGAPlatform(), Data: ds, Model: model,
		Fanouts: []int{10, 5}, NumRequests: 2000, ZipfExponent: 1.1,
		MaxBatch: 32, Workers: 2, QueueCap: 512, Seed: seed,
	}
	addRow := func(sweep string, st *serve.Stats, cfg serve.Config) {
		errPct := 100 * math.Abs(st.MeanServiceSec-st.Prediction.ServiceSec) / st.MeanServiceSec
		t.AddRow(Txt(sweep), Num(cfg.RatePerSec, "%.0f"), Num(1e3*cfg.WindowSec, "%.2f"),
			Num(float64(cfg.CacheSize), "%.0f"), Num(st.MeanBatch, "%.1f"),
			Num(100*st.HitRate, "%.0f"), Num(1e3*st.P50Sec, "%.3f"), Num(1e3*st.P99Sec, "%.3f"),
			Num(st.ThroughputRPS, "%.0f"), Num(1e3*st.MeanServiceSec, "%.3f"),
			Num(1e3*st.Prediction.ServiceSec, "%.3f"), Num(errPct, "%.0f%%"))
	}

	withRate := func(c serve.Config, r float64) serve.Config { c.RatePerSec = r; return c }

	// Anchor the two load regimes on the analytic capacity of a
	// single-request batch (cold cache) rather than magic numbers.
	probe, err := serve.Predict(withRate(base, 1000), 1)
	if err != nil {
		return nil, err
	}
	moderate := 0.4 * probe.CapacityRPS
	overload := 3 * probe.CapacityRPS

	for _, windowMs := range []float64{0, 0.5, 2} {
		cfg := withRate(base, moderate)
		cfg.WindowSec = windowMs * 1e-3
		st, err := serve.Run(cfg)
		if err != nil {
			return nil, err
		}
		addRow("window", st, cfg)
	}
	for _, cacheSize := range []int{0, 64, 1024} {
		cfg := withRate(base, overload)
		cfg.WindowSec = 0
		cfg.CacheSize = cacheSize
		st, err := serve.Run(cfg)
		if err != nil {
			return nil, err
		}
		addRow("cache", st, cfg)
	}
	return t, nil
}

// ExtServeHetero is the serving counterpart of the ext-hetero training
// ablation: with a fixed budget of three serving devices, a mixed
// CPU+GPU+FPGA fleet — the kind-aware router steering each closed batch to
// the device with the earliest predicted completion, cache-hot small batches
// split off to the CPU peer — against both homogeneous accelerator pools of
// the same budget. The complementarity is real in the model: the CPU peer
// pays no transfer or kernel launches (cheap small batches, but a single
// shared host), the FPGA's dataflow kernels carry small fixed cost, and the
// GPU adds capacity once the other kinds' admission shares saturate. Each
// row reports the executed latency profile next to the per-device analytic
// prediction (±35% band), plus the per-kind batch split that shows the
// routing is genuinely heterogeneous.
func ExtServeHetero(seed uint64) (*Table, error) {
	t := &Table{
		Title: "Extension: kind-aware heterogeneous serving (equal 3-device budget, " +
			"open-loop Zipf stream; analytic per-device service within ±35%)",
		Header: []string{"Load", "Fleet", "Rate(r/s)", "Hit%", "mean(ms)", "p50(ms)",
			"p99(ms)", "RPS", "Svc exec(ms)", "Svc pred(ms)", "Err%", "Batches C/G/F"},
	}
	ds, model, err := serveFixture(seed)
	if err != nil {
		return nil, err
	}
	base := serve.Config{
		Data: ds, Model: model,
		Fanouts: []int{10, 5}, NumRequests: 2500, ZipfExponent: 1.1,
		MaxBatch: 32, WindowSec: 0.5e-3, QueueCap: 256, CacheSize: 512, Seed: seed,
	}
	fleet := func(kinds ...hw.Kind) (hw.Platform, error) { return hw.HeteroPlatform(kinds...) }
	type pool struct {
		name    string
		kinds   []hw.Kind
		peer    bool
		workers int
	}
	pools := []pool{
		{"3xGPU", []hw.Kind{hw.GPU, hw.GPU, hw.GPU}, false, 3},
		{"3xFPGA", []hw.Kind{hw.FPGA, hw.FPGA, hw.FPGA}, false, 3},
		{"CPU+GPU+FPGA", []hw.Kind{hw.GPU, hw.FPGA}, true, 2},
	}
	configure := func(p pool) (serve.Config, error) {
		plat, err := fleet(p.kinds...)
		if err != nil {
			return serve.Config{}, err
		}
		cfg := base
		cfg.Plat = plat
		cfg.Workers = p.workers
		cfg.CPUPeer = p.peer
		if p.peer {
			cfg.SmallBatchCut = 4
		}
		return cfg, nil
	}

	// Anchor the load regimes on the mixed pool's analytic size-closed
	// capacity (cold cache, MaxBatch-sized batches) rather than magic rates.
	mixedCfg, err := configure(pools[2])
	if err != nil {
		return nil, err
	}
	mixedCfg.RatePerSec = 1e6
	probe, err := serve.Predict(mixedCfg, 1)
	if err != nil {
		return nil, err
	}
	for _, load := range []struct {
		name string
		rate float64
	}{
		{"heavy", 0.7 * probe.CapacityRPS},
		{"overload", 1.25 * probe.CapacityRPS},
	} {
		for _, p := range pools {
			cfg, err := configure(p)
			if err != nil {
				return nil, err
			}
			cfg.RatePerSec = load.rate
			st, err := serve.Run(cfg)
			if err != nil {
				return nil, err
			}
			split := map[hw.Kind]int{}
			for _, d := range st.PerDevice {
				split[d.Kind] += d.Batches
			}
			errPct := 100 * math.Abs(st.MeanServiceSec-st.Prediction.ServiceSec) / st.MeanServiceSec
			t.AddRow(Txt(load.name), Txt(p.name), Num(cfg.RatePerSec, "%.0f"),
				Num(100*st.HitRate, "%.0f"), Num(1e3*st.MeanSec, "%.3f"),
				Num(1e3*st.P50Sec, "%.3f"), Num(1e3*st.P99Sec, "%.3f"),
				Num(st.ThroughputRPS, "%.0f"), Num(1e3*st.MeanServiceSec, "%.3f"),
				Num(1e3*st.Prediction.ServiceSec, "%.3f"), Num(errPct, "%.0f%%"),
				Txt(fmt.Sprintf("%d/%d/%d", split[hw.CPU], split[hw.GPU], split[hw.FPGA])))
		}
	}
	return t, nil
}

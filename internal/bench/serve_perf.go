// Serving data-plane before/after benchmarks: the measured perf trajectory
// of the serving hot path. Three groups of rows:
//
//   - cache: concurrent ops/sec of the legacy single-lock LRU (retained
//     in-tree as the 1-shard oracle) against the lock-striped sharded cache
//     at 1/4/8 shards, single-key and batched;
//   - e2e: wall-clock requests/sec and allocations/request of a full serving
//     run, next to a clearly-labeled replay of the pre-refactor dispatch
//     allocation pattern (per-key cache ops, per-batch maps and slices,
//     per-vertex embedding copies, boxed heap entries);
//   - policy: hit rate, virtual throughput, tail latency, and mean
//     counterfactual routing regret per routing policy on the heterogeneous
//     pool, with the affinity-vs-earliest hit-rate delta recorded whichever
//     way it lands.
//
// The report is written to BENCH_serve.json so later PRs have a recorded
// serving baseline to regress against; the ext-serve-throughput experiment
// renders the same numbers as a table.
package bench

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// ServeCacheRow is one concurrent cache-throughput measurement.
type ServeCacheRow struct {
	Cache           string  `json:"cache"`   // "legacy" or "sharded"
	Shards          int     `json:"shards"`  // 0 for the legacy cache
	Batched         bool    `json:"batched"` // GetMany/PutMany in 32-key batches
	Goroutines      int     `json:"goroutines"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	SpeedupVsLegacy float64 `json:"speedup_vs_legacy"`
}

// ServePolicyRow is one routing policy's end-to-end profile on the
// heterogeneous pool.
type ServePolicyRow struct {
	Policy       string  `json:"policy"`
	HitRate      float64 `json:"hit_rate"`
	VirtualRPS   float64 `json:"virtual_rps"`
	P99Ms        float64 `json:"p99_ms"`
	MeanBatch    float64 `json:"mean_batch"`
	TraceRows    int     `json:"trace_rows"`
	MeanRegretMs float64 `json:"mean_counterfactual_regret_ms"`
}

// ServeReport is the BENCH_serve.json payload.
type ServeReport struct {
	GOARCH   string `json:"goarch"`
	NumCPU   int    `json:"num_cpu"`
	CPUModel string `json:"cpu_model,omitempty"`

	Cache []ServeCacheRow `json:"cache"`

	// Service-time memo lookup on the router's per-batch path: the legacy
	// map[int]float64 against the dense slice the pipeline keeps now.
	MemoMapNsPerOp   float64 `json:"memo_map_ns_per_op"`
	MemoSliceNsPerOp float64 `json:"memo_slice_ns_per_op"`

	// End-to-end serving run (CPU+FPGA pool, open-loop Zipf stream).
	E2ERequests   int     `json:"e2e_requests"`
	E2EWallRPS    float64 `json:"e2e_wall_rps"`
	E2EVirtualRPS float64 `json:"e2e_virtual_rps"`
	// AllocsPerRequestBefore replays the pre-refactor dispatch allocation
	// pattern (it is a reconstruction, not a measurement of old code — the
	// old dispatch loop no longer exists). After is measured on real runs as
	// the marginal allocations of a longer stream over a shorter one, so the
	// one-time server construction cancels and the number reflects the
	// steady state TestServingSteadyStateZeroAlloc gates.
	AllocsPerRequestBefore float64 `json:"allocs_per_request_before_reconstructed"`
	AllocsPerRequestAfter  float64 `json:"allocs_per_request_after_steady_state"`

	Policies []ServePolicyRow `json:"policies"`
	// AffinityHitDelta = affinity hit rate − earliest hit rate, recorded
	// whichever way it lands (the sketch can help or hurt at a given load).
	AffinityHitDelta float64 `json:"affinity_vs_earliest_hit_delta"`

	// SLO is the per-class workload comparison: one recorded trace replayed
	// under every batch-formation policy (see ServeSLO).
	SLO *ServeSLOReport `json:"slo"`

	// Fault is the fault-injection comparison: the same style of recorded
	// trace replayed fault-free and with a mid-run worker loss (see
	// ServeFault).
	Fault *ServeFaultReport `json:"fault"`
}

// cacheWorkload runs G goroutines of opsPerG mixed single-key operations
// (3 lookups : 1 insert over a 4096-key working set) against the given ops
// and returns aggregate operations/second.
func cacheWorkload(g, opsPerG, stride int,
	get func(k serve.CacheKey), put func(k serve.CacheKey, emb []float32)) float64 {
	keys := make([]serve.CacheKey, 4096)
	for i := range keys {
		keys[i] = serve.CacheKey{Vertex: int32(i), Version: 1}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for gid := 0; gid < g; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			emb := make([]float32, stride)
			// Stride the key space per goroutine so shards see mixed traffic.
			at := gid * 977
			for i := 0; i < opsPerG; i++ {
				k := keys[at%len(keys)]
				at += 31
				if i&3 == 3 {
					put(k, emb)
				} else {
					get(k)
				}
			}
		}(gid)
	}
	wg.Wait()
	return float64(g*opsPerG) / time.Since(start).Seconds()
}

// batchedCacheWorkload is cacheWorkload in 32-key GetMany/PutMany batches.
func batchedCacheWorkload(g, opsPerG, stride int, c *serve.ShardedCache) float64 {
	keys := make([]serve.CacheKey, 4096)
	for i := range keys {
		keys[i] = serve.CacheKey{Vertex: int32(i), Version: 1}
	}
	const batch = 32
	var wg sync.WaitGroup
	start := time.Now()
	for gid := 0; gid < g; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			ks := make([]serve.CacheKey, batch)
			ready := make([]float64, batch)
			hit := make([]bool, batch)
			embs := make([][]float32, batch)
			emb := make([]float32, stride)
			for i := range embs {
				embs[i] = emb
			}
			at := gid * 977
			for done := 0; done < opsPerG; done += batch {
				for j := 0; j < batch; j++ {
					ks[j] = keys[at%len(keys)]
					at += 31
				}
				if (done/batch)&3 == 3 {
					c.PutMany(ks, embs, 0)
				} else {
					c.GetMany(ks, ready, hit, nil)
				}
			}
		}(gid)
	}
	wg.Wait()
	return float64(g*opsPerG) / time.Since(start).Seconds()
}

// legacyFloatHeap reproduces the container/heap completion tracking the
// admission controller used before the hand-rolled heap: every push boxes
// a float64 into an interface.
type legacyFloatHeap []float64

func (h legacyFloatHeap) Len() int            { return len(h) }
func (h legacyFloatHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h legacyFloatHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *legacyFloatHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *legacyFloatHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// replayLegacyDispatchAllocs replays the pre-refactor dispatch loop's
// allocation pattern at the shape of a measured run (its batch count, mean
// batch size, and computed-vertex count) and returns total Mallocs. It is a
// reconstruction: the per-key cache traffic, the per-batch completion slice
// and vertex-dedup map, the per-vertex embedding copy on cache publish, and
// the boxed completion-heap entries — everything the sharded cache, the
// batched cache ops, the generation-stamped dedup, and the retained scratch
// deleted — with the numeric compute itself excluded from both sides.
func replayLegacyDispatchAllocs(st *serve.Stats, stride int) float64 {
	if st.Batches == 0 {
		return 0
	}
	perBatch := st.Served / st.Batches
	if perBatch < 1 {
		perBatch = 1
	}
	computedPerBatch := st.Computed / st.Batches
	cache := serve.NewEmbeddingCache(4096)
	row := make([]float32, stride)
	var h legacyFloatHeap
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	v := int32(0)
	for b := 0; b < st.Batches; b++ {
		completions := make([]float64, 0, perBatch)
		waiting := make(map[int32][]int, perBatch)
		for r := 0; r < perBatch; r++ {
			v++
			k := serve.CacheKey{Vertex: v % 3000, Version: 1}
			if _, _, ok := cache.Get(k); !ok {
				waiting[k.Vertex] = append(waiting[k.Vertex], r)
			}
		}
		for c := 0; c < computedPerBatch; c++ {
			v++
			// The old publish path copied every computed row into a fresh
			// slice the legacy cache then retained.
			cache.Put(serve.CacheKey{Vertex: v % 3000, Version: 1},
				append([]float32(nil), row...), 0)
		}
		for r := 0; r < perBatch; r++ {
			completions = append(completions, float64(r))
		}
		heap.Push(&h, float64(b)) // boxed completion-heap entry
		if h.Len() > 64 {
			heap.Pop(&h)
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(st.Served)
}

// serveFixture materializes the products-serve dataset and model shared by
// the e2e and policy rows (the same shapes the ext-serve experiments use).
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

// meanRegretMs computes the mean counterfactual regret of a traced run: how
// much later (ms) the chosen worker was predicted to finish than the best
// non-saturated alternative, averaged over decisions.
func meanRegretMs(st *serve.Stats) float64 {
	if len(st.RouteTrace) == 0 {
		return 0
	}
	var regret float64
	for _, d := range st.RouteTrace {
		best := math.Inf(1)
		for _, a := range d.Alternatives {
			if !a.Saturated && a.PredictedDoneSec < best {
				best = a.PredictedDoneSec
			}
		}
		if math.IsInf(best, 1) {
			best = d.PredictedDoneSec
		}
		regret += d.PredictedDoneSec - best
	}
	return 1e3 * regret / float64(len(st.RouteTrace))
}

// ServeThroughput runs the full serving data-plane suite.
func ServeThroughput(seed uint64) (*ServeReport, error) {
	report := &ServeReport{
		GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
	}

	// --- Concurrent cache throughput: legacy single lock vs lock striping.
	const stride = 16
	const goroutines = 4
	const opsPerG = 200_000
	legacy := serve.NewEmbeddingCache(1024)
	legacyOps := cacheWorkload(goroutines, opsPerG, stride,
		func(k serve.CacheKey) { legacy.Get(k) },
		func(k serve.CacheKey, e []float32) { legacy.Put(k, e, 0) })
	report.Cache = append(report.Cache, ServeCacheRow{
		Cache: "legacy", Goroutines: goroutines, OpsPerSec: legacyOps, SpeedupVsLegacy: 1,
	})
	for _, shards := range []int{1, 4, 8} {
		c := serve.NewShardedCache(1024, shards, stride)
		ops := cacheWorkload(goroutines, opsPerG, stride,
			func(k serve.CacheKey) { c.Get(k) },
			func(k serve.CacheKey, e []float32) { c.Put(k, e, 0) })
		report.Cache = append(report.Cache, ServeCacheRow{
			Cache: "sharded", Shards: shards, Goroutines: goroutines,
			OpsPerSec: ops, SpeedupVsLegacy: ops / legacyOps,
		})
	}
	cb := serve.NewShardedCache(1024, 4, stride)
	batchedOps := batchedCacheWorkload(goroutines, opsPerG, stride, cb)
	report.Cache = append(report.Cache, ServeCacheRow{
		Cache: "sharded", Shards: 4, Batched: true, Goroutines: goroutines,
		OpsPerSec: batchedOps, SpeedupVsLegacy: batchedOps / legacyOps,
	})

	// --- Service-time memo: map (legacy worker) vs dense slice (pipeline).
	memoMap := make(map[int]float64, 32)
	memoSlice := make([]float64, 33)
	for c := 1; c <= 32; c++ {
		memoMap[c] = float64(c) * 1e-4
		memoSlice[c] = float64(c) * 1e-4
	}
	var sink float64
	i := 0
	mapSec, _ := measure(func() {
		for j := 0; j < 1024; j++ {
			sink += memoMap[i&31+1]
			i++
		}
	})
	sliceSec, _ := measure(func() {
		for j := 0; j < 1024; j++ {
			sink += memoSlice[i&31+1]
			i++
		}
	})
	_ = sink
	report.MemoMapNsPerOp = mapSec / 1024 * 1e9
	report.MemoSliceNsPerOp = sliceSec / 1024 * 1e9

	// --- End-to-end serving run: wall-clock throughput and allocs/request.
	ds, model, err := serveFixture(seed)
	if err != nil {
		return nil, err
	}
	e2e := serve.Config{
		Plat: hw.CPUFPGAPlatform(), Data: ds, Model: model,
		Fanouts: []int{10, 5}, NumRequests: 10000, RatePerSec: 8000,
		ZipfExponent: 1.1, MaxBatch: 32, WindowSec: 0.5e-3, Workers: 2,
		QueueCap: 512, CacheSize: 4096, CacheShards: 4, Seed: seed,
	}
	if _, err := serve.Run(e2e); err != nil { // warm build caches before timing
		return nil, err
	}
	timedRun := func(cfg serve.Config) (*serve.Stats, float64, float64, error) {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		st, err := serve.Run(cfg)
		if err != nil {
			return nil, 0, 0, err
		}
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)
		return st, wall, float64(ms1.Mallocs - ms0.Mallocs), nil
	}
	st, wall, _, err := timedRun(e2e)
	if err != nil {
		return nil, err
	}
	report.E2ERequests = e2e.NumRequests
	report.E2EWallRPS = float64(e2e.NumRequests) / wall
	report.E2EVirtualRPS = st.ThroughputRPS
	// The allocation comparison isolates the dispatch path (what the replay
	// below reconstructs and what TestServingSteadyStateZeroAlloc gates), so
	// it runs on the CPU pool, whose numeric compute the replay excludes
	// from both sides. After is
	// the marginal allocations of the extra requests the full run serves
	// over a quarter-length run — both pay the same one-time construction,
	// so the difference is the steady-state dispatch path alone.
	cpuOnly := e2e
	cpuOnly.Plat.Accels = nil
	short := cpuOnly
	short.NumRequests = cpuOnly.NumRequests / 4
	_, _, shortAllocs, err := timedRun(short)
	if err != nil {
		return nil, err
	}
	cpuSt, _, fullAllocs, err := timedRun(cpuOnly)
	if err != nil {
		return nil, err
	}
	marginal := (fullAllocs - shortAllocs) / float64(cpuOnly.NumRequests-short.NumRequests)
	if marginal < 0 {
		marginal = 0 // GC noise on a tiny difference
	}
	report.AllocsPerRequestAfter = marginal
	report.AllocsPerRequestBefore = replayLegacyDispatchAllocs(cpuSt, stride)

	// --- Per-policy profile on the heterogeneous pool.
	plat, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		return nil, err
	}
	var earliestHit, affinityHit float64
	for _, policy := range []string{serve.PolicyEarliest, serve.PolicyLeastLoaded, serve.PolicyAffinity} {
		cfg := serve.Config{
			Plat: plat, Data: ds, Model: model,
			Fanouts: []int{10, 5}, NumRequests: 4000, RatePerSec: 12000,
			ZipfExponent: 1.1, MaxBatch: 32, WindowSec: 0.5e-3, Workers: 2,
			CPUPeer: true, SmallBatchCut: 4, QueueCap: 256,
			CacheSize: 512, CacheShards: 4, Seed: seed,
			Policy: policy, RouteTrace: true,
		}
		pst, err := serve.Run(cfg)
		if err != nil {
			return nil, err
		}
		report.Policies = append(report.Policies, ServePolicyRow{
			Policy: policy, HitRate: pst.HitRate, VirtualRPS: pst.ThroughputRPS,
			P99Ms: 1e3 * pst.P99Sec, MeanBatch: pst.MeanBatch,
			TraceRows: len(pst.RouteTrace), MeanRegretMs: meanRegretMs(pst),
		})
		switch policy {
		case serve.PolicyEarliest:
			earliestHit = pst.HitRate
		case serve.PolicyAffinity:
			affinityHit = pst.HitRate
		}
	}
	report.AffinityHitDelta = affinityHit - earliestHit

	// --- Per-class SLO comparison: one trace, every formation policy.
	report.SLO, err = ServeSLO(seed)
	if err != nil {
		return nil, err
	}

	// --- Fault injection: one trace replayed healthy and with a worker loss.
	report.Fault, err = ServeFault(seed)
	if err != nil {
		return nil, err
	}
	return report, nil
}

// ServeTable formats a report (exported so the root benchmark and
// cmd/experiments render the same artifact they serialize).
func ServeTable(report *ServeReport) *Table {
	t := &Table{
		Title: fmt.Sprintf("Extension: serving data plane (GOARCH %s, %d CPUs; "+
			"memo map %.1fns -> slice %.1fns; e2e %.0f req/s wall, steady-state allocs/req %.1f -> %.3f)",
			report.GOARCH, report.NumCPU,
			report.MemoMapNsPerOp, report.MemoSliceNsPerOp,
			report.E2EWallRPS, report.AllocsPerRequestBefore, report.AllocsPerRequestAfter),
		Header: []string{"Row", "Cache/Policy", "Shards", "Mops/s", "vs legacy",
			"Hit%", "RPS", "p99(ms)", "Regret(ms)"},
	}
	for _, r := range report.Cache {
		name := r.Cache
		if r.Batched {
			name += "+batched"
		}
		t.AddRow(Txt("cache"), Txt(name), Num(float64(r.Shards), "%.0f"),
			Num(r.OpsPerSec/1e6, "%.2f"), Num(r.SpeedupVsLegacy, "%.2fx"),
			Txt(""), Txt(""), Txt(""), Txt(""))
	}
	for _, p := range report.Policies {
		t.AddRow(Txt("policy"), Txt(p.Policy), Txt(""), Txt(""), Txt(""),
			Num(100*p.HitRate, "%.1f"), Num(p.VirtualRPS, "%.0f"),
			Num(p.P99Ms, "%.3f"), Num(p.MeanRegretMs, "%.4f"))
	}
	return t
}

// ExtServeThroughput renders the serving data-plane suite as a table.
func ExtServeThroughput(seed uint64) (*Table, error) {
	report, err := ServeThroughput(seed)
	if err != nil {
		return nil, err
	}
	return ServeTable(report), nil
}

// WriteServeJSON runs the suite and records it at path (the repository
// convention is BENCH_serve.json at the root).
func WriteServeJSON(path string, seed uint64) (*ServeReport, error) {
	report, err := ServeThroughput(seed)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	return report, os.WriteFile(path, append(data, '\n'), 0o644)
}

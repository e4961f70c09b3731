package main

import (
	"math"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/sampler"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// meanRegretMS is the mean counterfactual regret of a route trace: how much
// later the chosen worker was predicted to finish than the best unsaturated
// alternative.
func meanRegretMS(st *serve.Stats) float64 {
	if len(st.RouteTrace) == 0 {
		return 0
	}
	var regret float64
	for _, d := range st.RouteTrace {
		best := math.Inf(1)
		for _, a := range d.Alternatives {
			if !a.Saturated && !a.Failed && a.PredictedDoneSec < best {
				best = a.PredictedDoneSec
			}
		}
		if !math.IsInf(best, 1) {
			regret += d.PredictedDoneSec - best
		}
	}
	return 1e3 * regret / float64(len(st.RouteTrace))
}

// traceServe produces the serving half's per-layer metrics.
func traceServe(tr *tracer, st *serveState, m *metricSet, doc *document) ([]check, error) {
	// One replay bare, one under a root span with the route trace on.
	t0 := time.Now()
	bare, err := serve.Run(st.Cfg)
	if err != nil {
		return nil, err
	}
	bareWall := time.Since(t0).Seconds()
	tcfg := st.Cfg
	tcfg.RouteTrace = true
	var stats *serve.Stats
	before := mallocs()
	wall := tr.timed(0, "serve.Run", 0, func() { stats, err = serve.Run(tcfg) })
	allocs := mallocs() - before
	if err != nil {
		return nil, err
	}
	offered := float64(stats.Offered)
	m.set("serve.cache_hit_rate", stats.HitRate)
	m.set("serve.cache_evictions_per_kreq", ratio(1e3*float64(stats.Evictions), offered))
	m.set("serve.batch_mean_size", stats.MeanBatch)
	m.set("serve.rejected_frac", ratio(float64(stats.Rejected), offered))
	m.set("serve.shed_frac", ratio(float64(stats.Shed), offered))
	m.set("serve.deadline_miss_frac", ratio(float64(stats.DeadlineMisses), offered))
	m.set("serve.jain_fairness", stats.JainFairness)
	m.set("serve.route_regret_ms", meanRegretMS(stats))
	utilMax, utilMin := 0.0, math.Inf(1)
	for _, d := range stats.PerDevice {
		u := ratio(d.BusySec, stats.MakespanSec)
		utilMax, utilMin = math.Max(utilMax, u), math.Min(utilMin, u)
	}
	m.set("serve.util_max", utilMax)
	m.set("serve.util_min", utilMin)
	m.set("serve.retries_per_kreq", ratio(1e3*float64(stats.Retries), offered))
	m.set("serve.recovery_ms", 1e3*stats.RecoverySec)
	m.set("serve.virt_p50_ms", 1e3*stats.P50Sec)
	m.set("serve.virt_mean_service_ms", 1e3*stats.MeanServiceSec)
	m.set("serve.allocs_per_req", ratio(float64(allocs), offered))
	m.set("serve.trace_overhead_frac", ratio(wall, bareWall)-1)
	m.set("perfmodel.serve_service_err_pct", pctErr(stats.Prediction.ServiceSec, stats.MeanServiceSec))

	rp, err := replayServe(tr, st, m)
	if err != nil {
		return nil, err
	}
	computedBatches := float64(len(stats.Routes))
	runBatchSec := computedBatches * rp.RunBatchSec
	// Against the bare replay: the traced one also pays for the route trace.
	m.set("serve.loop_ns_per_req", ratio(1e9*(bareWall-runBatchSec), offered))
	m.set("serve.explained_frac", ratio(rp.BatcherSec+rp.CacheSec+runBatchSec, bareWall))

	doc.Timings["serve_replay_wall_s"] = summarize([]float64{bareWall})
	doc.Timings["serve_replay_wall_traced_s"] = summarize([]float64{wall})
	doc.Samples["serve_requests"] = stats.Offered
	doc.Samples["serve_replayed_batches"] = rp.Batches
	doc.Samples["serve_replayed_runbatch"] = rp.RunBatches
	doc.OpsAttempted += stats.Offered
	doc.OpsFailed += stats.Rejected + stats.Shed
	return tracedServeChecks(bare, stats), nil
}

// tracedServeChecks holds a traced replay to the bare replay of the same
// trace: the route trace aside, the two Stats must be equal.
func tracedServeChecks(bare, traced *serve.Stats) []check {
	untraced := *traced
	untraced.RouteTrace = nil
	return append(statsChecks(traced), check{"serve.traced_equals_untraced",
		reflect.DeepEqual(bare, &untraced), "one trace replayed with and without the route trace"})
}

// serveReplay is what the serving layer replay measured.
type serveReplay struct {
	Batches     int
	RunBatches  int
	BatcherSec  float64 // one pass of the whole trace through the batcher
	CacheSec    float64 // every GetMany + PutMany of the run
	RunBatchSec float64 // mean of one RunBatch
}

// replayServe pushes the trace's requests through the serving layers one
// public call at a time: the whole trace through DynamicBatcher
// (CloseExpired/Add/Flush), the resulting batches' keys through
// ShardedCache.GetMany/PutMany, and the deduplicated misses through
// InferencePipeline.RunBatch on worker 0's device. Without admission in the
// way every request is batched, which is what the run does when nothing is
// rejected or shed.
func replayServe(tr *tracer, st *serveState, m *metricSet) (*serveReplay, error) {
	cfg := st.Cfg
	reqs := st.Trace.Requests
	rp := &serveReplay{}
	root := tr.begin(0, "layer-replay-serve", 0)
	defer tr.end(root)

	newBatcher := func() (*serve.DynamicBatcher, error) {
		b, err := serve.NewSplitBatcher(cfg.MaxBatch, cfg.WindowSec, cfg.SmallBatchCut)
		if err != nil {
			return nil, err
		}
		return b, b.SetFormation(cfg.Formation, nil)
	}

	// Batcher: one timed pass with nothing else in the loop, then an untimed
	// pass that records the closed batches for the passes below.
	b, err := newBatcher()
	if err != nil {
		return nil, err
	}
	rp.BatcherSec = tr.timed(root, "serve.DynamicBatcher.Add+CloseExpired", 0, func() {
		for _, r := range reqs {
			for batch, _ := b.CloseExpired(r.Arrival); batch != nil; batch, _ = b.CloseExpired(r.Arrival) {
			}
			b.Add(r)
		}
		b.Flush()
	})
	m.set("serve.batcher_add_ns", ratio(1e9*rp.BatcherSec, float64(len(reqs))))

	if b, err = newBatcher(); err != nil {
		return nil, err
	}
	var vertices []int32 // every batch's vertices, back to back
	var ends []int       // batch i is vertices[ends[i-1]:ends[i]]
	var closes []float64
	record := func(batch []serve.Request, closeAt float64) {
		for _, r := range batch {
			vertices = append(vertices, r.Vertex)
		}
		ends = append(ends, len(vertices))
		closes = append(closes, closeAt)
	}
	for _, r := range reqs {
		for batch, at := b.CloseExpired(r.Arrival); batch != nil; batch, at = b.CloseExpired(r.Arrival) {
			record(batch, at)
		}
		if batch, at := b.Add(r); batch != nil {
			record(batch, at)
		}
	}
	if batch, at := b.Flush(); batch != nil {
		record(batch, at)
	}
	rp.Batches = len(ends)

	// Cache: the batches' keys through GetMany, the misses — deduplicated per
	// batch — through PutMany with a placeholder embedding row.
	stride := serveDims[len(serveDims)-1]
	cache := serve.NewShardedCache(cfg.CacheSize, cfg.CacheShards, stride)
	keys := make([]serve.CacheKey, cfg.MaxBatch)
	ready, hit := make([]float64, cfg.MaxBatch), make([]bool, cfg.MaxBatch)
	putKeys := make([]serve.CacheKey, 0, cfg.MaxBatch)
	putEmbs := make([][]float32, 0, cfg.MaxBatch)
	row := make([]float32, stride)
	seen := make([]int, st.Data.Graph.NumVertices) // last batch (1-based) that missed on the vertex
	var misses []int32                             // every batch's deduplicated misses, back to back
	var missEnds []int
	var getSec, putSec float64
	var gets, puts int
	cacheSpan := tr.begin(root, "serve.ShardedCache.GetMany+PutMany", 0)
	lo := 0
	for bi, hi := range ends {
		batch := vertices[lo:hi]
		lo = hi
		for i, v := range batch {
			keys[i] = serve.CacheKey{Vertex: v, Version: 1}
		}
		t0 := time.Now()
		cache.GetMany(keys[:len(batch)], ready, hit, nil)
		getSec += time.Since(t0).Seconds()
		gets += len(batch)
		putKeys, putEmbs = putKeys[:0], putEmbs[:0]
		for i, v := range batch {
			if !hit[i] && seen[v] != bi+1 {
				seen[v] = bi + 1
				misses = append(misses, v)
				putKeys = append(putKeys, keys[i])
				putEmbs = append(putEmbs, row)
			}
		}
		missEnds = append(missEnds, len(misses))
		if len(putKeys) > 0 {
			t0 = time.Now()
			cache.PutMany(putKeys, putEmbs, closes[bi])
			putSec += time.Since(t0).Seconds()
			puts += len(putKeys)
		}
	}
	tr.end(cacheSpan)
	rp.CacheSec = getSec + putSec
	m.set("serve.cache_get_ns", ratio(1e9*getSec, float64(gets)))
	m.set("serve.cache_put_ns", ratio(1e9*putSec, float64(puts)))

	// RunBatch: every non-empty miss list on a pipeline bound like the run's
	// worker 0.
	device := 0
	if len(cfg.Plat.Accels) > 0 {
		device = 1
	}
	pipe, err := core.NewInferencePipeline(core.InferConfig{
		Plat: cfg.Plat, Data: cfg.Data, Model: cfg.Model, Fanouts: cfg.Fanouts,
		Device: device, Seed: tensor.NewRNG(cfg.Seed).Uint64(),
	})
	if err != nil {
		return nil, err
	}
	var runSec float64
	var firstAllocs uint64
	var computed int
	lo = 0
	for bi, hi := range missEnds {
		targets := misses[lo:hi]
		lo = hi
		if len(targets) == 0 {
			continue
		}
		var runErr error
		runSec += tr.timed(root, "core.InferencePipeline.RunBatch", bi, func() { _, runErr = pipe.RunBatch(targets) })
		if runErr != nil {
			return nil, runErr
		}
		computed += len(targets)
		rp.RunBatches++
		if rp.RunBatches == 1 { // the first call grows the arena
			firstAllocs = mallocs()
		}
	}
	runAllocs := mallocs() - firstAllocs
	rp.RunBatchSec = ratio(runSec, float64(rp.RunBatches))
	m.set("core.runbatch_us", 1e6*rp.RunBatchSec)
	m.set("core.runbatch_allocs", ratio(float64(runAllocs), float64(rp.RunBatches-1)))

	// Propagation alone, at the mean computed batch: InferMiniBatchWS over
	// one sampled mini-batch.
	mean := max(1, computed/max(1, rp.RunBatches))
	inferUS, err := inferMicros(st, misses[:min(mean, len(misses))])
	if err != nil {
		return nil, err
	}
	m.set("gnn.infer_us_per_batch", inferUS)
	return rp, nil
}

// inferCalls is how many times the inference kernel is repeated.
const inferCalls = 200

// inferMicros times gnn.Model.InferMiniBatchWS on one mini-batch sampled
// around targets.
func inferMicros(st *serveState, targets []int32) (float64, error) {
	smp, err := sampler.New(st.Data.Graph, serveFanouts, nil)
	if err != nil {
		return 0, err
	}
	var mb sampler.MiniBatch
	if err := smp.SampleInto(&mb, targets, tensor.NewRNG(st.Cfg.Seed)); err != nil {
		return 0, err
	}
	x := tensor.New(len(mb.InputNodes()), st.Data.Features.Cols)
	tensor.GatherRows(x, st.Data.Features, mb.InputNodes())
	ws := tensor.NewWorkspace()
	t0 := time.Now()
	for i := 0; i <= inferCalls; i++ {
		if i == 1 { // the first call grows the arena
			t0 = time.Now()
		}
		ws.Reset()
		if _, err := st.Model.InferMiniBatchWS(ws, &mb, x); err != nil {
			return 0, err
		}
	}
	return 1e6 * time.Since(t0).Seconds() / inferCalls, nil
}

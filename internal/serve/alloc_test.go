package serve

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// The serving steady state — arrival → deadline expiry → admission →
// batching → cache lookup → routing → compute → cache publish → completion
// accounting — must run allocation-free once warm. This is the serving
// counterpart of core's TestTrainingIterationZeroAlloc: it gates the whole
// reuse discipline at once (ping-pong batch buffers, batched cache ops over
// preallocated scratch, generation-stamped vertex dedup, the dense
// service-time memo, the hand-rolled completion heap), so any new
// per-request or per-batch make/box anywhere in the loop fails it. It holds
// with kernel parallelism available too: testSetup's batches are far below
// tensor's fan-out grain, so every kernel runs on the caller (the
// benchmark's gpu-lean is not: the README's fan-out scan ("Sizing kernel
// fan-out by work") puts its serving layer-0 GEMM at 1–2 grains, so there a
// kernel can split and allocate its closure). The fpga-pool leg serves on baseConfig's two FPGA workers
// instead of one CPU worker, so the routed pool and each FPGA worker's
// dataflow account ride the gate too. The hand-off leg serves grainSetup's
// batches, whose forwards clear the grain, at GOMAXPROCS 2 with kernels on
// the caller: forwards run on the workers' goroutines and settle into an
// evicting cache, and, with the cache disabled, stay outstanding two per
// worker — allocation-free either way.
func TestServingSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation gate is skipped under -race")
	}
	gate := func(t *testing.T, leg string) {
		pars, setup, caches := []int{1, 4}, testSetup, []int{256}
		if leg == "handoff" {
			pars, setup, caches = []int{1}, grainSetup, []int{256, 0}
			prev := runtime.GOMAXPROCS(2)
			defer runtime.GOMAXPROCS(prev)
		}
		for _, par := range pars {
			t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
				prev := tensor.SetParallelism(par)
				defer tensor.SetParallelism(prev)
				for _, cacheSize := range caches {
					cfg := baseConfig(setup(t))
					if leg == "cpu" {
						cfg.Plat.Accels = nil // one CPU worker: the serial fast path
					}
					cfg.NumRequests = 1 << 16
					cfg.RatePerSec = 50000 // hot: batches close at MaxBatch, admission sheds some
					cfg.CacheSize = cacheSize
					cfg.CacheShards = 4
					if leg == "handoff" {
						cfg.ZipfExponent = 0 // mostly misses: full batches clear the grain
					}
					s, err := newServer(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer s.stop()
					next := 0
					feed := func(n int) {
						for _, r := range s.arrivals[next : next+n] {
							if err := s.offer(r); err != nil {
								t.Fatal(err)
							}
						}
						next += n
					}
					// Warm every arena to its roof: sampled neighborhood sizes vary
					// batch to batch, so the workspace, batcher, and admission heap
					// must all have seen their steady-state maxima before counting.
					feed(4000)
					batchesBefore, computedBefore, handoffsBefore := s.stats.Batches, s.stats.Computed, s.handoffs
					twoDeep := false
					measure := func() {
						feed(50)
						for _, w := range s.pool {
							twoDeep = twoDeep || outstanding(w) == 2
						}
					}
					if a := testing.AllocsPerRun(20, measure); a != 0 {
						t.Fatalf("cache %d: serving steady state allocated %.2f times per 50 requests, want 0", cacheSize, a)
					}
					// The gate must have exercised the full path, not just admission.
					if s.stats.Batches == batchesBefore || s.stats.Computed == computedBefore {
						t.Fatalf("cache %d: gate did not reach dispatch: batches %d->%d computed %d->%d",
							cacheSize, batchesBefore, s.stats.Batches, computedBefore, s.stats.Computed)
					}
					if leg == "handoff" && s.handoffs == handoffsBefore {
						t.Fatalf("cache %d: gate handed off no forward", cacheSize)
					}
					if leg == "handoff" && cacheSize == 0 && !twoDeep {
						t.Fatal("cache 0: no worker held two forwards while the gate counted")
					}
				}
			})
		}
	}
	gate(t, "cpu")
	t.Run("fpga-pool", func(t *testing.T) { gate(t, "fpga-pool") })
	t.Run("handoff", func(t *testing.T) { gate(t, "handoff") })
}

// Satellite micro-benchmark for the dispatch memo change: the router
// consults the per-worker predicted service time once per worker per closed
// batch. The legacy worker kept a map[int]float64; the pipeline now keeps a
// dense slice indexed by the MaxBatch-bounded computed count.
var memoSink float64

func BenchmarkServiceMemoMap(b *testing.B) {
	m := make(map[int]float64, 32)
	for c := 1; c <= 32; c++ {
		m[c] = float64(c) * 1e-4
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += m[i&31+1]
	}
	memoSink = s
}

func BenchmarkServiceMemoSlice(b *testing.B) {
	sl := make([]float64, 33)
	for c := 1; c <= 32; c++ {
		sl[c] = float64(c) * 1e-4
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += sl[i&31+1]
	}
	memoSink = s
}

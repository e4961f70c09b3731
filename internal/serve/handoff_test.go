package serve

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// grainSetup is testSetup at serving widths: a 32-target batch's layer-0
// GEMM alone is about two of tensor's fan-out grains, as on the benchmark's
// gpu-lean, so a full batch's forward is handed to its worker's goroutine
// (when GOMAXPROCS > 1) while a batch of a few cache misses stays inline.
func grainSetup(t *testing.T) (*datagen.Dataset, *gnn.Model) {
	t.Helper()
	rng := tensor.NewRNG(3)
	spec := datagen.Spec{Name: "serve-grain-test", NumVertices: 3000, NumEdges: 30000,
		FeatDims: []int{64, 256, 8}, TrainNodes: 1500}
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

// handoffConfig serves the grain fixture on two FPGA workers and the CPU
// peer, with an evicting cache, and fail-stops the peer mid-run so batches
// predicted onto it re-dispatch.
func handoffConfig(t *testing.T, ds *datagen.Dataset, m *gnn.Model) Config {
	t.Helper()
	sched, err := fault.Parse("fail,worker=2,at=0.03")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Plat: hw.CPUFPGAPlatform(), Data: ds, Model: m,
		Fanouts: []int{8, 4}, NumRequests: 2000, RatePerSec: 30000, ZipfExponent: 0.5,
		MaxBatch: 32, WindowSec: 1e-3, Workers: 2, CPUPeer: true,
		QueueCap: 256, CacheSize: 128, CacheShards: 2, Seed: 11, Faults: sched,
	}
}

// withProcs runs f at the given GOMAXPROCS.
func withProcs(procs int, f func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// cacheRow is one resident cache entry, bit for bit.
type cacheRow struct {
	Key     CacheKey
	ReadyAt uint64
	Emb     []uint32
}

// cacheDump lists every shard's resident entries in LRU order (most recent
// first) with their ready times and embedding bits.
func cacheDump(c *ShardedCache) [][]cacheRow {
	out := make([][]cacheRow, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		for e := sh.head; e >= 0; e = sh.entries[e].next {
			row := cacheRow{Key: sh.entries[e].key, ReadyAt: math.Float64bits(sh.entries[e].readyAt)}
			for _, v := range sh.view(e, c.stride) {
				row.Emb = append(row.Emb, math.Float32bits(v))
			}
			out[i] = append(out[i], row)
		}
	}
	return out
}

// runServed runs cfg at the given GOMAXPROCS and returns the stats, the
// final cache and how many forwards were handed off.
func runServed(t *testing.T, cfg Config, procs int) (*Stats, [][]cacheRow, int) {
	t.Helper()
	var st *Stats
	var s *server
	withProcs(procs, func() {
		var err error
		if s, err = newServer(cfg); err != nil {
			t.Fatal(err)
		}
		if st, err = s.run(); err != nil {
			t.Fatal(err)
		}
	})
	return st, cacheDump(s.cache), s.handoffs
}

// The forward leaves the event loop only when another processor can run
// it, and then changes nothing: with hand-offs live (GOMAXPROCS 2 and 4) the
// full Stats and the final cache — per shard, resident keys in LRU order,
// ready times and value bits — are the inline run's (GOMAXPROCS 1), on a
// run with an evicting cache, a CPU peer and a fail-stop that forces
// re-dispatch.
func TestHandoffIdentity(t *testing.T) {
	ds, m := grainSetup(t)
	cfg := handoffConfig(t, ds, m)
	want, wantCache, inline := runServed(t, cfg, 1)
	if inline != 0 {
		t.Fatalf("%d forwards handed off at GOMAXPROCS 1", inline)
	}
	if want.Evictions == 0 || want.Redispatched == 0 || want.PerDevice[2].Batches == 0 {
		t.Fatalf("fixture does not reach its paths: evictions %d, re-dispatched %d, peer batches %d",
			want.Evictions, want.Redispatched, want.PerDevice[2].Batches)
	}
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			got, gotCache, handoffs := runServed(t, cfg, procs)
			if handoffs == 0 {
				t.Fatal("no forward was handed off: the identity would test nothing")
			}
			t.Logf("%d of %d computed batches handed off", handoffs, len(got.Routes))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d hand-offs changed the Stats:\ngot  %+v\nwant %+v", handoffs, got, want)
			}
			if !reflect.DeepEqual(gotCache, wantCache) {
				t.Fatalf("%d hand-offs changed the final cache", handoffs)
			}
		})
	}
}

// handoffServer builds a server at the given GOMAXPROCS (hand-offs live
// above 1) and stops it when the test ends.
func handoffServer(t *testing.T, cfg Config, procs int) *server {
	t.Helper()
	var s *server
	withProcs(procs, func() {
		var err error
		if s, err = newServer(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Cleanup(s.stop)
	return s
}

// fullBatch is MaxBatch requests for distinct vertices from first on.
func fullBatch(first int) []Request {
	batch := make([]Request, 32)
	for i := range batch {
		batch[i] = Request{ID: first + i, Vertex: int32(first + i)}
	}
	return batch
}

// The settle rules, driven one dispatch at a time. An outstanding batch's
// entries are inserted at dispatch with no value and filled, bit for bit the
// inline values, when it settles — at the latest before the next insert into
// an enabled cache.
func TestHandoffSettlesBeforeInsert(t *testing.T) {
	ds, m := grainSetup(t)
	cfg := handoffConfig(t, ds, m)
	cfg.Faults, cfg.CacheSize = nil, 1024
	async, inline := handoffServer(t, cfg, 2), handoffServer(t, cfg, 1)
	for _, s := range []*server{async, inline} {
		if err := s.dispatch(fullBatch(0), 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	if async.handoffs != 1 {
		t.Fatalf("%d hand-offs after a full batch, want 1", async.handoffs)
	}
	first := func(s *server) []cacheRow {
		var rows []cacheRow
		for _, shard := range cacheDump(s.cache) {
			for _, r := range shard {
				if r.Key.Vertex < 32 {
					rows = append(rows, r)
				}
			}
		}
		return rows
	}
	for _, r := range first(async) {
		if len(r.Emb) != 0 {
			t.Fatalf("vertex %d's value landed before its batch settled", r.Key.Vertex)
		}
	}
	// The next computed batch inserts too: the outstanding one settles first.
	for _, s := range []*server{async, inline} {
		if err := s.dispatch(fullBatch(100), 2e-3); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := first(async), first(inline); len(want) != 32 || !reflect.DeepEqual(got, want) {
		t.Fatalf("settled entries differ from the inline run's (%d vs %d resident)", len(got), len(want))
	}
	if err := async.settleAll(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cacheDump(async.cache), cacheDump(inline.cache)) {
		t.Fatal("final cache differs from the inline run's")
	}
}

// breakForwards makes every later forward fail (the feature table no longer
// matches the model) while sampling and pricing still succeed, so an error
// surfaces only where a batch settles.
func breakForwards(ds *datagen.Dataset) {
	ds.Features = tensor.New(ds.Features.Rows, ds.Features.Cols+1)
}

// oneWorkerServer serves the grain fixture on one CPU worker with the cache
// disabled, at GOMAXPROCS 2, over a view of the dataset the caller may break.
func oneWorkerServer(t *testing.T, ds *datagen.Dataset, m *gnn.Model) *server {
	t.Helper()
	cfg := handoffConfig(t, ds, m)
	cfg.Faults, cfg.CacheSize, cfg.Plat.Accels = nil, 0, nil
	return handoffServer(t, cfg, 2)
}

// outstanding counts w's forwards in flight.
func outstanding(w *worker) int {
	n := 0
	for _, h := range w.out {
		if h.res != nil {
			n++
		}
	}
	return n
}

// A worker's outstanding batch settles before its slot is sampled again:
// with the cache disabled nothing else settles it, so a failed forward
// surfaces exactly at the dispatch that reuses its slot — the worker's
// next-but-one — or where settleAll runs.
func TestHandoffSettlesBeforeResample(t *testing.T) {
	ds, m := grainSetup(t)
	broken := func(t *testing.T, dispatches int) *server {
		view := *ds
		s := oneWorkerServer(t, &view, m)
		breakForwards(&view)
		for i := 0; i < dispatches; i++ {
			if err := s.dispatch(fullBatch(100*i), float64(i+1)*1e-3); err != nil {
				t.Fatalf("dispatch %d: a handed-off forward's error surfaced before its slot was reused: %v", i, err)
			}
		}
		return s
	}
	t.Run("next-but-one", func(t *testing.T) {
		s := broken(t, 2)
		err := s.dispatch(fullBatch(200), 3e-3)
		if err == nil || !strings.Contains(err.Error(), "feature matrix") {
			t.Fatalf("the worker sampled into a slot without settling its failed forward: %v", err)
		}
	})
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("settleAll-after-%d", n), func(t *testing.T) {
			s := broken(t, n)
			if err := s.settleAll(); err == nil || !strings.Contains(err.Error(), "feature matrix") {
				t.Fatalf("settleAll lost the failed forward: %v", err)
			}
		})
	}
}

// A worker holds two batches: after two full batches both forwards are
// outstanding, and a third dispatch settles exactly the first — its slot
// then holds the third batch while the second still propagates.
func TestHandoffTwoInFlight(t *testing.T) {
	ds, m := grainSetup(t)
	s := oneWorkerServer(t, ds, m)
	w := s.pool[0]
	// held returns the first target of each slot's outstanding batch (-1:
	// none outstanding).
	held := func() [2]int32 {
		got := [2]int32{-1, -1}
		for i, h := range w.out {
			if h.res != nil {
				got[i] = h.res.Targets[0]
			}
		}
		return got
	}
	for i, want := range [][2]int32{{0, -1}, {0, 100}, {200, 100}} {
		if err := s.dispatch(fullBatch(100*i), float64(i+1)*1e-3); err != nil {
			t.Fatal(err)
		}
		if s.handoffs != i+1 {
			t.Fatalf("%d hand-offs after %d full batches", s.handoffs, i+1)
		}
		if got := held(); got != want {
			t.Fatalf("after batch %d the slots hold batches starting at %v, want %v", i, got, want)
		}
	}
	if err := s.settleAll(); err != nil {
		t.Fatal(err)
	}
	if n := outstanding(w); n != 0 {
		t.Fatalf("%d forwards outstanding after settleAll", n)
	}
}

// Before any insert into an enabled cache, every outstanding batch settles,
// other workers' included; with the cache disabled, another worker's batch
// stays outstanding, so its forward keeps overlapping the loop.
func TestHandoffSettlesAllBeforeCacheInsert(t *testing.T) {
	ds, m := grainSetup(t)
	for _, cacheSize := range []int{0, 1024} {
		t.Run(fmt.Sprintf("cache=%d", cacheSize), func(t *testing.T) {
			cfg := handoffConfig(t, ds, m)
			cfg.Faults, cfg.CacheSize, cfg.CPUPeer = nil, cacheSize, false
			s := handoffServer(t, cfg, 2)
			for i, first := range []int{0, 100} {
				if err := s.dispatch(fullBatch(first), 1e-3); err != nil {
					t.Fatal(err)
				}
				if s.handoffs != i+1 {
					t.Fatalf("%d hand-offs after %d full batches", s.handoffs, i+1)
				}
			}
			a, b := s.stats.Routes[0], s.stats.Routes[1]
			if a == b {
				t.Fatalf("both batches routed to worker %d; the test needs two", a)
			}
			if settled := outstanding(s.pool[a]) == 0; settled != (cacheSize > 0) {
				t.Fatalf("cache %d: worker %d's batch settled=%v when worker %d's batch was inserted",
					cacheSize, a, settled, b)
			}
			if outstanding(s.pool[b]) != 1 {
				t.Fatalf("worker %d's own batch settled at its dispatch", b)
			}
		})
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to base: a stopped worker's goroutine has closed its channel and returns
// right after.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the run", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every return of a run — success, a sampling error, a handed-off
// forward's error — drains the outstanding forwards and stops the workers'
// goroutines; an error surfaces with its root cause and never hangs.
func TestHandoffNoGoroutineLeak(t *testing.T) {
	ds, m := grainSetup(t)
	withProcs(4, func() {
		base := runtime.NumGoroutine()
		cfg := handoffConfig(t, ds, m)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base, "success")

		// Sampling fails once the graph the workers sample no longer holds
		// the requested vertices: by then a worker has two forwards
		// outstanding.
		graph := *ds.Graph
		view := *ds
		view.Graph = &graph
		cfg = handoffConfig(t, &view, m)
		cfg.Faults, cfg.CacheSize = nil, 0
		s, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		twoDeep := func() bool {
			for _, w := range s.pool {
				if outstanding(w) == 2 {
					return true
				}
			}
			return false
		}
		offered := 0
		for ; offered < len(s.arrivals) && !twoDeep(); offered++ {
			if err := s.offer(s.arrivals[offered]); err != nil {
				t.Fatal(err)
			}
		}
		if !twoDeep() {
			t.Fatal("no worker ever held two forwards; the drain would test less than it claims")
		}
		graph.NumVertices = 1
		s.arrivals = s.arrivals[offered:]
		if _, err := s.run(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("sampling error lost its root cause: %v", err)
		}
		waitGoroutines(t, base, "sampling error")

		// A handed-off forward fails: the error surfaces where its batch
		// settles.
		view = *ds
		cfg = handoffConfig(t, &view, m)
		cfg.Faults = nil
		if s, err = newServer(cfg); err != nil {
			t.Fatal(err)
		}
		breakForwards(&view)
		if _, err := s.run(); err == nil || !strings.Contains(err.Error(), "feature matrix") {
			t.Fatalf("forward error lost its root cause: %v", err)
		}
		if s.handoffs == 0 {
			t.Fatal("no forward was handed off before the error")
		}
		waitGoroutines(t, base, "forward error")
	})
}

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
// gpu-lean, so a forward costs more than the loop's work around it and a
// worker's hand-offs pile up behind the one it is running.
func grainSetup(t testing.TB) (*datagen.Dataset, *gnn.Model) {
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

// gate replaces an executor's goroutine with one that runs each handed-off
// forward only when the test lets it, so a test decides which forwards have
// finished when the loop looks.
type gate struct {
	release chan struct{}
	ran     chan forward
}

// gates holds each gated executor's gate, so workers sharing an executor
// share its gate.
var gates = map[*executor]*gate{}

// gateWorker gates w's executor, with no forward in flight: its goroutine is
// swapped for one that runs each forward through the same executor.run once
// the gate lets it. Workers sharing an executor share its gate, which opens
// when the test ends.
func gateWorker(t *testing.T, w *worker) *gate {
	t.Helper()
	e := w.exec
	if e == nil || w.pending != 0 || e.inflight.Load() != 0 {
		t.Fatal("gateWorker needs an idle worker with hand-offs live")
	}
	if g := gates[e]; g != nil {
		return g
	}
	depth := cap(e.req)
	e.stop()
	g := &gate{release: make(chan struct{}), ran: make(chan forward, depth)}
	e.req, e.ws, e.exited = make(chan forward, depth), tensor.NewWorkspace(), make(chan struct{})
	go func() {
		defer close(e.exited)
		for f := range e.req {
			<-g.release
			e.run(f)
			g.ran <- f
		}
		e.ws = nil
	}()
	gates[e] = g
	t.Cleanup(func() {
		delete(gates, e)
		close(g.release)
	})
	return g
}

// run lets the executor's next n handed-off forwards run and waits until
// they have.
func (g *gate) run(n int) {
	for i := 0; i < n; i++ {
		g.next()
	}
}

// next lets the executor's next handed-off forward run and returns it once
// it has.
func (g *gate) next() forward {
	g.release <- struct{}{}
	return <-g.ran
}

// dispatchAll dispatches the full batch from first on, closing at closeAt,
// on every server.
func dispatchAll(t *testing.T, first int, closeAt float64, servers ...*server) {
	t.Helper()
	for _, s := range servers {
		if err := s.dispatch(fullBatch(first), closeAt); err != nil {
			t.Fatal(err)
		}
	}
}

// firstRows lists the resident entries of vertices below 32 (fullBatch(0)'s).
func firstRows(s *server) []cacheRow {
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

// An outstanding batch's entries are inserted at dispatch with no value and
// stay so across later inserts — no insert waits for a forward — until the
// batch settles, which fills them bit for bit with the inline values.
func TestHandoffFillsOnSettle(t *testing.T) {
	ds, m := grainSetup(t)
	async, inline := oneWorkerServer(t, ds, m, 1024, 2), oneWorkerServer(t, ds, m, 1024, 1)
	w := async.pool[0]
	g := gateWorker(t, w)
	unfilled := func(when string) {
		rows := firstRows(async)
		if len(rows) != 32 {
			t.Fatalf("%s: %d of the first batch's entries resident, want 32", when, len(rows))
		}
		for _, r := range rows {
			if len(r.Emb) != 0 {
				t.Fatalf("%s: vertex %d's value landed before its batch settled", when, r.Key.Vertex)
			}
		}
	}
	dispatchAll(t, 0, 1e-3, async, inline)
	unfilled("after its dispatch")
	// The next batch inserts too, while the first one's forward is held.
	dispatchAll(t, 100, 2e-3, async, inline)
	if async.handoffs != 2 || outstanding(w) != 2 {
		t.Fatalf("%d hand-offs, %d outstanding after two full batches, want 2 and 2", async.handoffs, outstanding(w))
	}
	unfilled("after the next insert")
	// Its forward finishes: the worker's next dispatch settles it.
	g.run(1)
	dispatchAll(t, 200, 3e-3, async, inline)
	if got, want := firstRows(async), firstRows(inline); !reflect.DeepEqual(got, want) {
		t.Fatalf("settled entries differ from the inline run's (%d vs %d resident)", len(got), len(want))
	}
	g.run(2)
	if err := async.settleAll(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cacheDump(async.cache), cacheDump(inline.cache)) {
		t.Fatal("final cache differs from the inline run's")
	}
}

// A late row never lands over a newer one. Batch A is outstanding while the
// next batch evicts its entries and, the worker's ring full, a third batch
// re-inserts A's keys and computes them inline. When A then settles, the
// resident rows are still the newer batch's: the cache is the inline run's
// bit for bit.
func TestHandoffStaleFillDropped(t *testing.T) {
	ds, m := grainSetup(t)
	cfg := handoffConfig(t, ds, m)
	cfg.Faults, cfg.Plat.Accels, cfg.CacheSize, cfg.CacheShards = nil, nil, 32, 1
	async, inline := handoffServer(t, cfg, 2), handoffServer(t, cfg, 1)
	w := async.pool[0]
	g := gateWorker(t, w)
	depth := len(w.out)
	// A, depth-3 batches that keep A outstanding (the first evicts it), then
	// A's vertices again.
	firsts := []int{0}
	for i := 1; i <= depth-3; i++ {
		firsts = append(firsts, 100*i)
	}
	firsts = append(firsts, 0)
	var stale []cacheRow
	for i, first := range firsts {
		dispatchAll(t, first, float64(i+1)*1e-3, async, inline)
		if i == 0 {
			stale = firstRows(inline)
		}
	}
	if async.handoffs != depth-2 || outstanding(w) != depth-2 {
		t.Fatalf("%d hand-offs, %d outstanding, want %d each: the re-insert did not run inline",
			async.handoffs, outstanding(w), depth-2)
	}
	fresh := firstRows(inline)
	if len(fresh) != 32 || reflect.DeepEqual(fresh, stale) {
		t.Fatal("the re-inserted rows equal the evicted ones: the test would not see a stale fill")
	}
	g.run(depth - 2)
	if err := async.settleAll(); err != nil {
		t.Fatal(err)
	}
	if got := firstRows(async); !reflect.DeepEqual(got, fresh) {
		t.Fatal("a settling batch overwrote the rows a newer insert wrote")
	}
	if !reflect.DeepEqual(cacheDump(async.cache), cacheDump(inline.cache)) {
		t.Fatal("final cache differs from the inline run's")
	}
}

// breakForwards makes every later forward fail (the feature table no longer
// matches the model) while sampling and pricing still succeed, so an error
// surfaces only where a batch settles or runs inline.
func breakForwards(ds *datagen.Dataset) {
	ds.Features = tensor.New(ds.Features.Rows, ds.Features.Cols+1)
}

// oneWorkerServer serves the grain fixture on one CPU worker at the given
// GOMAXPROCS and cache size.
func oneWorkerServer(t *testing.T, ds *datagen.Dataset, m *gnn.Model, cacheSize, procs int) *server {
	t.Helper()
	cfg := handoffConfig(t, ds, m)
	cfg.Faults, cfg.CacheSize, cfg.Plat.Accels = nil, cacheSize, nil
	return handoffServer(t, cfg, procs)
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

// An outstanding batch settles before its slot is sampled again, waiting
// for its forward if it must (ring-wrap); one whose forward has finished
// settles at the worker's next dispatch, its error surfacing there (reap);
// settleAll settles the rest (settleAll-after-n). The cache is disabled, so
// nothing else settles a batch.
func TestHandoffSettlesBeforeResample(t *testing.T) {
	ds, m := grainSetup(t)
	t.Run("ring-wrap", func(t *testing.T) {
		s := oneWorkerServer(t, ds, m, 0, 2)
		w := s.pool[0]
		g := gateWorker(t, w)
		depth := len(w.out)
		for i := 0; i < depth; i++ {
			dispatchAll(t, 100*i, float64(i+1)*1e-3, s)
		}
		returned := make(chan error, 1)
		go func() { returned <- s.dispatch(fullBatch(100*depth), float64(depth+1)*1e-3) }()
		select {
		case err := <-returned:
			t.Fatalf("the worker sampled over batch 0's slot while its forward was held (error %v)", err)
		case <-time.After(20 * time.Millisecond):
		}
		g.run(1)
		if err := <-returned; err != nil {
			t.Fatal(err)
		}
		if h := w.out[0].res; h == nil || h.Targets[0] != int32(100*depth) {
			t.Fatalf("slot 0 holds %v, want the batch just dispatched", h)
		}
		if outstanding(w) != depth-2 {
			t.Fatalf("%d forwards outstanding, want %d", outstanding(w), depth-2)
		}
	})
	// broken dispatches n full batches whose forwards fail, held at the gate.
	broken := func(t *testing.T, n int) (*server, *gate) {
		view := *ds
		s := oneWorkerServer(t, &view, m, 0, 2)
		g := gateWorker(t, s.pool[0])
		breakForwards(&view)
		for i := 0; i < n; i++ {
			if err := s.dispatch(fullBatch(100*i), float64(i+1)*1e-3); err != nil {
				t.Fatalf("dispatch %d: a held forward's error surfaced: %v", i, err)
			}
		}
		return s, g
	}
	t.Run("reap", func(t *testing.T) {
		s, g := broken(t, 1)
		g.run(1)
		err := s.dispatch(fullBatch(100), 2e-3)
		if err == nil || !strings.Contains(err.Error(), "feature matrix") {
			t.Fatalf("the worker's next dispatch did not settle its failed forward: %v", err)
		}
	})
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("settleAll-after-%d", n), func(t *testing.T) {
			s, g := broken(t, n)
			g.run(n)
			if err := s.settleAll(); err == nil || !strings.Contains(err.Error(), "feature matrix") {
				t.Fatalf("settleAll lost the failed forward: %v", err)
			}
		})
	}
}

// A worker holds Depth() batches. Hand-offs fill all but two of its slots;
// while they are outstanding the loop runs each further forward itself
// (caller runs). A forward that has finished frees its slot at the worker's
// next dispatch, which hands off again.
func TestHandoffRingDepth(t *testing.T) {
	ds, m := grainSetup(t)
	s := oneWorkerServer(t, ds, m, 0, 2)
	w := s.pool[0]
	g := gateWorker(t, w)
	depth := len(w.out)
	// held returns the first target of each slot's outstanding batch (-1:
	// none outstanding).
	held := func() []int32 {
		got := make([]int32, depth)
		for i, h := range w.out {
			got[i] = -1
			if h.res != nil {
				got[i] = h.res.Targets[0]
			}
		}
		return got
	}
	want := make([]int32, depth)
	for i := range want {
		want[i] = -1
	}
	for i := 0; i < depth; i++ {
		dispatchAll(t, 100*i, float64(i+1)*1e-3, s)
		if n := min(i+1, depth-2); s.handoffs != n || outstanding(w) != n {
			t.Fatalf("after %d full batches: %d hand-offs, %d outstanding, want %d each",
				i+1, s.handoffs, outstanding(w), n)
		}
		if i < depth-2 {
			want[i] = int32(100 * i)
		}
	}
	if got := held(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the slots hold batches starting at %v, want %v", got, want)
	}
	// Batches 0 and 1 finish: the next dispatch settles both, reuses slot 0
	// and hands off.
	g.run(2)
	dispatchAll(t, 100*depth, float64(depth+1)*1e-3, s)
	want[0], want[1] = int32(100*depth), -1
	if got := held(); !reflect.DeepEqual(got, want) || s.handoffs != depth-1 {
		t.Fatalf("after the finished forwards: slots %v, %d hand-offs; want %v, %d", got, s.handoffs, want, depth-1)
	}
	g.run(outstanding(w))
	if err := s.settleAll(); err != nil {
		t.Fatal(err)
	}
	if n := outstanding(w); n != 0 {
		t.Fatalf("%d forwards outstanding after settleAll", n)
	}
}

// No insert settles anything: whether the cache is enabled or not, a batch
// outstanding on one worker stays outstanding while another worker's batch
// is inserted, so its forward keeps overlapping the loop.
func TestHandoffOutstandingAcrossInsert(t *testing.T) {
	ds, m := grainSetup(t)
	for _, cacheSize := range []int{0, 1024} {
		t.Run(fmt.Sprintf("cache=%d", cacheSize), func(t *testing.T) {
			cfg := handoffConfig(t, ds, m)
			cfg.Faults, cfg.CacheSize, cfg.CPUPeer = nil, cacheSize, false
			s := handoffServer(t, cfg, 2)
			for _, w := range s.pool {
				gateWorker(t, w)
			}
			dispatchAll(t, 0, 1e-3, s)
			dispatchAll(t, 100, 1e-3, s)
			a, b := s.stats.Routes[0], s.stats.Routes[1]
			if a == b {
				t.Fatalf("both batches routed to worker %d; the test needs two", a)
			}
			if outstanding(s.pool[a]) != 1 || outstanding(s.pool[b]) != 1 {
				t.Fatalf("cache %d: %d and %d forwards outstanding on workers %d and %d, want 1 and 1",
					cacheSize, outstanding(s.pool[a]), outstanding(s.pool[b]), a, b)
			}
		})
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to base: a stopped executor's goroutine has closed its exit channel and
// returns right after.
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

// joined checks that the run's stop joined its executors: by the time it
// returned, each one's goroutine had dropped its arena and signalled its exit.
func joined(t *testing.T, s *server, what string) {
	t.Helper()
	if len(s.execs) == 0 {
		t.Fatalf("%s: the run had no executors", what)
	}
	for i, e := range s.execs {
		select {
		case <-e.exited:
		default:
			t.Fatalf("%s: stop returned before executor %d's goroutine exited", what, i)
		}
		if e.req != nil || e.ws != nil {
			t.Fatalf("%s: executor %d still holds its channel or its arena", what, i)
		}
	}
}

// Every return of a run — success, a sampling error, a handed-off
// forward's error — drains the outstanding forwards and joins the
// executors, whose arenas are then garbage (so a heap reading taken after a
// run never counts them); an error surfaces with its root cause and never
// hangs.
func TestHandoffNoGoroutineLeak(t *testing.T) {
	ds, m := grainSetup(t)
	withProcs(4, func() {
		base := runtime.NumGoroutine()
		cfg := handoffConfig(t, ds, m)
		s, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		collected := make(chan struct{}, len(s.execs))
		for _, e := range s.execs {
			runtime.SetFinalizer(e.ws, func(*tensor.Workspace) { collected <- struct{}{} })
		}
		if _, err := s.run(); err != nil {
			t.Fatal(err)
		}
		joined(t, s, "success")
		deadline := time.Now().Add(time.Second)
		for n := 0; n < len(s.execs); {
			runtime.GC()
			select {
			case <-collected:
				n++
			case <-time.After(time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d executor arenas still reachable after the run", len(s.execs)-n, len(s.execs))
				}
			}
		}
		waitGoroutines(t, base, "success")

		// Sampling fails once the graph the workers sample no longer holds
		// the requested vertices: by then a worker has at least two forwards
		// outstanding.
		graph := *ds.Graph
		view := *ds
		view.Graph = &graph
		cfg = handoffConfig(t, &view, m)
		cfg.Faults, cfg.CacheSize = nil, 0
		if s, err = newServer(cfg); err != nil {
			t.Fatal(err)
		}
		twoDeep := func() bool {
			for _, w := range s.pool {
				if outstanding(w) >= 2 {
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
		joined(t, s, "sampling error")
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
		joined(t, s, "forward error")
		waitGoroutines(t, base, "forward error")
	})
}

// fleetConfig serves the grain fixture on four FPGA workers and the CPU
// peer (a pool of five) with the cache disabled, so that at GOMAXPROCS 2
// and 4 some executor serves more than one worker.
func fleetConfig(t *testing.T, ds *datagen.Dataset, m *gnn.Model) Config {
	t.Helper()
	cfg := handoffConfig(t, ds, m)
	cfg.Faults, cfg.Workers, cfg.CacheSize = nil, 4, 0
	return cfg
}

// There are min(GOMAXPROCS-1, len(pool)) executors, none at one proc, and
// worker i hands its forwards to executor i mod n.
func TestHandoffExecutorBinding(t *testing.T) {
	ds, m := grainSetup(t)
	pools := map[string]func(*Config){
		"cpu":        func(cfg *Config) { cfg.Plat.Accels, cfg.CPUPeer = nil, false },
		"fpga+peer":  func(cfg *Config) { cfg.Workers = 1 },
		"4fpga+peer": func(cfg *Config) {},
	}
	for _, procs := range []int{1, 2, 4} {
		for _, name := range []string{"cpu", "fpga+peer", "4fpga+peer"} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/%s", procs, name), func(t *testing.T) {
				cfg := fleetConfig(t, ds, m)
				pools[name](&cfg)
				s := handoffServer(t, cfg, procs)
				n := min(procs-1, len(s.pool))
				if len(s.execs) != n || s.handoff != (n > 0) {
					t.Fatalf("pool of %d: %d executors (hand-off %v), want %d", len(s.pool), len(s.execs), s.handoff, n)
				}
				for i, w := range s.pool {
					var want *executor
					if n > 0 {
						want = s.execs[i%n]
					}
					if w.exec != want {
						t.Fatalf("worker %d is bound to the wrong executor", i)
					}
				}
			})
		}
	}
}

// gatedFleet serves fleetConfig at procs with every executor gated, and its
// inline twin at one proc with the cache enabled on both. It dispatches the
// same full batches to both, all closing at the same instant so the router
// spreads them over the pool, until a worker has sampled into each of its
// slots once (one more could wait on a held forward). After each dispatch
// it calls check with the batch's worker and whether it was handed off.
func gatedFleet(t *testing.T, ds *datagen.Dataset, m *gnn.Model, procs int, check func(s *server, wi int, handed bool)) (*server, *server) {
	t.Helper()
	cfg := fleetConfig(t, ds, m)
	cfg.CacheSize = 4096
	s, inline := handoffServer(t, cfg, procs), handoffServer(t, cfg, 1)
	for _, w := range s.pool {
		gateWorker(t, w)
	}
	depth := len(s.pool[0].out)
	for i := 0; ; i++ {
		for _, w := range s.pool {
			if w.samples == depth {
				return s, inline
			}
		}
		before := s.handoffs
		dispatchAll(t, 100*i, 1e-3, s, inline)
		check(s, s.stats.Routes[len(s.stats.Routes)-1], s.handoffs > before)
	}
}

// A gated executor never holds more than Depth()-2 forwards in flight
// across its workers: once it does, a further batch for any of them runs
// inline even though its own worker has room.
func TestHandoffExecutorBound(t *testing.T) {
	ds, m := grainSetup(t)
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			full, bounded := 0, 0
			check := func(s *server, wi int, handed bool) {
				room := len(s.pool[0].out) - 2
				for i, e := range s.execs {
					held, holders := 0, 0
					for _, w := range s.pool {
						if w.exec == e && outstanding(w) > 0 {
							held += outstanding(w)
							holders++
						}
					}
					if in := int(e.inflight.Load()); in != held || in > room {
						t.Fatalf("executor %d: %d in flight, its workers hold %d, bound %d", i, in, held, room)
					}
					if held == room && holders > 1 {
						full++
					}
				}
				if !handed && outstanding(s.pool[wi]) < room {
					bounded++
				}
			}
			gatedFleet(t, ds, m, procs, check)
			t.Logf("%d dispatches found an executor full across its workers, %d ran inline at the bound", full, bounded)
			if full == 0 || bounded == 0 {
				t.Fatalf("no executor reached its bound across two workers (%d) or no batch ran inline at it (%d)", full, bounded)
			}
		})
	}
}

// Each worker's forwards settle in hand-off order, whichever of the
// executor's workers handed them off: the executor runs them first in,
// first out, and the forward that has just run is its worker's oldest
// outstanding batch, which settles without waiting. Settled, the cache is
// the inline run's bit for bit.
func TestHandoffSettlesInHandoffOrder(t *testing.T) {
	ds, m := grainSetup(t)
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			queued := map[*executor][]forward{}
			check := func(s *server, wi int, handed bool) {
				if w := s.pool[wi]; handed {
					queued[w.exec] = append(queued[w.exec], forward{w: w, res: w.out[(w.samples-1)%len(w.out)].res, batch: s.stats.Batches - 1})
				}
			}
			s, inline := gatedFleet(t, ds, m, procs, check)
			shared := false
			for e, fs := range queued {
				g := gates[e]
				for _, want := range fs {
					shared = shared || want.w != fs[0].w
					if got := g.next(); got != want {
						t.Fatal("the executor ran a forward out of hand-off order")
					}
					w := want.w
					oldest := -1
					for k := range w.out {
						if i := (w.samples + k) % len(w.out); w.out[i].res != nil {
							oldest = i
							break
						}
					}
					if w.out[oldest].res != want.res {
						t.Fatal("the forward that ran is not its worker's oldest outstanding batch")
					}
					if settled, err := s.settle(w, oldest, false); err != nil || !settled {
						t.Fatalf("the forward that ran did not settle without waiting (settled %v, error %v)", settled, err)
					}
				}
			}
			if !shared {
				t.Fatal("no executor ran forwards of two workers: the order would test less than it claims")
			}
			if err := s.settleAll(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cacheDump(s.cache), cacheDump(inline.cache)) {
				t.Fatal("final cache differs from the inline run's")
			}
		})
	}
}

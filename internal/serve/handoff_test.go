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

// gate replaces an executor's goroutine with one that takes each queued
// forward only when the test lets it, so a gated forward stays queued — and
// the loop may claim it — until the test releases it. A released message
// whose forward is still queued is claimed and run, or held running until
// the test resumes it; one the loop took is skipped.
type gate struct {
	release chan bool // lets the next message be taken; true holds its forward once claimed
	resume  chan struct{}
	ran     chan taken
	opened  chan struct{} // closed when the test ends: every message then goes through
}

// taken is what a gated executor did with one message: claimed reports
// whether it took the forward (false: the loop or stop had).
type taken struct {
	f       forward
	claimed bool
}

// gates holds each gated executor's gate, so workers sharing an executor
// share its gate.
var gates = map[*executor]*gate{}

// gateWorker gates w's executor, with no forward outstanding: its goroutine
// is swapped for one that claims each message's forward once the gate lets
// it and runs it through the same executor.run. Workers sharing an executor
// share its gate, which opens when the test ends.
func gateWorker(t *testing.T, w *worker) *gate {
	t.Helper()
	e := w.exec
	if e == nil || outstanding(w) != 0 || len(e.req) != 0 {
		t.Fatal("gateWorker needs an idle worker with hand-offs live")
	}
	if g := gates[e]; g != nil {
		return g
	}
	depth := cap(e.req)
	e.stop()
	g := &gate{release: make(chan bool), resume: make(chan struct{}), ran: make(chan taken, 1), opened: make(chan struct{})}
	e.req, e.ws, e.exited = make(chan forward, depth), tensor.NewWorkspace(), make(chan struct{})
	go func() {
		defer close(e.exited)
		for f := range e.req {
			hold := false
			select {
			case hold = <-g.release:
			case <-g.opened:
			}
			claimed := f.h.claim(f.gen)
			if claimed && hold {
				g.report(taken{f, true})
				select {
				case <-g.resume:
				case <-g.opened:
				}
			}
			if claimed {
				e.run(f)
			}
			if !claimed || !hold {
				g.report(taken{f, claimed})
			}
		}
		e.ws = nil
	}()
	gates[e] = g
	t.Cleanup(func() {
		delete(gates, e)
		close(g.opened)
	})
	return g
}

// report hands the test what the executor did with a message, unless the
// test has ended.
func (g *gate) report(x taken) {
	select {
	case g.ran <- x:
	case <-g.opened:
	}
}

// run lets the executor take its next n messages and waits until it has,
// failing if the loop had claimed any of their forwards.
func (g *gate) run(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if x := g.next(); !x.claimed {
			t.Fatalf("the executor found batch %d's forward taken", x.f.h.batch)
		}
	}
}

// next lets the executor take its next message and returns what it did
// once it has: ran the forward, or skipped it.
func (g *gate) next() taken {
	g.release <- false
	return <-g.ran
}

// hold lets the executor take its next message and, if it claims the
// forward, hold it running until resume.
func (g *gate) hold() taken {
	g.release <- true
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
	g.run(t, 1)
	dispatchAll(t, 200, 3e-3, async, inline)
	if got, want := firstRows(async), firstRows(inline); !reflect.DeepEqual(got, want) {
		t.Fatalf("settled entries differ from the inline run's (%d vs %d resident)", len(got), len(want))
	}
	g.run(t, 2)
	if err := async.settleAll(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cacheDump(async.cache), cacheDump(inline.cache)) {
		t.Fatal("final cache differs from the inline run's")
	}
}

// A late row never lands over a newer one. Batch A is queued while the
// next batch evicts its entries and a third batch re-inserts A's keys. The
// loop claims the third batch's forward and settles it first; when A then
// settles, its fill is dropped and the resident rows are still the newer
// batch's: the cache is the inline run's bit for bit.
func TestHandoffStaleFillDropped(t *testing.T) {
	ds, m := grainSetup(t)
	cfg := handoffConfig(t, ds, m)
	cfg.Faults, cfg.Plat.Accels, cfg.CacheSize, cfg.CacheShards = nil, nil, 32, 1
	async, inline := handoffServer(t, cfg, 2), handoffServer(t, cfg, 1)
	w := async.pool[0]
	gateWorker(t, w)
	var stale []cacheRow
	for i, first := range []int{0, 100, 0} { // A, a batch that evicts A, A's vertices again
		dispatchAll(t, first, float64(i+1)*1e-3, async, inline)
		if i == 0 {
			stale = firstRows(inline)
		}
	}
	if async.handoffs != 3 || outstanding(w) != 3 {
		t.Fatalf("%d hand-offs, %d outstanding, want 3 each", async.handoffs, outstanding(w))
	}
	fresh := firstRows(inline)
	if len(fresh) != 32 || reflect.DeepEqual(fresh, stale) {
		t.Fatal("the re-inserted rows equal the evicted ones: the test would not see a stale fill")
	}
	if _, err := async.settle(w, 2, true); err != nil {
		t.Fatal(err)
	}
	if got := firstRows(async); !reflect.DeepEqual(got, fresh) {
		t.Fatal("the re-insert's claimed forward did not fill its rows")
	}
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

// outstanding counts w's outstanding batches.
func outstanding(w *worker) int {
	n := 0
	for i := range w.out {
		if w.out[i].res != nil {
			n++
		}
	}
	return n
}

// An outstanding batch settles before its slot is sampled again: if its
// forward is running, the loop runs every queued forward itself and then
// waits for it (ring-wrap); one whose forward has finished settles at the
// worker's next dispatch, its error surfacing there (reap); settleAll
// settles the rest (settleAll-after-n). The cache is disabled, so nothing
// else settles a batch.
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
		if x := g.hold(); !x.claimed || x.f.h != &w.out[0] {
			t.Fatal("the executor did not hold batch 0's forward")
		}
		returned := make(chan error, 1)
		go func() { returned <- s.dispatch(fullBatch(100*depth), float64(depth+1)*1e-3) }()
		select {
		case err := <-returned:
			t.Fatalf("the worker sampled over batch 0's slot while its forward was held (error %v)", err)
		case <-time.After(20 * time.Millisecond):
		}
		g.resume <- struct{}{}
		if err := <-returned; err != nil {
			t.Fatal(err)
		}
		if h := w.out[0].res; h == nil || h.Targets[0] != int32(100*depth) {
			t.Fatalf("slot 0 holds %v, want the batch just dispatched", h)
		}
		if outstanding(w) != 1 {
			t.Fatalf("%d forwards outstanding, want 1: the loop left a queued forward", outstanding(w))
		}
		for i := 1; i < depth; i++ {
			if x := g.next(); x.claimed || x.f.h != &w.out[i] {
				t.Fatalf("the executor ran batch %d's forward (claimed %v), which the loop had taken", i, x.claimed)
			}
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
		g.run(t, 1)
		err := s.dispatch(fullBatch(100), 2e-3)
		if err == nil || !strings.Contains(err.Error(), "feature matrix") {
			t.Fatalf("the worker's next dispatch did not settle its failed forward: %v", err)
		}
	})
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("settleAll-after-%d", n), func(t *testing.T) {
			s, g := broken(t, n)
			g.run(t, n)
			if err := s.settleAll(); err == nil || !strings.Contains(err.Error(), "feature matrix") {
				t.Fatalf("settleAll lost the failed forward: %v", err)
			}
		})
	}
}

// A worker holds Depth() batches, and every forward is handed off: with the
// executor gated, each dispatch queues one more until every slot holds an
// outstanding batch. A forward that has finished frees its slot at the
// worker's next dispatch, which hands off again.
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
		for i := range w.out {
			got[i] = -1
			if h := w.out[i].res; h != nil {
				got[i] = h.Targets[0]
			}
		}
		return got
	}
	want := make([]int32, depth)
	for i := 0; i < depth; i++ {
		dispatchAll(t, 100*i, float64(i+1)*1e-3, s)
		if s.handoffs != i+1 || outstanding(w) != i+1 {
			t.Fatalf("after %d full batches: %d hand-offs, %d outstanding, want %d each",
				i+1, s.handoffs, outstanding(w), i+1)
		}
		want[i] = int32(100 * i)
	}
	if got := held(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the slots hold batches starting at %v, want %v", got, want)
	}
	// Batches 0 and 1 finish: the next dispatch settles both, reuses slot 0
	// and hands off.
	g.run(t, 2)
	dispatchAll(t, 100*depth, float64(depth+1)*1e-3, s)
	want[0], want[1] = int32(100*depth), -1
	if got := held(); !reflect.DeepEqual(got, want) || s.handoffs != depth+1 {
		t.Fatalf("after the finished forwards: slots %v, %d hand-offs; want %v, %d", got, s.handoffs, want, depth+1)
	}
	g.run(t, outstanding(w))
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
// slots once (one more would rebuild a slot whose forward is queued, which
// the loop would claim). After each dispatch
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

// An executor takes its forwards in hand-off order, whichever of its
// workers handed them off, and a forward it has run settles without
// waiting, whichever slot of its worker it holds. Settled, the cache is the
// inline run's bit for bit.
func TestHandoffSettlesInHandoffOrder(t *testing.T) {
	ds, m := grainSetup(t)
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			type slot struct {
				w *worker
				i int
			}
			queued := map[*executor][]slot{}
			check := func(s *server, wi int, handed bool) {
				if w := s.pool[wi]; handed {
					queued[w.exec] = append(queued[w.exec], slot{w, (w.samples - 1) % len(w.out)})
				}
			}
			s, inline := gatedFleet(t, ds, m, procs, check)
			shared := false
			for e, slots := range queued {
				g := gates[e]
				for _, want := range slots {
					shared = shared || want.w != slots[0].w
					if x := g.next(); !x.claimed || x.f.w != want.w || x.f.h != &want.w.out[want.i] {
						t.Fatal("the executor took a forward out of hand-off order")
					}
					if settled, err := s.settle(want.w, want.i, false); err != nil || !settled {
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
			if !reflect.DeepEqual(*s.stats, *inline.stats) {
				t.Fatal("Stats differ from the inline run's")
			}
			if !reflect.DeepEqual(cacheDump(s.cache), cacheDump(inline.cache)) {
				t.Fatal("final cache differs from the inline run's")
			}
		})
	}
}

// sameAsInline fails unless the hand-off server's Stats and cache are the
// inline twin's, bit for bit; with values false the cache's embedding rows
// are left out (keys, LRU order and ready times still compared).
func sameAsInline(t *testing.T, s, inline *server, values bool) {
	t.Helper()
	if !reflect.DeepEqual(*s.stats, *inline.stats) {
		t.Fatalf("Stats differ from the inline run's:\ngot  %+v\nwant %+v", *s.stats, *inline.stats)
	}
	got, want := cacheDump(s.cache), cacheDump(inline.cache)
	if !values {
		for _, dump := range [][][]cacheRow{got, want} {
			for _, shard := range dump {
				for i := range shard {
					shard[i].Emb = nil
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cache differs from the inline run's")
	}
}

// claimedServers serves the grain fixture on one gated CPU worker at two
// procs, with its inline twin at one, and dispatches n full batches to both.
func claimedServers(t *testing.T, n int) (s, inline *server, g *gate) {
	t.Helper()
	ds, m := grainSetup(t)
	s, inline = oneWorkerServer(t, ds, m, 1024, 2), oneWorkerServer(t, ds, m, 1024, 1)
	g = gateWorker(t, s.pool[0])
	for i := 0; i < n; i++ {
		dispatchAll(t, 100*i, float64(i+1)*1e-3, s, inline)
	}
	return s, inline, g
}

// eventually polls cond for up to a second and reports whether it held.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// The slot the loop must rebuild holds a queued forward: the loop claims and
// runs it rather than wait, the executor skips its message when it reaches
// it, and exactly one outcome settles.
func TestHandoffClaimQueued(t *testing.T) {
	s, inline, g := claimedServers(t, 0)
	w := s.pool[0]
	depth, slot0 := len(w.out), &w.out[0]
	for i := 0; i < depth; i++ {
		dispatchAll(t, 100*i, float64(i+1)*1e-3, s, inline)
	}
	gen := slot0.gen.Load()
	dispatchAll(t, 100*depth, float64(depth+1)*1e-3, s, inline) // the gate stays shut
	if h := slot0.res; h == nil || h.Targets[0] != int32(100*depth) {
		t.Fatalf("slot 0 holds %v, want the batch just dispatched", h)
	}
	if x := g.next(); x.claimed || x.f.h != slot0 || x.f.gen != gen {
		t.Fatalf("the executor's first message: slot %p generation %d claimed %v; want slot 0's stale generation %d",
			x.f.h, x.f.gen, x.claimed, gen)
	}
	if len(slot0.done) != 0 || slot0.gen.Load() != gen+2 {
		t.Fatalf("slot 0: %d outcomes waiting, generation %d; want none and %d (queued again)",
			len(slot0.done), slot0.gen.Load(), gen+2)
	}
	g.run(t, depth) // batches 1..depth-1 and the new batch 0
	if err := s.settleAll(); err != nil {
		t.Fatal(err)
	}
	if err := inline.settleAll(); err != nil {
		t.Fatal(err)
	}
	sameAsInline(t, s, inline, true)
}

// The slot the loop must settle holds a running forward (held after its
// claim) and another forward is queued behind it: the loop runs the queued
// one itself, then waits for the running one and takes its outcome.
func TestHandoffClaimHelpsWhileRunning(t *testing.T) {
	s, inline, g := claimedServers(t, 2)
	w := s.pool[0]
	if x := g.hold(); !x.claimed || x.f.h != &w.out[0] {
		t.Fatal("the executor did not hold batch 0's forward")
	}
	queued := &w.out[1]
	returned := make(chan error, 1)
	go func() { returned <- s.settleAll() }()
	if !eventually(func() bool { return queued.gen.Load()&1 == 0 && len(queued.done) == 1 }) {
		g.resume <- struct{}{}
		<-returned
		t.Fatal("the loop waited on the running forward without running the queued one")
	}
	select {
	case err := <-returned:
		t.Fatalf("settleAll returned while batch 0's forward was held (error %v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.resume <- struct{}{}
	if err := <-returned; err != nil {
		t.Fatal(err)
	}
	if x := g.next(); x.claimed || x.f.h != queued {
		t.Fatal("the executor ran the forward the loop had taken")
	}
	if n := outstanding(w); n != 0 {
		t.Fatalf("%d batches outstanding after settleAll", n)
	}
	sameAsInline(t, s, inline, true)
}

// stop with one queued and one running forward claims the queued one
// without running it, waits for the running one, joins the executor and
// leaks no goroutine.
func TestHandoffStopClaimsQueued(t *testing.T) {
	base := runtime.NumGoroutine()
	s, inline, g := claimedServers(t, 2)
	w := s.pool[0]
	if x := g.hold(); !x.claimed || x.f.h != &w.out[0] {
		t.Fatal("the executor did not hold batch 0's forward")
	}
	queued := &w.out[1]
	stopped := make(chan struct{})
	go func() { s.stop(); close(stopped) }()
	if !eventually(func() bool { return queued.gen.Load()&1 == 0 }) {
		g.resume <- struct{}{}
		g.next()
		<-stopped
		t.Fatal("stop did not claim the queued forward before waiting on the running one")
	}
	select {
	case <-stopped:
		t.Fatal("stop returned while a forward was running")
	case <-time.After(20 * time.Millisecond):
	}
	g.resume <- struct{}{}
	if x := g.next(); x.claimed || x.f.h != queued {
		t.Fatal("the executor ran the forward stop had claimed")
	}
	<-stopped
	if len(queued.done) != 0 {
		t.Fatal("the forward stop claimed ran")
	}
	joined(t, s, "stop")
	waitGoroutines(t, base, "stop")
	// stop drops the outcomes, so the two batches' rows never land.
	sameAsInline(t, s, inline, false)
}

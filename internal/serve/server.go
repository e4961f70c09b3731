// Package serve is the online-serving subsystem grown on the shared HyScale
// runtime: a request queue with kind-aware admission control, a dynamic
// batcher (size-or-deadline, with an optional per-kind split), a sharded
// LRU embedding cache keyed by vertex, and a fleet of
// per-device workers — each core.InferencePipeline bound to one hw.Device
// (the host CPU peer, a GPU, or an FPGA charged the §IV-C dataflow's cycle
// account) the way training's trainers are. The router dispatches every closed
// batch to the worker with the earliest predicted completion, using the
// per-device perfmodel serving stage vectors, while charging sample → gather
// → transfer → propagate on the same max-plus perfmodel.Pipeline and
// perfmodel price list as training. The run is an event-driven open-loop
// simulation (the BLIS-style shape): arrivals, batch deadlines, and batch
// completions are totally ordered in virtual time, so every run is
// deterministic for a given seed.
//
// Every decision — lookup, placement, sampling, the clock charge, the cache
// insert and the ledger — runs on the event loop's one goroutine. Only the
// numeric forward (core.InferencePipeline.Propagate) may leave it, for one
// of the run's executors: min(GOMAXPROCS-1, len(pool)) goroutines, none at
// one proc, so the loop keeps a processor of its own and never queues behind
// the forwards it hands off. With executors, every forward is handed off:
// worker i queues it on executor i mod n, which takes its queue first in,
// first out, while the loop carries on, executing the "sampling batch k+1
// runs while batch k propagates" overlap the clock charges. A queued forward
// runs on whichever goroutine claims it first — one compare-and-swap on its
// slot's generation — so the executor skips a queued forward the loop has
// already taken. A worker's pipeline holds Depth() batches, one per slot. An
// outstanding batch *settles* — its forward's outcome is taken and its rows
// are copied into the cache entries its dispatch inserted — at its worker's
// first dispatch that finds the forward finished, and at the latest before
// its slot is sampled again (the worker's Depth()-th next dispatch) and
// before Run returns. There the loop does not wait on a queued forward: it
// runs it itself, and while the forward runs on an executor it runs the
// newest other queued forward in the pool, waiting only when nothing is
// queued (work conserving). No decision reads a forward's output, so the
// Stats are the inline run's bit for bit. Between a batch's insert and its
// settle other batches insert too: the cache's sequence stamps keep a late
// row from landing over an entry a newer insert wrote.
//
// The event loop is allocation-free in steady state (gated by
// TestServingSteadyStateZeroAlloc): batches ping-pong between two retained
// buffers, cache lookups and inserts run through batch APIs over
// preallocated scratch, per-vertex dedup uses a generation-stamped array,
// the per-device service-time memo is a dense slice, and a hand-off is one
// send on the executor's channel and one receive on the slot's.
package serve

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/sampler"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Config assembles a serving run.
type Config struct {
	Plat hw.Platform
	Data *datagen.Dataset
	// Model is the trained model to serve (read-only during the run).
	Model   *gnn.Model
	Fanouts []int

	// Open-loop stream: NumRequests arrivals at RatePerSec with Zipf(θ)
	// vertex popularity (θ=0 is uniform).
	NumRequests  int
	RatePerSec   float64
	ZipfExponent float64

	// Workload replaces the single Poisson stream with the multi-cohort
	// engine: named cohorts with Poisson/Gamma/Weibull inter-arrivals,
	// diurnal rate envelopes, per-cohort Zipf skew and SLO class, merged
	// into one deterministic arrival stream. Nil generates the one-cohort
	// stream described by RatePerSec/ZipfExponent.
	Workload *WorkloadSpec
	// Replay serves a recorded arrival trace instead of generating one
	// (mutually exclusive with Workload): the run consumes
	// min(NumRequests, len(trace)) requests. Every run is a trace replay —
	// without Replay the trace is the one GenerateTrace(cfg) returns — so
	// two runs over the same trace produce byte-identical Stats.
	Replay *Trace

	// Serving knobs.
	MaxBatch  int     // dynamic batcher's size cap
	WindowSec float64 // dynamic batcher's max-wait deadline
	// Workers is the accelerator worker count. With accelerators present,
	// worker i binds Plat.Accels[i] (capped at the fleet size; 0 binds every
	// accelerator); without accelerators one CPU worker serves.
	Workers int
	// CPUPeer adds a host-CPU-bound worker alongside the accelerator
	// workers — training's hybrid CPU trainer applied to serving. The peer
	// pays no PCIe transfer or kernel-launch cost, which makes it the
	// natural landing spot for cache-hot small batches.
	CPUPeer bool
	// SmallBatchCut is the dynamic batcher's per-kind split: closed batches
	// whose cache-missing target count is at or under the cut are routed to
	// the CPU peer. 0 disables the split; a positive cut requires CPUPeer
	// on platforms with accelerators.
	SmallBatchCut int
	// Formation names the batch-formation policy: "fcfs" (default, the
	// pre-formation batcher's exact behavior) or "priority" (class-weighted
	// close deadlines, class-ordered batches). See DynamicBatcher.
	Formation string

	QueueCap  int // admission control: max outstanding requests (at least 1)
	CacheSize int // embedding-cache capacity in entries (0 disables)
	// CacheShards hash-partitions the embedding cache into that many LRUs,
	// each holding its share of CacheSize (rounded down to a power of two,
	// clamped to CacheSize; 0 → 1). A 1-shard cache evicts in
	// exactly the legacy global-LRU order; more shards evict per-shard, so
	// until evictions begin the shard count never changes which keys are
	// resident (and run Stats are identical across shard counts).
	CacheShards int

	// Policy is vestigial: there is one router, and the field accepts only ""
	// or PolicyEarliest (anything else is an error). It stays until a
	// benchmark PR drops the line of benchmark/serve.go that sets it.
	Policy string
	// RouteTrace records a RouteDecision row per computed batch in
	// Stats.RouteTrace — the chosen worker plus the counterfactual
	// predicted completion of every alternative. Tracing allocates; leave
	// it off on the zero-alloc path.
	RouteTrace bool

	// Faults scripts deterministic worker failures on the virtual clock (see
	// fault.Parse): fail-stops drain and exclude workers and refit
	// admission to the live fleet, stall windows delay batch starts, and
	// straggler windows inflate service times. Nil or a schedule with no
	// serving events is the fault-free run: the same code with no windows and
	// no fail times.
	Faults *fault.Schedule
	// RetryBudget bounds per-batch re-dispatch attempts when the routed
	// worker is predicted to fail-stop mid-service (0 → 2, negative → no
	// retries: the batch is shed on first loss).
	RetryBudget int
	// SLOTargets sets per-class latency targets for deadline-miss
	// accounting; empty disables it (and leaves Stats byte-identical).
	SLOTargets []ClassSLO

	Seed uint64
}

// Validate checks every rule of c that needs no dataset — the fan-outs
// (sampler.New's rule, and once Model is set perfmodel.Workload.Validate's
// one fan-out per layer of the model), the stream, the batcher, admission,
// the cache and pool sizes, the formation, the fault schedule against the
// pool and the SLO targets — and names the rejected value in its error. Run,
// GenerateTrace and Predict call it first; a front end calls it to reject a
// bad configuration before any work starts.
func (c Config) Validate() error {
	if c.NumRequests <= 0 {
		return fmt.Errorf("serve: NumRequests %d: need at least 1", c.NumRequests)
	}
	if _, err := sampler.New(nil, c.Fanouts, nil); err != nil {
		return fmt.Errorf("serve: Fanouts %v: %w", c.Fanouts, err)
	}
	if c.Model != nil {
		work := perfmodel.Workload{Spec: datagen.Spec{FeatDims: c.Model.Cfg.Dims}, BatchSize: 1, Fanouts: c.Fanouts}
		if err := work.Validate(); err != nil {
			return err
		}
	}
	if c.Workers < 0 {
		return fmt.Errorf("serve: Workers %d: negative (0 binds every accelerator)", c.Workers)
	}
	if c.QueueCap < 1 {
		return fmt.Errorf("serve: QueueCap %d: need at least 1", c.QueueCap)
	}
	if err := checkCacheSizes(c.CacheSize, c.CacheShards); err != nil {
		return err
	}
	if _, err := NewSplitBatcher(c.MaxBatch, c.WindowSec, c.SmallBatchCut); err != nil {
		return err
	}
	if c.MaxBatch > c.QueueCap {
		return fmt.Errorf("serve: MaxBatch %d exceeds QueueCap %d: admission holds at most QueueCap requests, so no batch can be larger",
			c.MaxBatch, c.QueueCap)
	}
	if c.SmallBatchCut > 0 && !c.CPUPeer && len(c.Plat.Accels) > 0 {
		return fmt.Errorf("serve: SmallBatchCut %d needs the CPU peer (set CPUPeer)", c.SmallBatchCut)
	}
	if _, err := parseFormation(c.Formation); err != nil {
		return err
	}
	if c.Policy != "" && c.Policy != PolicyEarliest {
		return fmt.Errorf("serve: Config.Policy %q: the one router is %q (\"affinity\" and \"least-loaded\" were removed)",
			c.Policy, PolicyEarliest)
	}
	switch {
	case c.Workload != nil && c.Replay != nil:
		return fmt.Errorf("serve: Workload and Replay are mutually exclusive")
	case c.Workload != nil:
		if err := c.Workload.validate(); err != nil {
			return err
		}
	case c.Replay != nil:
		// A Trace built in memory never passed ReadTrace's class check. Past
		// this loop every request's class indexes the per-class arrays.
		for _, r := range c.replayed() {
			if r.Class >= NumClasses {
				return fmt.Errorf("serve: replayed request %d has class %d, outside the %d SLO classes",
					r.ID, r.Class, NumClasses)
			}
		}
	default:
		single := poissonCohort(c.RatePerSec, c.ZipfExponent)
		if err := single.checkNumbers(); err != nil {
			return err
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if m, n := c.Faults.MaxWorker(), len(workerBindings(c)); m >= n {
		return fmt.Errorf("serve: fault schedule targets worker %d, pool has %d workers", m, n)
	}
	for _, t := range c.SLOTargets {
		if t.Class >= NumClasses {
			return fmt.Errorf("serve: SLO target class %d out of range", t.Class)
		}
		if !finitePositive(t.TargetSec) {
			return fmt.Errorf("serve: SLO target %v for %s is not a finite positive number", t.TargetSec, t.Class)
		}
	}
	return nil
}

// replayed is the part of Replay a run serves: its first NumRequests
// requests.
func (c Config) replayed() []Request {
	return c.Replay.Requests[:min(c.NumRequests, len(c.Replay.Requests))]
}

// worker is one pool member: a pipeline bound to a device plus its share
// counters. Predicted batch service times come from the pipeline's dense
// ServiceSec memo (they depend only on the computed-target count, which the
// size cap bounds; the server prefills 1..MaxBatch at construction).
//
// With GOMAXPROCS > 1 the worker queues each forward on exec. out has one
// entry per pipeline slot: out[i] is the outstanding batch of slot i, res
// nil when none. exec is nil when every forward runs inline.
type worker struct {
	pipe  *core.InferencePipeline
	stats DeviceStats

	exec    *executor
	samples int // Samples run on pipe
	out     []handoff
}

// handoff is one slot's outstanding batch: its result, the run's batch
// number, and the cache entries (and the insert's sequence number) its rows
// land in when it settles. gen is odd while the forward is queued: a hand-off
// makes it odd, and whoever claims the forward — the executor or the loop —
// makes it even with one compare-and-swap, runs it, and sends its error on
// done, buffered to one, so a finished forward never waits for the loop.
type handoff struct {
	res   *core.InferResult
	batch int
	keys  []CacheKey
	seq   uint64
	gen   atomic.Uint64
	done  chan error
}

// claim takes h's forward if it is still queued as generation gen.
func (h *handoff) claim(gen uint64) bool {
	return gen&1 == 1 && h.gen.CompareAndSwap(gen, gen+1)
}

// forward is one hand-off message: worker w's slot h, queued as generation
// gen. Once the slot is claimed the message is stale.
type forward struct {
	w   *worker
	h   *handoff
	gen uint64
}

// executor is a goroutine that takes the forwards its workers queue, first
// in, first out, and runs each one it claims in one arena of its own. req is
// buffered to twice its workers' total depth: one live message per slot,
// and as many stale ones (forwards the loop took), which the executor drops
// as it reaches them; a full queue only makes a hand-off wait for the
// executor. exited is closed once the goroutine has dropped its arena. lane
// is its span lane (0: none).
type executor struct {
	req    chan forward
	ws     *tensor.Workspace
	exited chan struct{}
	lane   int
}

// start launches the executor's goroutine over a fresh arena.
func (e *executor) start() {
	e.ws, e.exited = tensor.NewWorkspace(), make(chan struct{})
	go func() {
		defer close(e.exited)
		for f := range e.req {
			if f.h.claim(f.gen) {
				e.run(f)
			}
		}
		e.ws = nil
	}()
}

// run propagates a forward the executor claimed and returns its error on
// its slot's done.
func (e *executor) run(f forward) {
	start := trace.Begin(e.lane)
	err := f.w.pipe.Propagate(e.ws, f.h.res)
	trace.End(e.lane, "propagate", f.h.batch, start)
	f.h.done <- err
}

// stop lets the executor drain its queue, then waits until its goroutine
// has dropped its arena and is exiting. Stopping a stopped executor is a
// no-op.
func (e *executor) stop() {
	if e.req == nil {
		return
	}
	close(e.req)
	<-e.exited
	e.req = nil
}

// workerBindings resolves the pool's device bindings in
// core.InferConfig.Device convention (0 = host CPU, i > 0 = Accels[i-1]):
// one worker per accelerator (capped by Workers), plus the CPU peer when
// requested; a single CPU worker on accelerator-less platforms.
func workerBindings(cfg Config) []int {
	nAccel := len(cfg.Plat.Accels)
	if nAccel == 0 {
		return []int{0}
	}
	k := cfg.Workers
	if k == 0 || k > nAccel {
		k = nAccel
	}
	b := make([]int, 0, k+1)
	for i := 0; i < k; i++ {
		b = append(b, i+1)
	}
	if cfg.CPUPeer {
		b = append(b, 0)
	}
	return b
}

// server is one serving run's assembled state: the pool, arrival trace,
// batcher, admission controller, cache, and router, plus every scratch buffer
// the dispatch path reuses. Its steady state (offer → batch close → route →
// complete) performs zero heap allocations once warm.
type server struct {
	cfg       Config
	pool      []*worker
	bindings  []int
	arrivals  []Request // the run's requests: the replayed or just-generated trace
	batcher   *DynamicBatcher
	admission *admissionController
	cache     *ShardedCache
	router    router

	stats          *Stats
	latKeys        []uint64 // math.Float64bits of each answered request's latency
	latTags        []uint8  // latKeys[i]'s class and fault-window tag (latencyTag)
	lastCompletion float64
	batchReqSum    int

	// Fault-injection state: health is the schedule's per-worker view (no
	// windows and no fail times when nothing is scripted).
	health      *fleetHealth
	nextFailSec float64 // earliest fail-stop admission has not applied (+Inf: none left)
	retryBudget int
	recoveryEnd float64 // latest re-dispatched completion (recovery metric)
	sloTargets  [NumClasses]float64
	haveSLO     bool

	// execs are the run's executors, min(GOMAXPROCS-1, len(pool)) of them;
	// handoff is set when there are any (GOMAXPROCS > 1, the rule RunEpoch
	// applies to its prefetch worker), and handoffs counts the forwards
	// queued on them.
	execs    []*executor
	handoff  bool
	handoffs int

	// lane is the event loop's span lane, and executor i's is lane+1+i
	// (internal/trace; 0 when the run was assembled outside a recording).
	// The loop records per batch, never per request: dispatch, with lookup,
	// route, settle, sample and the forwards the loop runs inside it
	// (propagate/no-executor at one proc, propagate/claimed for a queued
	// forward it took), and the run's finish.
	lane int

	// Dispatch scratch, all MaxBatch-bounded and reused per batch.
	keys    []CacheKey  // lookup keys, one per batch request
	ready   []float64   // GetMany: per-request entry ready time
	hit     []bool      // GetMany: per-request hit flag
	order   []int32     // unique cache-missing vertices, first-seen order
	putKeys []CacheKey  // PutMany keys for order
	putEmbs [][]float32 // PutMany values (arena-copied by the cache)
	// Completion times are split by who answered: cache hits are served by
	// the host, computed requests by the routed worker — the split is what
	// keeps hit completions off an accelerator's in-flight (refit cap) share.
	hitDone  []float64
	compDone []float64
	// vertexGen dedups a batch's missing vertices without a map: slot v
	// holds the generation of the last batch that saw v.
	vertexGen []uint32
	gen       uint32
}

// newServer validates cfg and assembles a run (the entry point Run and the
// benchmarks share). With GOMAXPROCS > 1 it starts the executors; every
// caller stops them with stop.
func newServer(cfg Config) (*server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bindings := workerBindings(cfg)
	rng := tensor.NewRNG(cfg.Seed)
	pool := make([]*worker, len(bindings))
	for i, device := range bindings {
		p, err := core.NewInferencePipeline(core.InferConfig{
			Plat: cfg.Plat, Data: cfg.Data, Model: cfg.Model,
			Fanouts: cfg.Fanouts, Device: device, Seed: rng.Uint64(),
		})
		if err != nil {
			return nil, err
		}
		pool[i] = &worker{pipe: p, stats: DeviceStats{
			Name: p.Device().Name, Kind: p.Device().Kind, Device: device,
		}}
	}
	var arrivals []Request
	if cfg.Replay != nil {
		// A trace is outside input, and ReadTrace cannot know the graph.
		arrivals = cfg.replayed()
		for _, r := range arrivals {
			if r.Vertex < 0 || int(r.Vertex) >= cfg.Data.Graph.NumVertices {
				return nil, fmt.Errorf("serve: replayed request %d asks for vertex %d, outside the graph's %d vertices",
					r.ID, r.Vertex, cfg.Data.Graph.NumVertices)
			}
		}
	} else {
		var err error
		if arrivals, err = generateArrivals(cfg); err != nil {
			return nil, err
		}
	}
	health := newFleetHealth(cfg.Faults, len(pool))
	retryBudget := cfg.RetryBudget
	switch {
	case retryBudget == 0:
		retryBudget = 2
	case retryBudget < 0:
		retryBudget = 0
	}
	var sloTargets [NumClasses]float64
	for _, t := range cfg.SLOTargets {
		sloTargets[t.Class] = t.TargetSec
	}
	batcher, err := NewSplitBatcher(cfg.MaxBatch, cfg.WindowSec, cfg.SmallBatchCut)
	if err != nil {
		return nil, err
	}
	admission := newAdmissionController(cfg.QueueCap)
	// Prefill the service-time memo for every batch size the router can ask
	// about, so routing never allocates in steady state.
	for _, w := range pool {
		for c := 1; c <= cfg.MaxBatch; c++ {
			if _, err := w.pipe.ServiceSec(c); err != nil {
				return nil, err
			}
		}
	}
	if err := batcher.SetFormation(cfg.Formation, nil); err != nil {
		return nil, err
	}
	dims := cfg.Model.Cfg.Dims
	s := &server{
		cfg:       cfg,
		pool:      pool,
		bindings:  bindings,
		arrivals:  arrivals,
		batcher:   batcher,
		admission: admission,
		cache:     NewShardedCache(cfg.CacheSize, cfg.CacheShards, dims[len(dims)-1]),
		router:    router{pool: pool, admission: admission, health: health},

		// One entry per request served: a replay serves the trace's
		// min(NumRequests, len) requests, not NumRequests.
		stats:   &Stats{Routes: make([]int, 0, len(arrivals))},
		latKeys: make([]uint64, 0, len(arrivals)),
		latTags: make([]uint8, 0, len(arrivals)),

		health:      health,
		nextFailSec: math.Inf(-1),
		retryBudget: retryBudget,
		sloTargets:  sloTargets,
		haveSLO:     len(cfg.SLOTargets) > 0,

		keys:      make([]CacheKey, cfg.MaxBatch),
		ready:     make([]float64, cfg.MaxBatch),
		hit:       make([]bool, cfg.MaxBatch),
		order:     make([]int32, 0, cfg.MaxBatch),
		putKeys:   make([]CacheKey, 0, cfg.MaxBatch),
		putEmbs:   make([][]float32, 0, cfg.MaxBatch),
		hitDone:   make([]float64, 0, cfg.MaxBatch),
		compDone:  make([]float64, 0, cfg.MaxBatch),
		vertexGen: make([]uint32, cfg.Data.Graph.NumVertices),
	}
	for _, w := range pool {
		w.out = make([]handoff, w.pipe.Depth())
	}
	s.applyFailures(math.Inf(-1)) // before any fail time: admission fits the whole pool
	nExec := min(runtime.GOMAXPROCS(0)-1, len(pool))
	s.lane = trace.Lanes(1 + max(nExec, 0))
	s.startExecutors(nExec)
	return s, nil
}

// startExecutors starts n executors, none when n < 1 (every forward then
// runs inline), and binds worker i to executor i mod n.
func (s *server) startExecutors(n int) {
	if n < 1 {
		return
	}
	s.handoff = true
	s.execs = make([]*executor, n)
	depth := make([]int, n)
	for i, w := range s.pool {
		depth[i%n] += 2 * len(w.out)
	}
	for i := range s.execs {
		s.execs[i] = &executor{req: make(chan forward, depth[i])}
		if s.lane != 0 {
			s.execs[i].lane = s.lane + 1 + i
		}
	}
	for i, w := range s.pool {
		for j := range w.out {
			w.out[j].keys = make([]CacheKey, 0, s.cfg.MaxBatch)
			w.out[j].done = make(chan error, 1)
		}
		w.exec = s.execs[i%n]
	}
	for _, e := range s.execs {
		e.start()
	}
}

// streamRNG derives the arrival stream's RNG from cfg.Seed: the seed stream
// after newServer's per-worker pipeline seeds (one Uint64 per pool worker),
// split once.
func streamRNG(cfg Config) *tensor.RNG {
	rng := tensor.NewRNG(cfg.Seed)
	for range workerBindings(cfg) {
		rng.Uint64()
	}
	return rng.Split()
}

// serveReq records one answered request at its virtual completion time;
// computed says whether the routed worker answered it (false: the cache
// did, and its completion belongs to the host).
func (s *server) serveReq(r Request, done float64, computed bool) {
	s.latKeys = append(s.latKeys, math.Float64bits(done-r.Arrival))
	s.latTags = append(s.latTags, latencyTag(r.Class, done >= s.health.firstFailSec))
	s.stats.PerClass[r.Class].Served++
	if computed {
		s.compDone = append(s.compDone, done)
	} else {
		s.hitDone = append(s.hitDone, done)
	}
	if done > s.lastCompletion {
		s.lastCompletion = done
	}
}

// dispatch runs one closed batch through its stages: lookup → place → execute
// → complete.
func (s *server) dispatch(batch []Request, closeAt float64) error {
	b := s.stats.Batches
	s.stats.Batches++
	s.batchReqSum += len(batch)
	start := trace.Begin(s.lane)
	defer func() { trace.End(s.lane, "dispatch", b, start) }()
	span := trace.Begin(s.lane)
	hit := s.lookup(batch, closeAt)
	trace.End(s.lane, "lookup", b, span)
	if len(s.order) == 0 { // the cache answered every request
		s.release(hw.CPU)
		return nil
	}
	span = trace.Begin(s.lane)
	p, lost, err := s.place(batch, hit, closeAt)
	trace.End(s.lane, "route", b, span)
	if err != nil {
		return err
	}
	if p.worker < 0 {
		s.shedBatch(batch, hit)
		return nil
	}
	res, done, async, err := s.execute(p)
	if err != nil {
		return err
	}
	return s.complete(batch, hit, p.worker, res, done, async, lost > 0)
}

// lookup is the batch's cache pass, one GetMany over its targets. Hits are
// answered when their entry is ready (an in-flight entry behaves as a
// future); misses are coalesced per vertex via the generation stamp into
// s.order, the targets the pool must compute. It returns the per-request hit
// flags.
func (s *server) lookup(batch []Request, closeAt float64) []bool {
	s.hitDone, s.compDone = s.hitDone[:0], s.compDone[:0]
	s.gen++
	if s.gen == 0 { // generation wrapped: invalidate every stamp
		for i := range s.vertexGen {
			s.vertexGen[i] = 0
		}
		s.gen = 1
	}
	keys, ready, hit := s.keys[:len(batch)], s.ready[:len(batch)], s.hit[:len(batch)]
	for i, r := range batch {
		keys[i] = CacheKey{Vertex: r.Vertex, Version: 1}
	}
	s.cache.GetMany(keys, ready, hit, nil)
	s.order = s.order[:0]
	for i, r := range batch {
		if hit[i] {
			s.serveReq(r, math.Max(closeAt, ready[i]), false)
			continue
		}
		if s.vertexGen[r.Vertex] != s.gen {
			s.vertexGen[r.Vertex] = s.gen
			s.order = append(s.order, r.Vertex)
		}
	}
	return hit
}

// place routes s.order, then checks whether the chosen worker is predicted to
// fail-stop before the batch completes — a batch in flight on a dying worker
// is lost and re-routed at the fail time plus a deadline-aware backoff, up to
// the retry budget. A worker that never fails has fail time +Inf, so the loop
// runs exactly once. It returns the prediction that stuck (worker -1: shed
// the batch) and how many attempts were lost on the way. The route trace
// keeps one row per executed batch — the decision that stuck — and none for a
// shed one.
func (s *server) place(batch []Request, hit []bool, closeAt float64) (prediction, int, error) {
	var dec *RouteDecision
	if s.cfg.RouteTrace {
		s.stats.RouteTrace = append(s.stats.RouteTrace, RouteDecision{Batch: len(s.stats.Routes)})
		dec = &s.stats.RouteTrace[len(s.stats.RouteTrace)-1]
	}
	small := s.batcher.small(len(s.order))
	routeAt := closeAt
	lost := 0
	for {
		p, err := s.router.route(len(s.order), routeAt, small, dec)
		if err != nil {
			return prediction{}, 0, err
		}
		if p.worker < 0 { // every worker fail-stopped: nothing can serve this batch
			break
		}
		ft := s.health.failAt[p.worker]
		if p.done <= ft {
			return p, lost, nil
		}
		// Predicted to die mid-service: the batch re-dispatches after the
		// failure (the loss is observed at the fail time).
		s.stats.Retries++
		lost++
		if lost > s.retryBudget {
			break
		}
		routeAt = ft + s.retryBackoff(lost, batch, hit, ft)
	}
	if dec != nil {
		s.stats.RouteTrace = s.stats.RouteTrace[:len(s.stats.RouteTrace)-1]
	}
	return prediction{worker: -1}, lost, nil
}

// execute runs s.order on the placed worker and charges its clock, applying
// the scripted stall/straggler windows exactly as routing predicted them: a
// stalled start enters the pipeline past the window, a straggler's stages are
// inflated. It returns the batch result and its virtual completion time, and
// whether the batch's forward is left to the worker's executor (async; see
// complete) rather than already run inline — async whenever executors run.
// Once the batch is sampled, the loop settles, without waiting, every
// forward the worker has already finished.
func (s *server) execute(p prediction) (*core.InferResult, float64, bool, error) {
	w := s.pool[p.worker]
	b := s.stats.Batches - 1
	// Sample rebuilds the slot of the worker's Depth()-th previous batch:
	// that forward must be done. Later batches' forwards may still run.
	start := trace.Begin(s.lane)
	_, err := s.settle(w, w.samples%len(w.out), true)
	trace.End(s.lane, "settle", b, start)
	if err != nil {
		return nil, 0, false, err
	}
	start = trace.Begin(s.lane)
	res, err := w.pipe.Sample(s.order)
	trace.End(s.lane, "sample", b, start)
	if err != nil {
		return nil, 0, false, err
	}
	w.samples++
	if err := s.settleFinished(w, b); err != nil {
		return nil, 0, false, err
	}
	if !s.handoff {
		start = trace.Begin(s.lane)
		err := w.pipe.Propagate(w.pipe.Arena(), res)
		trace.End(s.lane, "propagate/no-executor", b, start)
		if err != nil {
			return nil, 0, false, err
		}
	}
	res.Stage = res.Stage.Scaled(p.factor)
	return res, w.pipe.CompleteAfter(p.ready, res.Stage), s.handoff, nil
}

// complete publishes a batch worker wi executed: its embeddings enter the
// cache, its computed requests are answered at done, and the run, device and
// admission counters take its share. An async batch's entries are inserted
// here all the same — same keys, ready time and LRU position — with no value;
// its forward is handed to the worker's executor last, and its rows land
// when it settles, unless a newer insert has rewritten the entry by then.
func (s *server) complete(batch []Request, hit []bool, wi int, res *core.InferResult, done float64, async, redispatched bool) error {
	if redispatched {
		s.stats.Redispatched++
		if done > s.recoveryEnd {
			s.recoveryEnd = done
		}
	}
	s.putKeys, s.putEmbs = s.putKeys[:0], s.putEmbs[:0]
	for i, v := range s.order {
		s.putKeys = append(s.putKeys, CacheKey{Vertex: v, Version: 1})
		var row []float32
		if !async {
			row = res.Logits.Row(i)
		}
		s.putEmbs = append(s.putEmbs, row)
	}
	// PutMany copies each row into the shard arena, so the views into
	// the worker's workspace are not retained past this call.
	seq := s.cache.PutMany(s.putKeys, s.putEmbs, done)
	served := 0
	for i, r := range batch {
		if hit[i] {
			continue
		}
		s.serveReq(r, done, true)
		s.stats.Computed++
		served++
	}
	svc := perfmodel.ServingServiceSec(res.Stage)
	s.stats.MeanServiceSec += svc
	s.stats.EdgesPerSec += res.Edges // normalized by makespan in finish
	w := s.pool[wi]
	w.stats.Batches++
	w.stats.Requests += served
	w.stats.BusySec += svc
	s.stats.Routes = append(s.stats.Routes, wi)
	s.release(w.pipe.Device().Kind)
	if async {
		h := &w.out[(w.samples-1)%len(w.out)] // the slot the batch was just sampled into
		h.keys = append(h.keys[:0], s.putKeys...)
		h.res, h.batch, h.seq = res, s.stats.Batches-1, seq
		w.exec.req <- forward{w: w, h: h, gen: h.gen.Add(1)}
		s.handoffs++
	}
	return nil
}

// settle completes w's outstanding batch in slot i, if any: it takes the
// forward's outcome — if wait, running the forward itself when it is still
// queued (see await), else only if the forward has finished — and copies the
// batch's rows into the cache entries complete inserted that no newer insert
// has rewritten (a no-op on a disabled cache). It reports whether slot i is
// free.
func (s *server) settle(w *worker, i int, wait bool) (bool, error) {
	h := &w.out[i]
	if h.res == nil {
		return true, nil
	}
	var err error
	if wait {
		err = s.await(w, h)
	} else {
		select {
		case err = <-h.done:
		default:
			return false, nil
		}
	}
	res := h.res
	h.res = nil
	if err != nil {
		return true, fmt.Errorf("serve: forward on %s (device %d): %w", w.stats.Name, w.stats.Device, err)
	}
	for j, k := range h.keys {
		s.cache.fill(k, h.seq, res.Logits.Row(j))
	}
	return true, nil
}

// await returns the outcome of w's forward in slot h without idling while
// any forward is queued: it claims and runs h's forward if it is still
// queued; while an executor runs it, it claims and runs the newest other
// queued forward in the pool; it waits only when nothing is queued.
func (s *server) await(w *worker, h *handoff) error {
	s.runClaimed(w, h)
	for {
		select {
		case err := <-h.done:
			return err
		default:
		}
		var vw *worker
		var v *handoff
		for _, x := range s.pool {
			for i := range x.out {
				if o := &x.out[i]; o.res != nil && o.gen.Load()&1 == 1 && (v == nil || o.batch > v.batch) {
					vw, v = x, o
				}
			}
		}
		if v == nil {
			return <-h.done
		}
		s.runClaimed(vw, v)
	}
}

// runClaimed runs w's forward in slot h on the loop, in w's arena, if the
// loop claims it (the forward is still queued), and returns its error on
// h.done as an executor would.
func (s *server) runClaimed(w *worker, h *handoff) {
	if !h.claim(h.gen.Load()) {
		return
	}
	start := trace.Begin(s.lane)
	err := w.pipe.Propagate(w.pipe.Arena(), h.res)
	trace.End(s.lane, "propagate/claimed", h.batch, start)
	h.done <- err
}

// settleFinished settles, without waiting, w's outstanding batches whose
// forwards have finished, oldest first, under a settle span of batch b.
func (s *server) settleFinished(w *worker, b int) error {
	start := trace.Begin(s.lane)
	defer func() { trace.End(s.lane, "settle", b, start) }()
	for k := range w.out { // oldest first
		settled, err := s.settle(w, (w.samples+k)%len(w.out), false)
		if err != nil || !settled {
			return err
		}
	}
	return nil
}

// settleAll settles every worker's outstanding batches, oldest first.
func (s *server) settleAll() error {
	for _, w := range s.pool {
		for k := range w.out {
			if _, err := s.settle(w, (w.samples+k)%len(w.out), true); err != nil {
				return err
			}
		}
	}
	return nil
}

// stop claims every queued forward without running it, waits out every
// running one, whatever its outcome, and joins the executors — on every way
// out of a run, error or not — so once it returns no executor holds its
// arena. Stopping a stopped server is a no-op.
func (s *server) stop() {
	for _, w := range s.pool {
		for i := range w.out {
			if h := &w.out[i]; h.res != nil && h.claim(h.gen.Load()) {
				h.res = nil
			}
		}
	}
	for _, w := range s.pool {
		for i := range w.out {
			if h := &w.out[i]; h.res != nil {
				<-h.done
				h.res = nil
			}
		}
	}
	for _, e := range s.execs {
		e.stop()
	}
}

// release moves the batch's answered requests from waiting to in-flight: the
// cache hits on the host, the computed requests on the kind that ran them.
func (s *server) release(kind hw.Kind) {
	s.admission.dispatchedKind(hw.CPU, s.hitDone)
	s.admission.dispatchedKind(kind, s.compDone)
}

// shedBatch abandons a batch's cache-missing requests (no live worker, or
// retry budget exhausted): they count as shed — not served, not rejected —
// and their admission slots are released so capacity is not leaked to dead
// work. The batch's cache hits were already answered by the host.
func (s *server) shedBatch(batch []Request, hit []bool) {
	n := 0
	for i, r := range batch {
		if hit[i] {
			continue
		}
		n++
		s.stats.Shed++
		s.stats.PerClass[r.Class].Shed++
	}
	s.admission.cancel(n)
	s.release(hw.CPU)
}

// retryBackoff returns the wait after a predicted mid-service worker loss
// before re-dispatching (attempt counts from 1): exponential over the
// batching window, capped by the tightest remaining SLO budget among the
// batch's computed requests so a retry never deliberately overshoots a
// deadline it could still make.
func (s *server) retryBackoff(attempt int, batch []Request, hit []bool, failAt float64) float64 {
	base := s.cfg.WindowSec
	if base <= 0 {
		base = 1e-4
	}
	d := base * float64(int(1)<<uint(attempt-1))
	if s.haveSLO {
		tight := math.Inf(1)
		for i, r := range batch {
			if hit[i] {
				continue
			}
			if t := s.sloTargets[r.Class]; t > 0 {
				if rem := r.Arrival + t - failAt; rem < tight {
					tight = rem
				}
			}
		}
		if tight > 0 && d > tight {
			d = tight
		}
	}
	return d
}

// applyFailures refits admission to the fleet alive at now once now reaches
// the earliest fail-stop not yet applied (one comparison per arrival
// otherwise): refit re-splits the per-kind caps over the surviving workers and
// sets which classes degraded-mode admission sheds. Routing needs no
// application step — worker liveness is a pure function of virtual time.
func (s *server) applyFailures(now float64) {
	if now < s.nextFailSec {
		return
	}
	var live [hw.KindCount]int
	up := 0
	s.nextFailSec = math.Inf(1)
	for i, w := range s.pool {
		if s.health.alive(i, now) {
			live[w.pipe.Device().Kind]++
			up++
			s.nextFailSec = math.Min(s.nextFailSec, s.health.failAt[i])
		}
	}
	s.admission.refit(live, len(s.pool))
	s.stats.FailedWorkers = len(s.pool) - up
}

// offer feeds one arrival through deadline-expiry, admission, and batching —
// the event loop's body, exposed for the zero-alloc gate and benchmarks.
func (s *server) offer(r Request) error {
	s.applyFailures(r.Arrival)
	s.stats.Offered++
	s.stats.PerClass[r.Class].Offered++
	for {
		batch, closeAt := s.batcher.CloseExpired(r.Arrival)
		if batch == nil {
			break
		}
		if err := s.dispatch(batch, closeAt); err != nil {
			return err
		}
	}
	if s.admission.shedClass(r.Class) {
		// Degraded-mode admission: shed the classes the surviving capacity
		// can no longer afford, bulk before interactive.
		s.stats.Shed++
		s.stats.PerClass[r.Class].Shed++
		return nil
	}
	if !s.admission.admit(r.Arrival) {
		s.stats.Rejected++
		s.stats.PerClass[r.Class].Rejected++
		return nil
	}
	if batch, closeAt := s.batcher.Add(r); batch != nil {
		if err := s.dispatch(batch, closeAt); err != nil {
			return err
		}
	}
	return nil
}

// finish flushes the open batch, settles every outstanding one, and
// summarizes the run.
func (s *server) finish() (*Stats, error) {
	start := trace.Begin(s.lane)
	defer func() { trace.End(s.lane, "finish", s.stats.Batches, start) }()
	if batch, closeAt := s.batcher.Flush(); batch != nil {
		if err := s.dispatch(batch, closeAt); err != nil {
			return nil, err
		}
	}
	if err := s.settleAll(); err != nil {
		return nil, err
	}
	stats := s.stats
	stats.Served = len(s.latKeys)
	for c := range stats.PerClass {
		stats.PerClass[c].SLOSec = s.sloTargets[c]
	}
	if err := stats.summarizeLatencies(s.latKeys, s.latTags); err != nil {
		return nil, err
	}
	// Every offered request leaves exactly one way: answered, rejected at the
	// door, or shed.
	for c, cs := range stats.PerClass {
		if cs.Offered != cs.Served+cs.Rejected+cs.Shed {
			return nil, fmt.Errorf("serve: class %s ledger broken: offered %d != served %d + rejected %d + shed %d",
				SLOClass(c), cs.Offered, cs.Served, cs.Rejected, cs.Shed)
		}
	}
	hits, _, evictions := s.cache.stats()
	stats.CacheHits = hits
	stats.Evictions = evictions
	if stats.Served > 0 {
		stats.HitRate = float64(stats.Served-stats.Computed) / float64(stats.Served)
	}
	if stats.Batches > 0 {
		stats.MeanBatch = float64(s.batchReqSum) / float64(stats.Batches)
	}
	if n := len(stats.Routes); n > 0 {
		stats.MeanServiceSec /= float64(n)
	}
	stats.MakespanSec = s.lastCompletion
	if stats.MakespanSec > 0 {
		stats.ThroughputRPS = float64(stats.Served) / stats.MakespanSec
		stats.EdgesPerSec /= stats.MakespanSec
	}
	if s.recoveryEnd > s.health.firstFailSec { // never with no fail-stop (+Inf)
		stats.RecoverySec = s.recoveryEnd - s.health.firstFailSec
	}
	for _, w := range s.pool {
		stats.PerDevice = append(stats.PerDevice, w.stats)
	}
	// Price the prediction at the load the run actually served, not at
	// Config.RatePerSec: a Workload or Replay run never reads that field.
	if rate := offeredRate(s.arrivals); rate > 0 {
		pred, err := s.pool[0].pipe.Model().PredictServing(servingLoad(s.cfg, s.bindings, rate, 1-stats.HitRate))
		if err != nil {
			return nil, err
		}
		stats.Prediction = pred
	}
	return stats, nil
}

// offeredRate is the measured offered load of an arrival stream: its clock
// starts at 0, so n arrivals the last of which lands at t offered n/t
// requests per second — one rule for generated, cohort and replayed streams.
// 0 when the stream spans no time and so has no rate.
func offeredRate(arrivals []Request) float64 {
	if len(arrivals) == 0 || arrivals[len(arrivals)-1].Arrival <= 0 {
		return 0
	}
	return float64(len(arrivals)) / arrivals[len(arrivals)-1].Arrival
}

// Run drives the full open-loop stream through the serving stack and
// returns the measured statistics plus the analytic prediction for the same
// operating point.
func Run(cfg Config) (*Stats, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// run replays the arrivals through an assembled server and stops its
// workers on every way out.
func (s *server) run() (*Stats, error) {
	defer s.stop()
	for _, r := range s.arrivals {
		if err := s.offer(r); err != nil {
			return nil, err
		}
	}
	return s.finish()
}

// servingLoad maps a Config onto the analytic model's load description at the
// given offered rate.
func servingLoad(cfg Config, bindings []int, ratePerSec, computeFrac float64) perfmodel.ServingLoad {
	return perfmodel.ServingLoad{
		RatePerSec:  ratePerSec,
		MaxBatch:    cfg.MaxBatch,
		WindowSec:   cfg.WindowSec,
		Devices:     bindings,
		ComputeFrac: computeFrac,
	}
}

// Predict evaluates the analytic serving model for cfg at the offered rate
// ratePerSec and the given compute fraction (1 − expected cache hit rate)
// without executing a run — the cheap way to size a deployment or anchor a
// load sweep on predicted capacity. It reads no arrival stream, so cfg's is
// ignored: cfg is validated as if it offered one Poisson cohort at
// ratePerSec.
func Predict(cfg Config, ratePerSec, computeFrac float64) (perfmodel.ServingPrediction, error) {
	cfg.Workload, cfg.Replay, cfg.RatePerSec, cfg.ZipfExponent = nil, nil, ratePerSec, 0
	if err := cfg.Validate(); err != nil {
		return perfmodel.ServingPrediction{}, err
	}
	bindings := workerBindings(cfg)
	p, err := core.NewInferencePipeline(core.InferConfig{
		Plat: cfg.Plat, Data: cfg.Data, Model: cfg.Model,
		Fanouts: cfg.Fanouts, Device: bindings[0],
	})
	if err != nil {
		return perfmodel.ServingPrediction{}, err
	}
	return p.Model().PredictServing(servingLoad(cfg, bindings, ratePerSec, computeFrac))
}

// Package serve is the online-serving subsystem grown on the shared HyScale
// runtime: a request queue with kind-aware admission control, a dynamic
// batcher (size-or-deadline, with an optional per-kind split), a sharded
// LRU embedding cache keyed by vertex and model version, and a fleet of
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
// numeric forward (core.InferencePipeline.Propagate) may leave it: with
// GOMAXPROCS > 1, a batch whose forward is at least one of tensor's fan-out
// grains runs it on its worker's own goroutine while the loop carries on,
// executing the "sampling batch k+1 runs while batch k propagates" overlap
// the clock charges: a worker's pipeline holds two batches, so the loop
// samples the worker's next batch into one slot while its last still
// propagates in the other. No decision reads a forward's output, so the
// Stats are the inline run's bit for bit. An outstanding batch *settles* —
// its forward is waited for and its rows are copied into the cache entries
// its dispatch inserted — before its slot is sampled again (the worker's
// next-but-one dispatch), before any insert into an enabled cache, and
// before Run returns.
//
// The event loop is allocation-free in steady state (gated by
// TestServingSteadyStateZeroAlloc): batches ping-pong between two retained
// buffers, cache lookups and inserts run through batch APIs over
// preallocated scratch, per-vertex dedup uses a generation-stamped array,
// the per-device service-time memo is a dense slice, and a hand-off is one
// send and one receive on the worker's channels.
package serve

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// Config assembles a serving run.
type Config struct {
	Plat hw.Platform
	Data *datagen.Dataset
	// Model is the trained model to serve (read-only during the run).
	Model   *gnn.Model
	Fanouts []int
	// ModelVersion tags cache entries; bump it after a weight push to
	// invalidate stale embeddings. Zero means version 1.
	ModelVersion int

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
	// worker i binds Plat.Accels[i] (capped at the fleet size); without
	// accelerators one CPU worker serves.
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
	// pre-formation batcher's exact behavior), "priority" (class-weighted
	// close deadlines, class-ordered batches), or "sjf"
	// (predicted-service-aware deadlines). See ParseFormation.
	Formation string
	// ClassRates meters admission per SLO class with token buckets on the
	// virtual clock, alongside the per-kind caps; classes without an entry
	// are unmetered.
	ClassRates []ClassRateLimit

	QueueCap  int // admission control: max outstanding requests (0 → 1024)
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
	// fault.Parse): fail-stops drain and exclude workers and retighten
	// admission to the surviving capacity, stall windows delay batch starts,
	// and straggler windows inflate service times. Nil or a schedule with no
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

	QuantizeTransfer bool // int8 feature transfer for accelerator workers
	Seed             uint64
}

// worker is one pool member: a pipeline bound to a device plus its share
// counters. Predicted batch service times come from the pipeline's dense
// ServiceSec memo (they depend only on the computed-target count, which the
// size cap bounds; the server prefills 1..MaxBatch at construction).
//
// With GOMAXPROCS > 1 the worker also owns a goroutine that runs its
// batches' Propagate in hand-off order: req hands it a sampled batch, done
// returns each forward's error in the same order (and is closed when the
// goroutine exits). A worker keeps up to two forwards outstanding, one per
// pipeline slot: req buffers one batch behind the forward running, and done
// holds both results, so neither a hand-off nor a finished forward waits for
// the other side to be scheduled. out[i] is the outstanding batch of the
// slot the worker's Samples of parity i fill — its result and the cache
// entries its rows land in when it settles; res nil when none. req is nil
// when every forward runs inline.
type worker struct {
	pipe  *core.InferencePipeline
	stats DeviceStats

	req     chan *core.InferResult
	done    chan error
	samples int // Samples run on pipe
	out     [2]handoff
}

// handoff is one forward outstanding on a worker's goroutine.
type handoff struct {
	res  *core.InferResult
	keys []CacheKey
}

// start launches the worker's forward goroutine.
func (w *worker) start() {
	w.req, w.done = make(chan *core.InferResult, 1), make(chan error, len(w.out))
	go func() {
		defer close(w.done)
		for res := range w.req {
			w.done <- w.pipe.Propagate(res)
		}
	}()
}

// stop waits out the outstanding forwards, whatever their outcome, then
// stops the goroutine and waits for it to exit. Stopping a stopped worker
// is a no-op.
func (w *worker) stop() {
	if w.req == nil {
		return
	}
	for i := range w.out {
		if w.out[i].res != nil {
			<-w.done
			w.out[i].res = nil
		}
	}
	close(w.req)
	<-w.done
	w.req = nil
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
	if k <= 0 || k > nAccel {
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
	admission *AdmissionController
	cache     *ShardedCache
	router    router

	stats           *Stats
	latencies       []float64
	latClasses      []SLOClass // class of latencies[i], for per-class quantiles
	latDone         []float64  // completion time of latencies[i], for the fault window
	lastCompletion  float64
	batchReqSum     int
	computedBatches int

	// Fault-injection state: health is the schedule's per-worker view (no
	// windows and no fail times when nothing is scripted).
	health      *fleetHealth
	retryBudget int
	recoveryEnd float64 // latest re-dispatched completion (recovery metric)
	sloTargets  [NumClasses]float64
	haveSLO     bool

	// handoff is set when the workers' goroutines run (GOMAXPROCS > 1, the
	// rule RunEpoch applies to its prefetch worker); handoffs counts the
	// forwards that ran on them.
	handoff  bool
	handoffs int

	// Dispatch scratch, all MaxBatch-bounded and reused per batch.
	keys    []CacheKey  // lookup keys, one per batch request
	ready   []float64   // GetMany: per-request entry ready time
	hit     []bool      // GetMany: per-request hit flag
	order   []int32     // unique cache-missing vertices, first-seen order
	putKeys []CacheKey  // PutMany keys for order
	putEmbs [][]float32 // PutMany values (arena-copied by the cache)
	// Completion times are split by who answered: cache hits are served by
	// the host, computed requests by the routed worker — the split is what
	// keeps hit completions off an accelerator's in-flight (SetKindCap) share.
	hitDone  []float64
	compDone []float64
	// vertexGen dedups a batch's missing vertices without a map: slot v
	// holds the generation of the last batch that saw v.
	vertexGen []uint32
	gen       uint32
}

// newServer validates cfg and assembles a run (the entry point Run and the
// benchmarks share). With GOMAXPROCS > 1 it starts one goroutine per worker;
// every caller stops them with stop.
func newServer(cfg Config) (*server, error) {
	if cfg.NumRequests <= 0 {
		return nil, fmt.Errorf("serve: non-positive request count %d", cfg.NumRequests)
	}
	if cfg.ModelVersion == 0 {
		cfg.ModelVersion = 1
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 1024
	}
	if cfg.SmallBatchCut > 0 && !cfg.CPUPeer && len(cfg.Plat.Accels) > 0 {
		return nil, fmt.Errorf("serve: SmallBatchCut %d needs the CPU peer (set CPUPeer)", cfg.SmallBatchCut)
	}
	if cfg.Workload != nil && cfg.Replay != nil {
		return nil, fmt.Errorf("serve: Workload and Replay are mutually exclusive")
	}
	if cfg.Policy != "" && cfg.Policy != PolicyEarliest {
		return nil, fmt.Errorf("serve: Config.Policy %q: the one router is %q (\"affinity\" and \"least-loaded\" were removed)",
			cfg.Policy, PolicyEarliest)
	}
	formation, err := ParseFormation(cfg.Formation)
	if err != nil {
		return nil, err
	}
	cfg.Formation = formation
	bindings := workerBindings(cfg)
	rng := tensor.NewRNG(cfg.Seed)
	pool := make([]*worker, len(bindings))
	for i, device := range bindings {
		p, err := core.NewInferencePipeline(core.InferConfig{
			Plat: cfg.Plat, Data: cfg.Data, Model: cfg.Model,
			Fanouts: cfg.Fanouts, Device: device,
			QuantizeTransfer: cfg.QuantizeTransfer,
			Seed:             rng.Uint64(),
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
		arrivals = cfg.Replay.Requests[:min(cfg.NumRequests, len(cfg.Replay.Requests))]
		// A trace is outside input and ReadTrace cannot know the graph.
		for _, r := range arrivals {
			if r.Vertex < 0 || int(r.Vertex) >= cfg.Data.Graph.NumVertices {
				return nil, fmt.Errorf("serve: replayed request %d asks for vertex %d, outside the graph's %d vertices",
					r.ID, r.Vertex, cfg.Data.Graph.NumVertices)
			}
		}
	} else {
		arrivals, err = generateArrivals(cfg)
		if err != nil {
			return nil, err
		}
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	health, err := newFleetHealth(cfg.Faults, len(pool))
	if err != nil {
		return nil, err
	}
	retryBudget := cfg.RetryBudget
	switch {
	case retryBudget == 0:
		retryBudget = 2
	case retryBudget < 0:
		retryBudget = 0
	}
	var sloTargets [NumClasses]float64
	haveSLO := false
	for _, t := range cfg.SLOTargets {
		if t.Class >= NumClasses {
			return nil, fmt.Errorf("serve: SLO target class %d out of range", t.Class)
		}
		if t.TargetSec <= 0 {
			return nil, fmt.Errorf("serve: non-positive SLO target %v for %s", t.TargetSec, t.Class)
		}
		sloTargets[t.Class] = t.TargetSec
		haveSLO = true
	}
	batcher, err := NewSplitBatcher(cfg.MaxBatch, cfg.WindowSec, cfg.SmallBatchCut)
	if err != nil {
		return nil, err
	}
	admission, err := NewAdmissionController(cfg.QueueCap)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBatch > cfg.QueueCap {
		return nil, fmt.Errorf("serve: MaxBatch %d exceeds QueueCap %d: admission holds at most QueueCap requests, so no batch can be larger",
			cfg.MaxBatch, cfg.QueueCap)
	}
	// Prefill the service-time memo for every batch size the router can ask
	// about, so routing never allocates in steady state.
	for _, w := range pool {
		for c := 1; c <= cfg.MaxBatch; c++ {
			if _, err := w.pipe.ServiceSec(c); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Formation != FormationFCFS {
		// The sjf predictor is pool[0]'s dense service memo — prefilled
		// above, so formation never allocates in steady state.
		svc := func(size int) float64 {
			v, err := pool[0].pipe.ServiceSec(size)
			if err != nil {
				return 0
			}
			return v
		}
		if err := batcher.SetFormation(cfg.Formation, svc); err != nil {
			return nil, err
		}
	}
	setKindCaps(admission, pool, cfg.QueueCap)
	for _, cr := range cfg.ClassRates {
		if err := admission.SetClassRate(cr.Class, cr.RatePerSec, cr.Burst); err != nil {
			return nil, err
		}
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
		stats:      &Stats{Routes: make([]int, 0, len(arrivals))},
		latencies:  make([]float64, 0, len(arrivals)),
		latClasses: make([]SLOClass, 0, len(arrivals)),
		latDone:    make([]float64, 0, len(arrivals)),

		health:      health,
		retryBudget: retryBudget,
		sloTargets:  sloTargets,
		haveSLO:     haveSLO,
		handoff:     runtime.GOMAXPROCS(0) > 1,

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
	if s.handoff {
		for _, w := range pool {
			for i := range w.out {
				w.out[i].keys = make([]CacheKey, 0, cfg.MaxBatch)
			}
			w.start()
		}
	}
	return s, nil
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
	s.latencies = append(s.latencies, done-r.Arrival)
	s.latClasses = append(s.latClasses, r.Class)
	s.latDone = append(s.latDone, done)
	if r.Class < NumClasses {
		s.stats.PerClass[r.Class].Served++
	}
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
	s.stats.Batches++
	s.batchReqSum += len(batch)
	hit := s.lookup(batch, closeAt)
	if len(s.order) == 0 { // the cache answered every request
		s.release(hw.CPU)
		return nil
	}
	p, lost, err := s.place(batch, hit, closeAt)
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
		keys[i] = CacheKey{Vertex: r.Vertex, Version: s.cfg.ModelVersion}
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
	small := s.batcher.Small(len(s.order))
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
// whether the batch's forward is left to the worker's goroutine (async; see
// complete) rather than already run inline: it is when the goroutines run and
// the forward is at least one of tensor's fan-out grains of work — below
// that, the hand-off would cost about what it overlaps.
func (s *server) execute(p prediction) (*core.InferResult, float64, bool, error) {
	w := s.pool[p.worker]
	// Sample rebuilds the slot of the worker's next-but-one previous batch:
	// that forward must be done. The previous batch's may still run.
	if err := s.settle(w, w.samples%2); err != nil {
		return nil, 0, false, err
	}
	res, err := w.pipe.Sample(s.order)
	if err != nil {
		return nil, 0, false, err
	}
	w.samples++
	async := s.handoff && tensor.FanOut(1, res.ForwardWork) == 1
	if !async {
		if err := w.pipe.Propagate(res); err != nil {
			return nil, 0, false, err
		}
	}
	res.Stage = res.Stage.Scaled(p.factor)
	return res, w.pipe.CompleteAfter(p.ready, res.Stage), async, nil
}

// complete publishes a batch worker wi executed: its embeddings enter the
// cache, its computed requests are answered at done, and the run, device and
// admission counters take its share. An async batch's entries are inserted
// here all the same — same keys, ready time and LRU position — with no value;
// its forward is handed to the worker last, and its rows land when it
// settles.
func (s *server) complete(batch []Request, hit []bool, wi int, res *core.InferResult, done float64, async, redispatched bool) error {
	if redispatched {
		s.stats.Redispatched++
		if done > s.recoveryEnd {
			s.recoveryEnd = done
		}
	}
	if s.cache.Capacity() > 0 {
		// An insert may evict an entry whose rows have not landed, and a
		// later batch may re-insert its key: settle first, so no stale row
		// can land over a newer one.
		if err := s.settleAll(); err != nil {
			return err
		}
	}
	s.putKeys, s.putEmbs = s.putKeys[:0], s.putEmbs[:0]
	for i, v := range s.order {
		s.putKeys = append(s.putKeys, CacheKey{Vertex: v, Version: s.cfg.ModelVersion})
		var row []float32
		if !async {
			row = res.Logits.Row(i)
		}
		s.putEmbs = append(s.putEmbs, row)
	}
	// PutMany copies each row into the shard arena, so the views into
	// the worker's workspace are not retained past this call.
	s.cache.PutMany(s.putKeys, s.putEmbs, done)
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
	s.computedBatches++
	s.stats.EdgesPerSec += res.Edges // normalized by makespan in finish
	w := s.pool[wi]
	w.stats.Batches++
	w.stats.Requests += served
	w.stats.BusySec += svc
	s.stats.Routes = append(s.stats.Routes, wi)
	s.release(w.pipe.Device().Kind)
	if async {
		h := &w.out[(w.samples+1)%2] // the slot the batch was just sampled into
		h.keys = append(h.keys[:0], s.putKeys...)
		h.res = res
		w.req <- res
		s.handoffs++
	}
	return nil
}

// settle completes w's outstanding batch in slot i, if any: it waits for the
// forward and copies the batch's rows into the cache entries complete
// inserted (a no-op on a disabled cache). done returns the forwards in
// hand-off order, so slot i must hold the worker's older outstanding batch.
func (s *server) settle(w *worker, i int) error {
	h := &w.out[i]
	if h.res == nil {
		return nil
	}
	res := h.res
	h.res = nil
	if err := <-w.done; err != nil {
		return fmt.Errorf("serve: forward on %s (device %d): %w", w.stats.Name, w.stats.Device, err)
	}
	for j, k := range h.keys {
		s.cache.fill(k, res.Logits.Row(j))
	}
	return nil
}

// settleAll settles every worker's outstanding batches, older first.
func (s *server) settleAll() error {
	for _, w := range s.pool {
		for k := range w.out {
			if err := s.settle(w, (w.samples+k)%2); err != nil {
				return err
			}
		}
	}
	return nil
}

// stop drains every outstanding forward and stops the workers' goroutines —
// on every way out of a run, error or not.
func (s *server) stop() {
	for _, w := range s.pool {
		w.stop()
	}
}

// release moves the batch's answered requests from waiting to in-flight: the
// cache hits on the host, the computed requests on the kind that ran them.
func (s *server) release(kind hw.Kind) {
	s.admission.DispatchedKind(hw.CPU, s.hitDone)
	s.admission.DispatchedKind(kind, s.compDone)
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
		if r.Class < NumClasses {
			s.stats.PerClass[r.Class].Shed++
		}
	}
	s.admission.Cancel(n)
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

// applyFailures applies every scripted fail-stop at or before now to the
// admission plane: per-kind in-flight caps are re-split over the surviving
// workers and class buckets retighten to the surviving-capacity fraction
// (degraded-mode admission). Routing needs no application step — worker
// liveness is a pure function of virtual time.
func (s *server) applyFailures(now float64) {
	n := s.health.popFailures(now)
	if n == 0 {
		return
	}
	s.stats.FailedWorkers += n
	alive := s.health.aliveCount(now)
	s.admission.SetDegraded(float64(alive) / float64(len(s.pool)))
	if alive == 0 {
		return
	}
	var counts [hw.KindCount]int
	for i, w := range s.pool {
		if s.health.alive(i, now) {
			counts[w.pipe.Device().Kind]++
		}
	}
	for kind, c := range counts {
		if c > 0 {
			s.admission.SetKindCap(hw.Kind(kind), max(1, s.cfg.QueueCap*c/alive))
		}
	}
}

// offer feeds one arrival through deadline-expiry, admission, and batching —
// the event loop's body, exposed for the zero-alloc gate and benchmarks.
func (s *server) offer(r Request) error {
	s.applyFailures(r.Arrival)
	s.stats.Offered++
	if r.Class < NumClasses {
		s.stats.PerClass[r.Class].Offered++
	}
	for {
		batch, closeAt := s.batcher.CloseExpired(r.Arrival)
		if batch == nil {
			break
		}
		if err := s.dispatch(batch, closeAt); err != nil {
			return err
		}
	}
	if s.admission.ShedClass(r.Class) {
		// Degraded-mode admission: shed the classes the surviving capacity
		// can no longer afford, bulk before interactive.
		s.stats.Shed++
		if r.Class < NumClasses {
			s.stats.PerClass[r.Class].Shed++
		}
		return nil
	}
	if !s.admission.AdmitClass(r.Arrival, r.Class) {
		s.stats.Rejected++
		if r.Class < NumClasses {
			s.stats.PerClass[r.Class].Rejected++
		}
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
	if batch, closeAt := s.batcher.Flush(); batch != nil {
		if err := s.dispatch(batch, closeAt); err != nil {
			return nil, err
		}
	}
	if err := s.settleAll(); err != nil {
		return nil, err
	}
	stats := s.stats
	stats.Served = len(s.latencies)
	stats.summarizeLatencies(s.latencies)
	stats.summarizePerClass(s.latencies, s.latClasses)
	hits, _, evictions := s.cache.Stats()
	stats.CacheHits = hits
	stats.Evictions = evictions
	if stats.Served > 0 {
		stats.HitRate = float64(stats.Served-stats.Computed) / float64(stats.Served)
	}
	if stats.Batches > 0 {
		stats.MeanBatch = float64(s.batchReqSum) / float64(stats.Batches)
	}
	if s.computedBatches > 0 {
		stats.MeanServiceSec /= float64(s.computedBatches)
	}
	stats.MakespanSec = s.lastCompletion
	if stats.MakespanSec > 0 {
		stats.ThroughputRPS = float64(stats.Served) / stats.MakespanSec
		stats.EdgesPerSec /= stats.MakespanSec
	}
	if s.haveSLO {
		for i, l := range s.latencies {
			c := s.latClasses[i]
			if t := s.sloTargets[c]; t > 0 && l > t {
				stats.DeadlineMisses++
				stats.PerClass[c].DeadlineMisses++
			}
		}
		for c := range stats.PerClass {
			stats.PerClass[c].SLOSec = s.sloTargets[c]
		}
	}
	if !math.IsInf(s.health.firstFailSec, 1) {
		if s.recoveryEnd > s.health.firstFailSec {
			stats.RecoverySec = s.recoveryEnd - s.health.firstFailSec
		}
		// Tail of the fault window: requests whose completions land at or
		// after the first fail-stop.
		var window []float64
		for i, done := range s.latDone {
			if done >= s.health.firstFailSec {
				window = append(window, s.latencies[i])
			}
		}
		stats.FaultWindowServed = len(window)
		if len(window) > 0 {
			sort.Float64s(window)
			stats.FaultWindowP99Sec = percentile(window, 0.99)
		}
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

// setKindCaps bounds each device kind's in-flight admission share on mixed
// pools: capacity split proportionally to the kind's worker count, so one
// slow kind's late completions cannot occupy the whole queue and starve the
// kinds that are keeping up. Single-kind pools keep the plain global bound.
func setKindCaps(a *AdmissionController, pool []*worker, queueCap int) {
	var counts [hw.KindCount]int
	kinds := 0
	for _, w := range pool {
		if counts[w.pipe.Device().Kind] == 0 {
			kinds++
		}
		counts[w.pipe.Device().Kind]++
	}
	if kinds < 2 {
		return
	}
	for kind, n := range counts {
		if n > 0 {
			a.SetKindCap(hw.Kind(kind), max(1, queueCap*n/len(pool)))
		}
	}
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

// Predict evaluates the analytic serving model for cfg at the given compute
// fraction (1 − expected cache hit rate) without executing a run — the
// cheap way to size a deployment or anchor a load sweep on predicted
// capacity.
func Predict(cfg Config, computeFrac float64) (perfmodel.ServingPrediction, error) {
	bindings := workerBindings(cfg)
	p, err := core.NewInferencePipeline(core.InferConfig{
		Plat: cfg.Plat, Data: cfg.Data, Model: cfg.Model,
		Fanouts: cfg.Fanouts, Device: bindings[0],
		QuantizeTransfer: cfg.QuantizeTransfer,
	})
	if err != nil {
		return perfmodel.ServingPrediction{}, err
	}
	return p.Model().PredictServing(servingLoad(cfg, bindings, cfg.RatePerSec, computeFrac))
}

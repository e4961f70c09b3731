// Command hyscale trains a GNN with the HyScale-GNN hybrid runtime on a
// synthetic dataset shaped like one of the paper's benchmarks, scaled down
// to fit in memory. It reports per-epoch loss, accuracy, virtual-clock epoch
// time and throughput, the task mapping the DRM engine converged to, and the
// trained model's held-out accuracy under exact full-graph inference.
//
// With -nodes N > 1 it executes the multi-node extension (paper §VIII
// future work): the graph is partitioned across N sharded engine replicas
// (each with its own DRM instance) that exchange real gradients through a
// ring all-reduce, with remote-feature and all-reduce time charged on the
// virtual clock; the run ends by comparing the executed slowdown against
// the analytic cluster model's prediction.
//
// With -serve the trained model is handed to the online-serving subsystem
// (beyond the paper): a synthetic open-loop Zipf request stream flows
// through kind-aware admission control, a dynamic batcher, an LRU embedding
// cache, and a fleet of per-device workers (one per accelerator, plus the
// host CPU peer under -serve-cpu-peer) routed by earliest predicted
// completion, all charged on the same virtual clock; the run reports
// p50/p99 latency, throughput, the per-device batch split, and the analytic
// serving model's prediction for the same operating point. Combined with
// -accels the serving pool is heterogeneous: "-accels gpu:2,fpga:1 -serve"
// serves on 2 A5000 workers plus a U250 worker charged the §IV-C dataflow's
// cycle account, each priced per kind.
//
// With -accels the accelerator fleet is overridden by an explicit —
// possibly heterogeneous — device list (the paper's title configuration):
// "-accels gpu:2,fpga:1" trains on dual EPYC + 2× A5000 + 1× U250, each
// device behind its kind-native link, with FPGA shares charged the §IV-C
// dataflow kernels' cycle account.
//
// Usage:
//
//	hyscale -dataset ogbn-products -model sage -platform cpu-fpga \
//	        -scale 2000 -epochs 5 -batch 256 [-nodes 4] \
//	        [-accels gpu:2,fpga:1] \
//	        [-serve -serve-rate 5000 -serve-requests 20000 \
//	         -serve-batch 32 -serve-window-us 500 -serve-cache 4096]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

func main() {
	var o options
	flag.StringVar(&o.dataset, "dataset", "ogbn-products", "dataset spec: ogbn-products | ogbn-papers100M | MAG240M(homo)")
	flag.StringVar(&o.model, "model", "sage", "model: gcn | sage")
	flag.StringVar(&o.platform, "platform", "cpu-fpga", "platform: cpu-gpu | cpu-fpga")
	flag.StringVar(&o.accels, "accels", "", "heterogeneous fleet override: kind[:count] list, e.g. gpu:2,fpga:1 (mixed devices get per-kind links)")
	flag.Int64Var(&o.scale, "scale", 2000, "dataset scale-down factor (graph is synthetic RMAT)")
	flag.IntVar(&o.epochs, "epochs", 5, "epochs to train")
	flag.IntVar(&o.batch, "batch", 256, "per-trainer mini-batch size")
	flag.Float64Var(&o.lr, "lr", 0.3, "learning rate")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	noHybrid := flag.Bool("no-hybrid", false, "disable hybrid CPU training")
	noTFP := flag.Bool("no-tfp", false, "disable two-stage feature prefetching")
	noDRM := flag.Bool("no-drm", false, "disable dynamic resource management")
	flag.IntVar(&o.tensorPar, "tensor-par", 0, "upper bound on the goroutines one tensor kernel call (GEMM, aggregation, gather) or the dataset generator fans out to — work below the grain runs on the caller, and the dataset is bit-identical at any bound; 0 = one per CPU")
	flag.StringVar(&o.simd, "simd", "auto", "SIMD dispatch level for the tensor kernels: auto | generic | avx2 | avx512 (every level is bit-identical; avx512 widens the GEMM tile only; levels above the CPU's capability are rejected)")
	flag.BoolVar(&o.quantize, "quantize", false, "int8-quantize features on the PCIe link (§VIII extension)")
	flag.BoolVar(&o.saint, "saint", false, "use GraphSAINT random-walk sampling instead of neighbor sampling")
	flag.StringVar(&o.pipeline, "pipeline", "serial", "epoch execution schedule: serial | prefetch (prefetch overlaps iteration i+1's sampling/gather with iteration i's propagation; bit-identical trajectory)")
	flag.IntVar(&o.nodes, "nodes", 1, "execute a multi-node run with this many partitioned shards")
	flag.StringVar(&o.trace, "trace", "", "write per-epoch CSV telemetry to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile, taken when the run ends (go tool pprof -sample_index=alloc_space attributes everything it allocated), to this file")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run (training and serving, after the dataset is materialized) to this file, for go tool pprof")
	flag.BoolVar(&o.serveMode, "serve", false, "after training, serve an open-loop request stream with the trained model")
	flag.Float64Var(&o.serveRate, "serve-rate", 5000, "serving: offered load in requests/second")
	flag.IntVar(&o.serveRequests, "serve-requests", 20000, "serving: requests in the open-loop stream")
	flag.IntVar(&o.serveBatch, "serve-batch", 32, "serving: dynamic batcher's max batch size")
	flag.Float64Var(&o.serveWindowUs, "serve-window-us", 500, "serving: dynamic batcher's max-wait deadline (µs)")
	flag.IntVar(&o.serveWorkers, "serve-workers", 2, "serving: accelerator workers (capped at the platform's accelerators; each binds one device)")
	flag.BoolVar(&o.servePeer, "serve-cpu-peer", false, "serving: add a host-CPU worker to the pool (kind-aware routing's landing spot for small batches)")
	flag.IntVar(&o.serveSmall, "serve-small", 0, "serving: route batches with at most this many cache-missing targets to the CPU peer (0 disables; needs -serve-cpu-peer)")
	flag.IntVar(&o.serveQueue, "serve-queue", 1024, "serving: admission-control queue capacity")
	flag.IntVar(&o.serveCache, "serve-cache", 4096, "serving: embedding-cache capacity in entries (0 disables)")
	flag.Float64Var(&o.serveZipf, "serve-zipf", 1.1, "serving: Zipf exponent of vertex popularity (0 = uniform)")
	flag.IntVar(&o.serveShards, "serve-shards", 1, "serving: embedding-cache shards, hash-partitioned LRUs each holding its share of -serve-cache (rounded down to a power of two; 1 keeps the global-LRU eviction order)")
	flag.BoolVar(&o.routeTrace, "route-trace", false, "serving: record a per-batch routing decision trace (chosen worker plus every counterfactual) and print the head of it")
	flag.StringVar(&o.serveWorkload, "serve-workload", "", "serving: multi-cohort workload spec, e.g. 'web,rate=4000,class=interactive,zipf=1.1;etl,rate=1500,dist=weibull,shape=0.7,class=bulk' (replaces -serve-rate/-serve-zipf)")
	flag.StringVar(&o.serveFormation, "serve-formation", "", "serving: batch-formation policy: fcfs (default) | priority | sjf")
	flag.StringVar(&o.serveTrace, "serve-trace", "", "serving: record=PATH records the arrival stream to PATH and replays it in-run; replay=PATH serves a recorded trace")
	flag.StringVar(&o.faults, "faults", "", "deterministic fault schedule: serving events like 'fail,worker=1,at=0.05;slow,worker=0,from=0.02,to=0.04,factor=3' (needs -serve) or cluster events like 'fail,node=2,at=iter:5;degrade,link,from=iter:2,to=iter:6,factor=4' (needs -nodes > 1); empty runs fault-free")
	flag.IntVar(&o.retryBudget, "retry-budget", 0, "serving: re-dispatch attempts per batch after a worker failure (0 = default of 2, negative = no retries)")
	flag.StringVar(&o.serveSLO, "serve-slo", "", "serving: per-class latency SLO targets in milliseconds, e.g. 'interactive=2,standard=10,bulk=50' (enables deadline-miss accounting)")
	flag.Parse()
	o.hybrid, o.tfp, o.drm = !*noHybrid, !*noTFP, !*noDRM

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "hyscale:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	r, err := buildConfig(o)
	if err != nil {
		return err
	}
	if o.tensorPar > 0 {
		tensor.SetParallelism(o.tensorPar)
	}
	if _, err := tensor.SetSIMDLevel(r.SIMD); err != nil {
		return fmt.Errorf("-simd %q: %w", o.simd, err)
	}
	fmt.Printf("Materializing %s (scaled 1/%d: %d vertices, %d edges, f=%v; generation and tensor kernels on up to %d goroutines, %s simd)...\n",
		o.dataset, o.scale, r.Spec.NumVertices, r.Spec.NumEdges, r.Spec.FeatDims,
		tensor.Parallelism(), tensor.ActiveSIMDLevel())
	ds, err := datagen.Materialize(r.Spec, 0.2, tensor.NewRNG(o.seed))
	if err != nil {
		return err
	}
	return trace.WithCPUProfile(o.cpuProfile, func() error {
		return trace.WithHeapProfile(o.memProfile, func() error { return runPlanes(o, r, ds) })
	})
}

// runPlanes is everything after set-up — the part -cpuprofile covers, and the
// part whose end -memprofile records: the
// training run (single- or multi-node) and, under -serve, the request stream.
func runPlanes(o options, r *runSpec, ds *datagen.Dataset) error {
	coreCfg := r.coreConfig(ds)
	return withEpochCSV(o.trace, func(rec *trace.Recorder) error {
		if o.nodes > 1 {
			return runMultiNode(coreCfg, r, o.nodes, o.epochs, rec)
		}
		model, err := runSingleNode(r, coreCfg, o, rec)
		if err != nil {
			return err
		}
		if o.serveMode {
			return runServe(r, ds, model)
		}
		return nil
	})
}

// withEpochCSV runs fn, which records each training epoch into rec, and then
// writes the recorded epochs as CSV to the file at path — the -trace flag, for
// single- and multi-node runs alike. As with -memprofile
// (trace.WithHeapProfile), the file is created before fn runs, so an
// unwritable path fails the run before its first epoch. It returns fn's error,
// or else the first of the write and close errors. An empty path writes
// nothing.
func withEpochCSV(path string, fn func(rec *trace.Recorder) error) error {
	var rec trace.Recorder
	if path == "" {
		return fn(&rec)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	if err := fn(&rec); err != nil {
		f.Close() // the run's error is the one to report
		return err
	}
	err = rec.WriteEpochsCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("-trace %s: %w", path, err)
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

// runSingleNode trains on one node, recording each epoch into rec, prints the
// trained model's held-out accuracy, and returns the model (a fresh randomly
// initialised one when -epochs 0 under -serve).
func runSingleNode(r *runSpec, coreCfg core.Config, o options, rec *trace.Recorder) (*gnn.Model, error) {
	if o.epochs == 0 {
		fmt.Println("Skipping training (-epochs 0): serving an untrained model.")
		return gnn.NewModel(coreCfg.Model, tensor.NewRNG(o.seed))
	}
	engine, err := core.NewEngine(coreCfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("Training %s on %s (hybrid=%v tfp=%v drm=%v quantize=%v saint=%v pipeline=%s)\n\n",
		r.Kind, r.Plat.Name, o.hybrid, o.tfp, o.drm, o.quantize, o.saint, r.Pipeline)
	var fpgaAgg, fpgaUpd, fpgaTraffic int64
	fmt.Printf("%-6s %-10s %-10s %-14s %-10s\n", "epoch", "loss", "accuracy", "virtual-epoch", "MTEPS")
	for ep := 0; ep < o.epochs; ep++ {
		st, err := engine.RunEpoch()
		if err != nil {
			return nil, err
		}
		fpgaAgg += st.FPGA.AggCycles
		fpgaUpd += st.FPGA.UpdateCycles
		fpgaTraffic += st.FPGA.TrafficBytes
		fmt.Printf("%-6d %-10.4f %-10.3f %-14s %-10.1f\n",
			st.Epoch, st.Loss, st.Accuracy, fmt.Sprintf("%.4fs", st.VirtualSec), st.MTEPS)
		accelShare := 0
		if len(st.Assignment.AccelBatch) > 0 {
			accelShare = st.Assignment.AccelBatch[0]
		}
		rec.RecordEpoch(trace.EpochSample{
			Epoch: st.Epoch, Loss: st.Loss, Accuracy: st.Accuracy,
			VirtualSec: st.VirtualSec, MTEPS: st.MTEPS,
			CPUBatch: st.Assignment.CPUBatch, AccelBatch: accelShare,
		})
	}
	a := engine.Assignment()
	fmt.Printf("\nFinal task mapping: CPU batch %d, accel batches %v\n", a.CPUBatch, a.AccelBatch)
	fmt.Printf("CPU threads: sampler %d, loader %d, trainer %d\n",
		a.SampThreads, a.LoadThreads, a.TrainThreads)
	if fpgaAgg > 0 {
		fmt.Printf("FPGA dataflow kernels: %d aggregate cycles, %d update cycles, %.1f MB external traffic\n",
			fpgaAgg, fpgaUpd, float64(fpgaTraffic)/1e6)
	}
	acc, err := engine.Evaluate(nil)
	if err != nil {
		return nil, err
	}
	fmt.Printf("Held-out accuracy (full-graph inference over the non-training vertices): %.3f\n", acc)
	return &gnn.Model{Cfg: coreCfg.Model, Params: engine.Params()}, nil
}

// inSync turns the fleet's cross-node divergence into the run's verdict.
// Synchronous SGD is bit-exact — every node applies the same ring average —
// so any nonzero divergence, NaN included, is a protocol bug.
func inSync(d float64) error {
	if d != 0 {
		return fmt.Errorf("fleet divergence %g — synchronous SGD violated", d)
	}
	return nil
}

// runServe drives the open-loop stream against the trained model.
func runServe(r *runSpec, ds *datagen.Dataset, model *gnn.Model) error {
	cfg := r.serveConfig(ds, model)
	switch r.TraceMode {
	case "record":
		// Record the configured stream once, persist it, and replay it in-run
		// so the reported Stats are exactly what a later replay reproduces.
		tr, err := serve.GenerateTrace(cfg)
		if err != nil {
			return err
		}
		f, err := os.Create(r.TracePath)
		if err != nil {
			return err
		}
		if err := serve.WriteTrace(f, tr); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nrecorded %d arrivals to %s\n", len(tr.Requests), r.TracePath)
		cfg.Workload, cfg.Replay = nil, tr
	case "replay":
		f, err := os.Open(r.TracePath)
		if err != nil {
			return err
		}
		tr, err := serve.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("\nreplaying %d recorded arrivals from %s\n", len(tr.Requests), r.TracePath)
		cfg.Replay = tr
		if cfg.NumRequests > len(tr.Requests) {
			cfg.NumRequests = len(tr.Requests)
		}
	}
	peer := ""
	if cfg.CPUPeer {
		peer = " + CPU peer"
	}
	stream := fmt.Sprintf("at %.0f req/s (Zipf %.2f)", cfg.RatePerSec, cfg.ZipfExponent)
	if cfg.Workload != nil {
		stream = fmt.Sprintf("from %d cohorts", len(cfg.Workload.Cohorts))
	} else if cfg.Replay != nil {
		stream = "from the recorded trace"
	}
	fmt.Printf("\nServing %d requests %s (batch ≤%d, window %.0fµs, formation %s, cache %d, %d workers%s)\n\n",
		cfg.NumRequests, stream, cfg.MaxBatch,
		cfg.WindowSec*1e6, cfg.Formation, cfg.CacheSize, cfg.Workers, peer)
	st, err := serve.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Println(st)
	if cfg.RouteTrace {
		fmt.Println("\nRouting decisions (-route-trace):")
		fmt.Println(st.TraceString(12))
	}
	return nil
}

// runMultiNode executes the sharded multi-node protocol, recording each epoch
// into rec, and closes with the executed-vs-analytic slowdown comparison.
func runMultiNode(coreCfg core.Config, r *runSpec, nodes, epochs int, rec *trace.Recorder) error {
	// Single-node baseline (one fill epoch + one steady-state epoch) for the
	// slowdown comparison.
	base, err := core.NewEngine(coreCfg)
	if err != nil {
		return err
	}
	var basePerIter float64
	for i := 0; i < 2; i++ {
		st, err := base.RunEpoch()
		if err != nil {
			return err
		}
		basePerIter = st.VirtualSec / float64(st.Iterations)
	}

	net := hw.Ethernet100G()
	m, err := cluster.NewMultiNode(cluster.MultiNodeConfig{
		Nodes: nodes, Net: net, Node: coreCfg, Faults: r.Faults,
	})
	if err != nil {
		return err
	}
	fmt.Printf("Training on %d nodes over %s (edge cut %.2f, balance %.2f, %d train vertices/node)\n\n",
		nodes, net.Name, m.EdgeCut(), m.Partition().Balance(), m.TrainPerNode())
	fmt.Printf("%-6s %-10s %-10s %-14s %-10s %-12s %-12s\n",
		"epoch", "loss", "accuracy", "virtual-epoch", "MTEPS", "net-fetch", "net-sync")
	var last *cluster.MultiNodeStats
	for ep := 0; ep < epochs; ep++ {
		st, err := m.RunEpoch()
		if err != nil {
			return err
		}
		last = st
		fmt.Printf("%-6d %-10.4f %-10.3f %-14s %-10.1f %-12s %-12s\n",
			st.Epoch, st.Loss, st.Accuracy, fmt.Sprintf("%.4fs", st.VirtualSec),
			st.MTEPS, fmt.Sprintf("%.4fs", st.NetFetchSec), fmt.Sprintf("%.4fs", st.NetSyncSec))
		a := m.Node(0).Assignment()
		accelShare := 0
		if len(a.AccelBatch) > 0 {
			accelShare = a.AccelBatch[0]
		}
		rec.RecordEpoch(trace.EpochSample{
			Epoch: st.Epoch, Loss: st.Loss, Accuracy: st.Accuracy,
			VirtualSec: st.VirtualSec, MTEPS: st.MTEPS,
			CPUBatch: a.CPUBatch, AccelBatch: accelShare,
		})
	}
	for i := 0; i < nodes; i++ {
		a := m.Node(i).Assignment()
		fmt.Printf("\nnode %d task mapping: CPU batch %d, accel batches %v (threads %d/%d/%d)",
			i, a.CPUBatch, a.AccelBatch, a.SampThreads, a.LoadThreads, a.TrainThreads)
	}
	fmt.Println()
	if last.FailedNodes > 0 {
		fmt.Printf("%d node(s) fail-stopped mid-run; the survivors re-ringed, rescaled the gradient mean and continued.\n",
			last.FailedNodes)
	}
	if err := inSync(m.ReplicasInSync()); err != nil {
		return err
	}
	fmt.Println("Fleet consistency check: all shards hold identical weights after the ring all-reduce.")

	execSlow := (last.VirtualSec / float64(last.Iterations)) / basePerIter
	pred, err := cluster.EpochTime(m.Analytic())
	if err != nil {
		return err
	}
	predSlow := cluster.PredictedSlowdown(pred, basePerIter)
	fmt.Printf("\nMulti-node erosion: executed %.3fx slower per iteration; analytic model predicts %.3fx\n",
		execSlow, predSlow)
	fmt.Printf("  per-iteration network: fetch %.3gs executed / %.3gs analytic, all-reduce %.3gs / %.3gs\n",
		last.NetFetchSec/float64(last.Iterations), pred.RemoteFetch,
		last.NetSyncSec/float64(last.Iterations), pred.GlobalSync)
	return nil
}

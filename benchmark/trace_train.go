package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/drm"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/pipesim"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// epochRun is n epochs of one fleet: their stats, wall times, process CPU
// seconds and heap-object count.
type epochRun struct {
	Epochs []epochObs
	Wall   []float64
	CPUSec float64
	Allocs uint64
}

// runEpochs runs n epochs on a warmed-up fleet, under root spans when tr is
// non-nil.
func runEpochs(fl fleet, n int, tr *tracer, name string) (*epochRun, error) {
	run := &epochRun{}
	before := mallocs()
	watch := startWatch()
	for i := 0; i < n; i++ {
		id := 0
		if tr != nil {
			id = tr.begin(0, name, i)
		}
		t0 := time.Now()
		ep, err := fl.RunEpoch()
		d := time.Since(t0).Seconds()
		if tr != nil {
			tr.end(id)
		}
		if err != nil {
			return nil, err
		}
		run.Epochs = append(run.Epochs, ep)
		run.Wall = append(run.Wall, d)
	}
	_, run.CPUSec = watch.elapsed()
	run.Allocs = mallocs() - before
	return run, nil
}

// sameEpochs reports whether two runs of the same epochs agree on every
// virtual and count figure, bit for bit.
func sameEpochs(a, b []epochObs) bool {
	return len(a) > 0 && reflect.DeepEqual(a, b)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// traceTrain produces the training half's per-layer metrics.
func traceTrain(tr *tracer, st *trainState, seed uint64, m *metricSet, doc *document) ([]check, error) {
	spec := st.Spec
	rootName := "core.Engine.RunEpoch"
	if spec.Nodes > 1 {
		rootName = "cluster.MultiNode.RunEpoch"
	}

	// The same short run twice from the same seed: bare on the fleet set-up
	// built, then under root spans on a fresh one.
	bare, err := runEpochs(st.Fleet, tracedEpochs, nil, "")
	if err != nil {
		return nil, err
	}
	traced, err := setupTrain(spec, st.Data, seed)
	if err != nil {
		return nil, err
	}
	run, err := runEpochs(traced.Fleet, tracedEpochs, tr, rootName)
	if err != nil {
		return nil, err
	}
	eps, wall, allocs := run.Epochs, run.Wall, run.Allocs
	last := eps[len(eps)-1]
	nodes := max(1, spec.Nodes)
	iters := 0
	changes := 0
	prev := traced.Warm.Assignment
	for _, ep := range eps {
		iters += ep.Iterations
		if !reflect.DeepEqual(ep.Assignment, prev) {
			changes++
		}
		prev = ep.Assignment
	}
	epochWallMS := 1e3 * sum(wall) / float64(len(wall))
	m.set("core.epoch_wall_ms", epochWallMS)
	m.set("core.iters_per_epoch", float64(last.Iterations))
	m.set("core.allocs_per_iter", ratio(float64(allocs), float64(iters*nodes)))
	m.set("core.replica_divergence", traced.Fleet.Divergence())
	m.set("core.trace_overhead_frac", ratio(sum(wall), sum(bare.Wall))-1)
	m.set("drm.assignment_changes", float64(changes))
	m.set("drm.cpu_batch_final", float64(last.Assignment.CPUBatch))

	if spec.Nodes > 1 {
		m.set("cluster.epoch_wall_ms", epochWallMS)
		m.set("cluster.virt_net_sync_ms", 1e3*last.NetSyncSec)
		m.set("cluster.virt_net_fetch_ms", 1e3*last.NetFetchSec)
		m.set("cluster.virt_net_frac", ratio(last.NetSyncSec+last.NetFetchSec, last.VirtualSec))
		m.set("cluster.remote_rows_per_epoch", float64(last.RemoteRows))
		m.set("cluster.edge_cut_frac", traced.EdgeCut)
		m.set("cluster.allocs_per_round", ratio(float64(allocs), float64(iters)))
	} else {
		m.notApplicable("cluster.", "graph.")
	}

	rp, err := replayTrain(tr, st, last.Assignment, seed, m)
	if err != nil {
		return nil, err
	}
	// The rows add up on the cpu clock: the engine runs its trainers side by
	// side and the replay runs them one after another, so wall-clock sums of
	// the two schedules are not comparable, process CPU seconds are.
	m.set("core.explained_frac", ratio(rp.CPUSec*float64(nodes), run.CPUSec))

	if err := reportModels(st, last, seed, m); err != nil {
		return nil, err
	}

	if spec.Pipeline == core.PipelinePrefetch {
		r, err := overlapRatio(st, seed)
		if err != nil {
			return nil, err
		}
		m.set("core.overlap_ratio", r)
	} else {
		m.notApplicable("core.overlap_ratio")
	}

	doc.Timings["train_epoch_wall_s"] = summarize(bare.Wall)
	doc.Timings["train_epoch_wall_traced_s"] = summarize(wall)
	doc.Samples["train_epochs"] = len(eps)
	doc.Samples["train_replayed_iterations"] = rp.Iterations
	doc.OpsAttempted += iters * nodes
	executedEdges := math.Round(last.MTEPS * last.VirtualSec * 1e6)
	return tracedTrainChecks(spec, bare.Epochs, eps, traced.Fleet.Divergence(), rp.LastEpochEdges, executedEdges), nil
}

// reportModels fills the analytic side: the performance model's stages at
// the final assignment (which stage bounds the virtual iteration), DRM's own
// cost on that stage vector, and the pipeline simulator's epoch against the
// executed one.
func reportModels(st *trainState, last epochObs, seed uint64, m *metricSet) error {
	stages := st.PM.Stages(last.Assignment)
	m.set("perfmodel.stage_sample_ms", 1e3*math.Max(stages.SampCPU, stages.SampAccel))
	m.set("perfmodel.stage_load_ms", 1e3*stages.Load)
	m.set("perfmodel.stage_transfer_ms", 1e3*stages.Trans)
	m.set("perfmodel.stage_train_ms", 1e3*math.Max(stages.TrainCPU, stages.TrainAcc))
	m.set("perfmodel.stage_sync_ms", 1e3*stages.Sync)
	m.set("perfmodel.bottleneck_ms", 1e3*stages.Bottleneck())

	cores := st.PM.Plat.TotalCPUCores()
	adj := drm.New(cores)
	const adjustCalls = 2000
	t0 := time.Now()
	for i := 0; i < adjustCalls; i++ {
		adj.Adjust(i, stages, last.Assignment)
	}
	m.set("drm.adjust_ns", 1e9*time.Since(t0).Seconds()/adjustCalls)
	m.set("drm.adjust_allocs", allocsPer(200, func() { adj.Adjust(0, stages, last.Assignment) }))
	simCfg := pipesim.Config{Model: st.PM, Mode: pipesim.Mode{Hybrid: true, DRM: st.Spec.DRM, TFP: true},
		Seed: seed, NoiseStd: -1}
	if st.Spec.DRM {
		simCfg.Ctrl = drm.New(cores)
	}
	sim, err := pipesim.Run(simCfg)
	if err != nil {
		return err
	}
	m.set("pipesim.epoch_err_pct", pctErr(sim.EpochSec, last.VirtualSec))
	return nil
}

// tracedTrainChecks holds the traced epochs to the bare epochs of the same
// seed and, with DRM off — the shares never move, so the replay regenerates
// the executed mini-batches exactly — the replayed edge count to the
// executed one.
func tracedTrainChecks(spec trainSpec, bare, traced []epochObs, divergence, replayedEdges, executedEdges float64) []check {
	cs := []check{
		{"train.traced_equals_untraced", sameEpochs(bare, traced),
			fmt.Sprintf("%d epochs from one seed, with and without spans", len(traced))},
		{"train.replicas_in_sync", divergence == 0,
			fmt.Sprintf("max parameter divergence %g", divergence)},
	}
	if !spec.DRM {
		cs = append(cs, check{"train.replay_regenerates_epoch", replayedEdges == executedEdges,
			fmt.Sprintf("replayed %.0f edges, executed %.0f", replayedEdges, executedEdges)})
	}
	return cs
}

// overlapEpochs is how many epochs each schedule runs for the overlap ratio.
const overlapEpochs = 4

// overlapRatio runs a serial and a prefetch fleet from the same seed,
// interleaved epoch by epoch so both see the same machine, and returns
// serial ÷ prefetch median epoch wall.
func overlapRatio(st *trainState, seed uint64) (float64, error) {
	serialSpec := st.Spec
	serialSpec.Pipeline = core.PipelineSerial
	serial, err := setupTrain(serialSpec, st.Data, seed)
	if err != nil {
		return 0, err
	}
	prefetch, err := setupTrain(st.Spec, st.Data, seed)
	if err != nil {
		return 0, err
	}
	var sWall, pWall []float64
	for i := 0; i < overlapEpochs; i++ {
		for _, side := range []struct {
			fl   fleet
			wall *[]float64
		}{{serial.Fleet, &sWall}, {prefetch.Fleet, &pWall}} {
			t0 := time.Now()
			if _, err := side.fl.RunEpoch(); err != nil {
				return 0, err
			}
			*side.wall = append(*side.wall, time.Since(t0).Seconds())
		}
	}
	return ratio(medianOf(sWall), medianOf(pWall)), nil
}

// splitShares divides one global batch between the CPU trainer (index 0) and
// the accelerators in proportion to an assignment, the way the engine does.
func splitShares(targets []int32, a perfmodel.Assignment) [][]int32 {
	nAcc := len(a.AccelBatch)
	shares := make([][]int32, nAcc+1)
	total := a.TotalBatch()
	if total == 0 || nAcc == 0 {
		shares[0] = targets
		return shares
	}
	cursor := 0
	take := func(n int) []int32 {
		n = min(n, len(targets)-cursor)
		s := targets[cursor : cursor+n]
		cursor += n
		return s
	}
	shares[0] = take(len(targets) * a.CPUBatch / total)
	for i := 0; i < nAcc-1; i++ {
		shares[i+1] = take(len(targets) * a.AccelBatch[i] / total)
	}
	shares[nAcc] = targets[cursor:]
	return shares
}

// trainerScratch is what one replayed trainer keeps between iterations.
type trainerScratch struct {
	mb      sampler.MiniBatch
	stage   *tensor.Workspace // gathered features
	ws      *tensor.Workspace // train-step intermediates
	fwd     gnn.ForwardState
	grads   *gnn.Gradients
	kernels *tensor.Workspace // operands of the GEMM and aggregate replays
	backend *accel.Backend    // FPGA trainers only
}

// replayTotals is what the layer replay measured.
type replayTotals struct {
	Iterations     int
	CPUSec         float64 // process CPU seconds inside the replayed layer calls
	LastEpochEdges float64
}

// node0Shard returns the training vertices the first node of a multi-node
// fleet owns after drop-last equalisation, timing the partitioner.
func node0Shard(tr *tracer, st *trainState, m *metricSet) ([]int32, error) {
	if st.Spec.Nodes <= 1 {
		return st.Data.TrainIdx, nil
	}
	var part *graph.Partition
	var err error
	m.set("graph.partition_s", tr.timed(0, "graph.PartitionGreedyBFS", 0, func() {
		part, err = graph.PartitionGreedyBFS(st.Data.Graph, st.Spec.Nodes)
	}))
	if err != nil {
		return nil, err
	}
	shards := make([][]int32, st.Spec.Nodes)
	for _, v := range st.Data.TrainIdx {
		shards[part.Assign[v]] = append(shards[part.Assign[v]], v)
	}
	size := len(shards[0])
	for _, s := range shards {
		size = min(size, len(s))
	}
	return shards[0][:size], nil
}

// replayTrain regenerates one node's iterations from the seed — the same
// batcher, sampler and RNG streams the engine derives — and calls each layer
// under a span: Batcher.Next, then per trainer share SampleInto, GatherRows,
// Backend.Forward (FPGA shares) and TrainStepWS, whose GEMMs and aggregates
// are re-run at the step's shapes as child spans. The first epoch (the
// engine's warm-up) is replayed untimed; shares follow the final assignment
// of the traced run, which is exact when DRM is off.
func replayTrain(tr *tracer, st *trainState, assign perfmodel.Assignment, seed uint64, m *metricSet) (*replayTotals, error) {
	spec := st.Spec
	plat := spec.Plat
	trainIdx, err := node0Shard(tr, st, m)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	batcherRNG, initRNG := rng.Split(), rng.Split()
	model, err := gnn.NewModel(spec.Model, initRNG)
	if err != nil {
		return nil, err
	}
	smp, err := sampler.New(st.Data.Graph, trainFanouts, st.Data.Labels)
	if err != nil {
		return nil, err
	}
	batcher, err := sampler.NewBatcher(trainIdx, min(spec.Batch*len(plat.Accels), len(trainIdx)), batcherRNG)
	if err != nil {
		return nil, err
	}
	scratch := make([]trainerScratch, 1+len(plat.Accels))
	for i := range scratch {
		scratch[i] = trainerScratch{stage: tensor.NewWorkspace(), ws: tensor.NewWorkspace(),
			kernels: tensor.NewWorkspace(), grads: gnn.NewGradients(model.Params)}
		if i > 0 && plat.Accels[i-1].Kind == hw.FPGA {
			bk := accel.U250Backend(spec.Model.Dims[0])
			scratch[i].backend = &bk
		}
	}

	var sampleSec, gatherSec, accelSec, stepSec, matmulSec, aggSec float64
	var edges, inputRows, flops, gatherBytes, aggBytes float64
	var sampleAllocs, stepAllocs uint64
	var samples, steps int
	var fpga accel.ForwardStats
	tot := &replayTotals{}
	root := tr.begin(0, "layer-replay", 0)
	perEpoch := batcher.BatchesPerEpoch()
	for ep := 0; ep <= tracedEpochs; ep++ {
		timed := ep > 0
		for it := 0; it < perEpoch; it++ {
			iter := (ep-1)*perEpoch + it
			itSpan := 0
			if timed {
				itSpan = tr.begin(root, "iteration", iter)
			}
			var targets []int32
			tr.timedIf(timed, itSpan, "sampler.Batcher.Next", iter, func() { targets = batcher.Next() })
			for i, share := range splitShares(targets, assign) {
				if len(share) == 0 {
					continue
				}
				sc := &scratch[i]
				var stepErr error
				cpu0 := cpuSeconds()
				a0 := mallocs()
				dSample := tr.timedIf(timed, itSpan, "sampler.Sampler.SampleInto", iter, func() {
					stepErr = smp.SampleInto(&sc.mb, share, rng)
				})
				a1 := mallocs()
				if stepErr != nil {
					return nil, stepErr
				}
				mb := &sc.mb
				sc.stage.Reset()
				x := sc.stage.Get(len(mb.InputNodes()), spec.Model.Dims[0])
				dGather := tr.timedIf(timed, itSpan, "tensor.GatherRows", iter, func() {
					tensor.GatherRows(x, st.Data.Features, mb.InputNodes())
				})
				var dAccel float64
				if sc.backend != nil {
					var stats *accel.ForwardStats
					dAccel = tr.timedIf(timed, itSpan, "accel.Backend.Forward", iter, func() {
						_, stats, stepErr = sc.backend.Forward(model, mb, x)
					})
					if stepErr != nil {
						return nil, stepErr
					}
					if timed {
						fpga.Add(*stats)
					}
				}
				sc.ws.Reset()
				stepSpan := 0
				if timed {
					stepSpan = tr.begin(itSpan, "gnn.Model.TrainStepWS", iter)
				}
				a2 := mallocs()
				t0 := time.Now()
				_, _, stepErr = model.TrainStepWS(sc.ws, &sc.fwd, mb, x, sc.grads)
				dStep := time.Since(t0).Seconds()
				a3 := mallocs()
				tr.end(stepSpan)
				cpu1 := cpuSeconds()
				if stepErr != nil {
					return nil, stepErr
				}
				if ep == tracedEpochs {
					tot.LastEpochEdges += float64(mb.EdgesTraversed())
				}
				if !timed {
					continue
				}
				k := replayKernels(tr, stepSpan, iter, spec.Model, mb, sc.kernels)
				sampleSec += dSample
				gatherSec += dGather
				accelSec += dAccel
				stepSec += dStep
				matmulSec += k.MatMulSec
				aggSec += k.AggSec
				flops += k.FLOPs
				aggBytes += k.AggBytes
				edges += float64(mb.EdgesTraversed())
				inputRows += float64(len(mb.InputNodes()))
				gatherBytes += 2 * 4 * float64(len(mb.InputNodes())*spec.Model.Dims[0])
				sampleAllocs += a1 - a0
				stepAllocs += a3 - a2
				samples++
				steps++
				tot.CPUSec += cpu1 - cpu0
			}
			tr.end(itSpan)
			if timed {
				tot.Iterations++
			}
		}
	}
	tr.end(root)

	n := float64(tot.Iterations)
	perIterMS := func(sec float64) float64 { return ratio(1e3*sec, n) }
	m.set("sampler.sample_ms_per_iter", perIterMS(sampleSec))
	m.set("sampler.medges_per_s", ratio(edges, 1e6*sampleSec))
	m.set("sampler.edges_per_iter", ratio(edges, n))
	m.set("sampler.input_rows_per_iter", ratio(inputRows, n))
	m.set("sampler.allocs_per_sample", ratio(float64(sampleAllocs), float64(samples)))
	m.set("tensor.gather_ms_per_iter", perIterMS(gatherSec))
	m.set("tensor.gather_gbs", ratio(gatherBytes, 1e9*gatherSec))
	m.set("tensor.matmul_ms_per_iter", perIterMS(matmulSec))
	m.set("tensor.matmul_gflops", ratio(flops, 1e9*matmulSec))
	m.set("gnn.trainstep_ms_per_iter", perIterMS(stepSec))
	m.set("gnn.trainstep_allocs", ratio(float64(stepAllocs), float64(steps)))
	m.set("gnn.aggregate_ms_per_iter", perIterMS(aggSec))
	m.set("gnn.aggregate_gbs", ratio(aggBytes, 1e9*aggSec))
	m.set("accel.forward_ms_per_iter", perIterMS(accelSec))
	m.set("accel.host_ns_per_cycle", ratio(1e9*accelSec, float64(fpga.AggCycles+fpga.UpdateCycles)))
	m.set("accel.agg_cycles_per_iter", ratio(float64(fpga.AggCycles), n))
	m.set("accel.update_cycles_per_iter", ratio(float64(fpga.UpdateCycles), n))
	m.set("accel.traffic_mb_per_iter", ratio(float64(fpga.TrafficBytes)/(1<<20), n))
	m.set("core.prepare_share", ratio(sampleSec+gatherSec, sampleSec+gatherSec+accelSec+stepSec))
	return tot, nil
}

// timedIf is timed when on, and a bare call otherwise.
func (t *tracer) timedIf(on bool, parent int, name string, iter int, f func()) float64 {
	if !on {
		f()
		return 0
	}
	return t.timed(parent, name, iter, f)
}

// kernelTotals is what re-running one train step's inner kernels measured.
type kernelTotals struct {
	MatMulSec, AggSec float64
	FLOPs, AggBytes   float64
}

// replayKernels re-runs, at the shapes of one train step, the three GEMMs of
// every layer (forward MatMul, backward TMatMul and MatMulT) and the
// layer's Aggregate + AggregateBackward on the sampled block, as child spans
// of the step. Operands are all ones: the GEMM kernels skip zero entries of
// their left operand, so this is the dense case — an upper bound for the
// backward GEMMs, whose real left operand is ReLU-sparse. FLOPs are 2mkn per
// GEMM; bytes are computed from sizes — one
// feature row read per edge and per destination, one written per
// destination, in each direction.
func replayKernels(tr *tracer, parent, iter int, cfg gnn.Config, mb *sampler.MiniBatch, ws *tensor.Workspace) kernelTotals {
	var k kernelTotals
	ws.Reset()
	for l, blk := range mb.Blocks {
		fin, fout := cfg.Dims[l], cfg.Dims[l+1]
		in := fin
		if cfg.Kind == gnn.SAGE {
			in = 2 * fin
		}
		nd, ns := len(blk.Dst), len(blk.Src)
		dense, w := ones(ws, nd, in), ones(ws, in, fout)
		z, gradW, dDense := ws.Get(nd, fout), ws.Get(in, fout), ws.Get(nd, in)
		k.MatMulSec += tr.timed(parent, "tensor.MatMul", iter, func() { tensor.MatMul(z, dense, w) })
		z.Fill(1)
		k.MatMulSec += tr.timed(parent, "tensor.TMatMul", iter, func() { tensor.TMatMul(gradW, dense, z) })
		k.MatMulSec += tr.timed(parent, "tensor.MatMulT", iter, func() { tensor.MatMulT(dDense, z, w) })
		k.FLOPs += 3 * 2 * float64(nd) * float64(in) * float64(fout)

		nb := gnn.NewNeighborhood(cfg, blk)
		h, agg := ones(ws, ns, fin), ws.Get(nd, fin)
		k.AggSec += tr.timed(parent, "gnn.Neighborhood.Aggregate", iter, func() { nb.Aggregate(agg, h) })
		k.AggSec += tr.timed(parent, "gnn.Neighborhood.AggregateBackward", iter, func() { nb.AggregateBackward(h, agg) })
		k.AggBytes += 2 * 4 * float64(fin) * float64(blk.NumEdges()+2*nd)
	}
	return k
}

func ones(ws *tensor.Workspace, rows, cols int) *tensor.Matrix {
	m := ws.Get(rows, cols)
	m.Fill(1)
	return m
}

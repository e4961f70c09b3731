// Package repro's root benchmark suite regenerates every table and figure of
// the paper's evaluation (one Benchmark per artifact — see DESIGN.md's
// per-experiment index) and additionally benchmarks the numeric kernels and
// the end-to-end hybrid runtime on a scaled dataset.
//
// Run everything:  go test -bench=. -benchmem
// One artifact:    go test -bench=BenchmarkFig10
package repro

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// benchExperiment runs one named experiment per iteration and reports the
// headline numbers as custom metrics.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	b.ReportAllocs()
	var tbl *bench.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = bench.ByName(name, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = tbl
}

// BenchmarkTable4 regenerates the FPGA resource-utilization table.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFig8 regenerates the predicted-vs-actual epoch-time study.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates the 1–16 accelerator scalability study.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates the cross-platform comparison.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTable6 regenerates the state-of-the-art epoch-time comparison.
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkTable7 regenerates the normalized (sec×TFLOPS) comparison.
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkFig11 regenerates the optimization ablation.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkExtMultiNode runs the executed multi-node strong-scaling study:
// 1–4 sharded engines with real ring-all-reduce gradient exchange.
func BenchmarkExtMultiNode(b *testing.B) { benchExperiment(b, "ext-multinode") }

// BenchmarkExtHetero runs the heterogeneous-fleet ablation: hybrid
// CPU+GPU+FPGA against every homogeneous configuration of the same device
// budget, with DRM rebalancing the unequal devices.
func BenchmarkExtHetero(b *testing.B) { benchExperiment(b, "ext-hetero") }

// BenchmarkExtServeHetero runs the kind-aware serving ablation: a routed
// mixed CPU+GPU+FPGA serving pool against both homogeneous pools at an
// equal device budget.
func BenchmarkExtServeHetero(b *testing.B) { benchExperiment(b, "ext-serve-hetero") }

// BenchmarkExtServeSLO runs the SLO-class workload comparison: a recorded
// three-cohort trace (Poisson/Gamma/Weibull arrivals, diurnal envelope,
// per-class SLOs) replayed under every batch-formation policy, reporting the
// per-formation fairness and the interactive-tail delta.
func BenchmarkExtServeSLO(b *testing.B) {
	b.ReportAllocs()
	var report *bench.ServeSLOReport
	var err error
	for i := 0; i < b.N; i++ {
		report, err = bench.ServeSLO(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(report.InteractiveP99DeltaMs, "interactive-p99-delta-ms")
	b.ReportMetric(report.Jain["fcfs"], "jain-fcfs")
	b.ReportMetric(report.Jain["priority"], "jain-priority")
}

// BenchmarkExtServeFault replays one recorded trace fault-free and with a
// scripted mid-run worker fail-stop, reporting what the self-healing runtime
// shed and retried, the fault-window tail, and the recovery time.
func BenchmarkExtServeFault(b *testing.B) {
	b.ReportAllocs()
	var report *bench.ServeFaultReport
	var err error
	for i := 0; i < b.N; i++ {
		report, err = bench.ServeFault(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(report.Faulted.Shed), "faulted-shed")
	b.ReportMetric(float64(report.Faulted.Retries), "faulted-retries")
	b.ReportMetric(report.Faulted.FaultWindowP99Ms, "fault-window-p99-ms")
	b.ReportMetric(report.Faulted.RecoveryMs, "recovery-ms")
}

// --- Kernel-level benchmarks ------------------------------------------------

func benchDataset(b *testing.B) *datagen.Dataset {
	b.Helper()
	spec := datagen.Spec{Name: "bench", NumVertices: 20000, NumEdges: 200000,
		FeatDims: []int{64, 64, 16}, TrainNodes: 8000}
	ds, err := datagen.Materialize(spec, 0.4, tensor.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkNeighborSampling measures the mini-batch sampler (fanouts 25,10).
func BenchmarkNeighborSampling(b *testing.B) {
	ds := benchDataset(b)
	s, err := sampler.New(ds.Graph, []int{25, 10}, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	targets := ds.TrainIdx[:1024]
	b.ReportAllocs()
	b.ResetTimer()
	var edges int64
	for i := 0; i < b.N; i++ {
		mb, err := s.Sample(targets, rng)
		if err != nil {
			b.Fatal(err)
		}
		edges += mb.EdgesTraversed()
	}
	b.ReportMetric(float64(edges)/float64(b.N), "edges/batch")
}

// BenchmarkTrainStep measures one full forward+backward per model kind.
func BenchmarkTrainStep(b *testing.B) {
	for _, kind := range []gnn.Kind{gnn.GCN, gnn.SAGE} {
		b.Run(kind.String(), func(b *testing.B) {
			ds := benchDataset(b)
			s, _ := sampler.New(ds.Graph, []int{10, 10}, ds.Labels)
			rng := tensor.NewRNG(3)
			mb, err := s.Sample(ds.TrainIdx[:256], rng)
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(len(mb.InputNodes()), 64)
			tensor.GatherRows(x, ds.Features, mb.InputNodes())
			m, _ := gnn.NewModel(gnn.Config{Kind: kind, Dims: []int{64, 64, 16}}, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := m.TrainStep(mb, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelTraffic contrasts the scatter-gather kernel on sorted vs
// unsorted edges — the §IV-C O(|E|)→O(|V0|) traffic claim as a benchmark.
func BenchmarkKernelTraffic(b *testing.B) {
	rng := tensor.NewRNG(4)
	const nSrc, nDst, nEdges, f = 4096, 1024, 65536, 64
	features := tensor.New(nSrc, f)
	tensor.NormalInit(features, 1, rng)
	edges := make([]graph.Edge, nEdges)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(nSrc)), Dst: int32(rng.Intn(nDst))}
	}
	cfg := accel.ScatterGatherConfig{NumPEs: 8, FeatWidth: f, BytesPerCycle: 64, FetchLatency: 32}
	for _, sorted := range []bool{false, true} {
		name := "unsorted"
		in := edges
		if sorted {
			name = "sorted"
			in = graph.SortEdgesBySource(edges)
		}
		b.Run(name, func(b *testing.B) {
			out := tensor.New(nDst, f)
			b.ReportAllocs()
			var fetches, cycles int64
			for i := 0; i < b.N; i++ {
				out.Zero()
				res, err := accel.RunScatterGather(cfg, in, nil, features, out)
				if err != nil {
					b.Fatal(err)
				}
				fetches += int64(res.FeatureFetches)
				cycles += res.Cycles
			}
			b.ReportMetric(float64(fetches)/float64(b.N), "fetches/op")
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
		})
	}
}

// BenchmarkHybridEpoch measures the full hybrid runtime (real numerics +
// virtual clock) on a scaled products-shaped dataset.
func BenchmarkHybridEpoch(b *testing.B) {
	ds := benchDataset(b)
	plat := hw.CPUFPGAPlatform()
	engine, err := core.NewEngine(core.Config{
		Plat: plat, Data: ds,
		Model:     gnn.Config{Kind: gnn.SAGE, Dims: []int{64, 64, 16}},
		LR:        0.1,
		BatchSize: 256,
		Fanouts:   []int{10, 5},
		Hybrid:    true, TFP: true, DRM: true,
		Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var virtual float64
	for i := 0; i < b.N; i++ {
		st, err := engine.RunEpoch()
		if err != nil {
			b.Fatal(err)
		}
		virtual += st.VirtualSec
	}
	b.ReportMetric(virtual/float64(b.N), "virtual-sec/epoch")
}

// BenchmarkSaintSampling measures GraphSAINT random-walk subgraph sampling.
func BenchmarkSaintSampling(b *testing.B) {
	ds := benchDataset(b)
	s, err := sampler.NewSaint(ds.Graph, 512, 3, 2, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	var nodes int
	for i := 0; i < b.N; i++ {
		mb, err := s.Sample(rng)
		if err != nil {
			b.Fatal(err)
		}
		nodes += len(mb.Targets)
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "subgraph-nodes")
}

// BenchmarkBackendForward measures the full hardware-dataflow forward pass
// (scatter-gather + systolic simulators) against the reference path.
func BenchmarkBackendForward(b *testing.B) {
	ds := benchDataset(b)
	s, _ := sampler.New(ds.Graph, []int{10, 10}, ds.Labels)
	rng := tensor.NewRNG(8)
	mb, err := s.Sample(ds.TrainIdx[:256], rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(len(mb.InputNodes()), 64)
	tensor.GatherRows(x, ds.Features, mb.InputNodes())
	m, _ := gnn.NewModel(gnn.Config{Kind: gnn.GCN, Dims: []int{64, 64, 16}}, rng)
	bk := accel.U250Backend(64)
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		_, stats, err := bk.Forward(m, mb, x)
		if err != nil {
			b.Fatal(err)
		}
		cycles += stats.AggCycles + stats.UpdateCycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "device-cycles")
}

// BenchmarkQuantizeRoundTrip measures int8 feature quantization (the §VIII
// PCIe extension's per-batch cost).
func BenchmarkQuantizeRoundTrip(b *testing.B) {
	rng := tensor.NewRNG(9)
	m := tensor.New(4096, 128)
	tensor.NormalInit(m, 1, rng)
	b.ReportAllocs()
	b.SetBytes(int64(len(m.Data)) * 4)
	for i := 0; i < b.N; i++ {
		tensor.QuantizeRoundTrip(m)
	}
}

// BenchmarkMatMulKernel measures the parallel GEMM at a GNN-typical shape
// (|V1|×f0 · f0×f1).
func BenchmarkMatMulKernel(b *testing.B) {
	rng := tensor.NewRNG(6)
	a := tensor.New(2048, 128)
	tensor.NormalInit(a, 1, rng)
	w := tensor.New(128, 256)
	tensor.NormalInit(w, 1, rng)
	out := tensor.New(2048, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(out, a, w)
	}
	flops := 2.0 * 2048 * 128 * 256
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

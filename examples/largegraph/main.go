// Large-graph scenario: the paper's headline use case. ogbn-papers100M and
// MAG240M do not fit any accelerator's device memory (57 GB and ~368 GB of
// float32 features), so HyScale-GNN keeps the graph in CPU DRAM and streams
// mini-batches to the accelerators with two-stage prefetching.
//
// This example prints the full-scale *timing* path (performance model +
// pipeline simulator — nothing is materialised) for all three paper
// datasets on both heterogeneous platforms against the multi-GPU baseline,
// as Fig. 10 of cmd/experiments, and then trains a 1/20,000-scale
// papers100M-shaped instance for real to show the numeric path converging,
// first on one node and then sharded across four.
//
//	go run ./examples/largegraph
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

func main() {
	fmt.Println("--- Full-scale epoch-time projection (virtual, nothing materialised) ---")
	fig10, err := bench.ByName("fig10", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig10)

	fmt.Println("\n--- Real training on a 1/20,000-scale papers100M-shaped instance ---")
	scaled := datagen.OGBNPapers100M.Scaled(20000)
	ds, err := datagen.Materialize(scaled, 0.25, tensor.NewRNG(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("materialised %s: %d vertices, %d edges, f=%v\n",
		scaled.Name, scaled.NumVertices, scaled.NumEdges, scaled.FeatDims)
	coreCfg := core.Config{
		Plat:      hw.CPUFPGAPlatform(),
		Data:      ds,
		Model:     gnn.Config{Kind: gnn.SAGE, Dims: scaled.FeatDims},
		LR:        0.2,
		BatchSize: 256,
		Fanouts:   []int{25, 10},
		Hybrid:    true, TFP: true, DRM: true,
		Seed: 7,
	}
	engine, err := core.NewEngine(coreCfg)
	if err != nil {
		log.Fatal(err)
	}
	var singlePerIter float64
	for ep := 0; ep < 5; ep++ {
		st, err := engine.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: loss %.4f acc %.3f virtual %.4fs (%.0f MTEPS)\n",
			st.Epoch, st.Loss, st.Accuracy, st.VirtualSec, st.MTEPS)
		singlePerIter = st.VirtualSec / float64(st.Iterations)
	}

	// The §VIII extension, executed: the same instance sharded across 4
	// nodes over 100 GbE — real gradients through the ring all-reduce,
	// remote-feature and all-reduce time on every node's virtual clock —
	// validated against the analytic cluster model's prediction.
	fmt.Println("\n--- Executed multi-node training (4 shards over 100GbE) ---")
	m, err := cluster.NewMultiNode(cluster.MultiNodeConfig{
		Nodes: 4, Net: hw.Ethernet100G(), Node: coreCfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned: edge cut %.2f, %d train vertices/node\n",
		m.EdgeCut(), m.TrainPerNode())
	var last *cluster.MultiNodeStats
	for ep := 0; ep < 5; ep++ {
		st, err := m.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		last = st
		fmt.Printf("epoch %d: loss %.4f acc %.3f virtual %.4fs (net fetch %.4fs, all-reduce %.4fs)\n",
			st.Epoch, st.Loss, st.Accuracy, st.VirtualSec, st.NetFetchSec, st.NetSyncSec)
	}
	if d := m.ReplicasInSync(); d != 0 {
		log.Fatalf("fleet divergence %g", d)
	}
	fmt.Println("fleet consistency: all 4 shards hold identical weights")
	pred, err := cluster.EpochTime(m.Analytic())
	if err != nil {
		log.Fatal(err)
	}
	execSlow := (last.VirtualSec / float64(last.Iterations)) / singlePerIter
	fmt.Printf("erosion per iteration: executed %.3fx, analytic prediction %.3fx\n",
		execSlow, cluster.PredictedSlowdown(pred, singlePerIter))
}

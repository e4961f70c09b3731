// Heterogeneous fleet demo: the paper's title configuration — CPU + GPU +
// FPGA trainers on one node — executed for real. A mixed fleet trains a
// scaled ogbn-products instance with the FPGA share charged the §IV-C
// dataflow's (scatter-gather + systolic) cycle account, then the analytic
// fleet ablation shows why the hybrid mix beats every homogeneous fleet of
// the same device budget.
//
//	go run ./examples/heterofleet
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

func main() {
	// --- Part 1: an executed CPU + GPU + FPGA run.
	plat, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		log.Fatal(err)
	}
	spec := datagen.OGBNProducts.Scaled(2000)
	ds, err := datagen.Materialize(spec, 0.2, tensor.NewRNG(1))
	if err != nil {
		log.Fatal(err)
	}
	engine, err := core.NewEngine(core.Config{
		Plat: plat, Data: ds,
		Model:     gnn.Config{Kind: gnn.SAGE, Dims: spec.FeatDims},
		LR:        0.3,
		BatchSize: 256,
		Fanouts:   []int{25, 10},
		Hybrid:    true, TFP: true, DRM: true,
		Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Executed mixed fleet on %s (%d vertices)\n\n", plat.Name, spec.NumVertices)
	fmt.Printf("%-6s %-9s %-9s %-13s %-22s\n", "epoch", "loss", "accuracy", "virtual-sec", "fpga agg/upd cycles")
	for ep := 0; ep < 4; ep++ {
		st, err := engine.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %-9.4f %-9.3f %-13.4f %d/%d\n",
			st.Epoch, st.Loss, st.Accuracy, st.VirtualSec,
			st.FPGA.AggCycles, st.FPGA.UpdateCycles)
	}
	a := engine.Assignment()
	fmt.Printf("\nDRM-tuned shares: CPU %d, GPU %d, FPGA %d (the mapping follows device throughput)\n",
		a.CPUBatch, a.AccelBatch[0], a.AccelBatch[1])
	if d := engine.ReplicasInSync(); d != 0 {
		log.Fatalf("fleet diverged by %g — synchronous SGD violated", d)
	}
	fmt.Println("All three trainers hold identical weights: the mixed fleet is synchronous SGD.")

	// --- Part 2: the fleet ablation (analytic steady state, full-size spec).
	fmt.Println()
	tbl, err := bench.ExtHetero(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tbl)
}

// Package accel models the paper's FPGA hardware kernels (§IV-C, Fig. 6):
// a scatter-gather feature-aggregation engine with a Feature Duplicator that
// exploits source-sorted edges to fetch each vertex feature exactly once,
// a systolic-array MLP for the update stage, and an FPGA resource model
// reproducing Table IV. The kernels are a timing claim, and the package
// treats them as one: Backend.Account derives the dataflow's memory traffic
// and cycle counts from a mini-batch's structure alone, which is what the
// training clock, the FPGA serving workers and the performance model charge,
// while every FPGA worker computes its numbers through the reference gnn
// forward. The cycle-approximate kernel simulators (RunScatterGather,
// RunSystolic) also compute their functional results, so the tests can show
// the sorted-edge O(|E|)→O(|V0|) traffic reduction on real data.
package accel

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// ScatterGatherConfig describes the aggregation engine.
type ScatterGatherConfig struct {
	NumPEs        int // n: scatter/gather PE pairs, edges processed per cycle
	FeatWidth     int // f: elements per feature vector
	BytesPerCycle int // external-memory bytes deliverable per cycle
	FetchLatency  int // cycles from issuing a feature fetch to availability
}

// Validate checks the configuration.
func (c ScatterGatherConfig) Validate() error {
	if c.NumPEs <= 0 || c.FeatWidth <= 0 || c.BytesPerCycle <= 0 || c.FetchLatency < 0 {
		return fmt.Errorf("accel: bad scatter-gather config %+v", c)
	}
	return nil
}

// ScatterGatherResult reports the simulated execution.
type ScatterGatherResult struct {
	FeatureFetches int   // features read from external memory
	TrafficBytes   int64 // external memory traffic for input features
	Cycles         int64 // approximate execution cycles
	EdgesProcessed int
	ReuseFactor    float64 // edges per fetch — the Dout(v) reuse of §IV-C
}

// chargeRun accounts one source run of the stream — run consecutive edges
// sharing a source — into res: the Feature Duplicator fetches the feature row
// once (memory time of one row; the first fetch also pays the latency, later
// ones overlap it), then the run's edges retire NumPEs per cycle. It is the
// engine's whole cycle/traffic model: RunScatterGather feeds it the runs of
// the edge list it executes, Backend.Account the out-degrees of a block's
// sources, which are the runs of the source-sorted stream.
func (cfg ScatterGatherConfig) chargeRun(res *ScatterGatherResult, run int) {
	featBytes := int64(cfg.FeatWidth) * 4
	res.FeatureFetches++
	res.TrafficBytes += featBytes
	if res.FeatureFetches == 1 {
		res.Cycles += int64(cfg.FetchLatency)
	}
	res.Cycles += (featBytes+int64(cfg.BytesPerCycle)-1)/int64(cfg.BytesPerCycle) +
		int64((run+cfg.NumPEs-1)/cfg.NumPEs)
	res.EdgesProcessed += run
}

// RunScatterGather simulates the aggregation kernel on an edge list over
// local indices: out[dst] += w[i]·features[src]. Edges should be sorted by
// source (graph.SortEdgesBySource) to realise feature reuse; unsorted input
// is processed correctly but fetches once per source *run*, exactly like the
// hardware, demonstrating the O(|E|)→O(|V0|) traffic reduction.
//
// The Feature Duplicator broadcasts each fetched feature to all S-PEs;
// consecutive edges sharing the source consume the resident feature. Cycle
// accounting: every fetch stalls the pipeline for the memory time of one
// feature row (plus latency, overlapped after the first), and every group of
// up to NumPEs resident-feature edges retires per cycle.
func RunScatterGather(cfg ScatterGatherConfig, edges []graph.Edge, weights []float32,
	features *tensor.Matrix, out *tensor.Matrix) (ScatterGatherResult, error) {
	if err := cfg.Validate(); err != nil {
		return ScatterGatherResult{}, err
	}
	if features.Cols != cfg.FeatWidth || out.Cols != cfg.FeatWidth {
		return ScatterGatherResult{}, fmt.Errorf("accel: feature width %d, config %d", features.Cols, cfg.FeatWidth)
	}
	if weights != nil && len(weights) != len(edges) {
		return ScatterGatherResult{}, fmt.Errorf("accel: %d weights for %d edges", len(weights), len(edges))
	}
	var res ScatterGatherResult
	run := 0 // consecutive edges using the resident feature
	for i, e := range edges {
		if i > 0 && e.Src != edges[i-1].Src {
			cfg.chargeRun(&res, run)
			run = 0
		}
		run++
		// Functional datapath: S-PE scales, routing network delivers to the
		// destination's G-PE accumulator. AxpyRow keeps multiply and add
		// unfused, so every SIMD tier matches the scalar loop bit for bit.
		w := float32(1)
		if weights != nil {
			w = weights[i]
		}
		tensor.AxpyRow(out.Row(int(e.Dst)), features.Row(int(e.Src)), w)
	}
	if run > 0 {
		cfg.chargeRun(&res, run)
	}
	if res.FeatureFetches > 0 {
		res.ReuseFactor = float64(res.EdgesProcessed) / float64(res.FeatureFetches)
	}
	return res, nil
}

// Package accel models the paper's FPGA hardware kernels (§IV-C, Fig. 6):
// a scatter-gather feature-aggregation engine with a Feature Duplicator that
// exploits source-sorted edges to fetch each vertex feature exactly once,
// a systolic-array MLP for the update stage, and an FPGA resource model
// reproducing Table IV. The kernels are a timing claim, and the package
// states it once, in this file: a fetch costs ceil(4·f / BytesPerCycle)
// cycles, a source run retires NumPEs edges per cycle, an update costs
// ceil(MACs/m) plus the array's fill. Backend.Account charges that law over
// a mini-batch's structure — what the training clock and the FPGA serving
// workers charge — and EstimateForwardSec, the serving performance model's
// price, over expected layer sizes. Every FPGA worker computes its numbers
// through the reference gnn forward; the tests show the sorted-edge
// O(|E|)→O(|V0|) traffic reduction by charging a block's unsorted stream
// beside Account.
package accel

import "fmt"

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

// sgAccount is one layer's scatter-gather charge.
type sgAccount struct {
	fetches int   // feature rows read from external memory
	traffic int64 // bytes those reads move
	cycles  int64
}

// fetchCycles is the memory time of one feature-row fetch: ceil(4·f /
// BytesPerCycle) cycles for a row of FeatWidth float32s.
func (cfg ScatterGatherConfig) fetchCycles() int64 {
	return (int64(cfg.FeatWidth)*4 + int64(cfg.BytesPerCycle) - 1) / int64(cfg.BytesPerCycle)
}

// chargeRun accounts one source run of the stream — run consecutive edges
// sharing a source — into acc: the Feature Duplicator fetches the feature row
// once (memory time of one row; the first fetch also pays the latency, later
// ones overlap it), then the run's edges retire NumPEs per cycle. Account
// feeds it the out-degrees of a block's sources, which are the runs of the
// source-sorted stream.
func (cfg ScatterGatherConfig) chargeRun(acc *sgAccount, run int) {
	acc.fetches++
	acc.traffic += int64(cfg.FeatWidth) * 4
	if acc.fetches == 1 {
		acc.cycles += int64(cfg.FetchLatency)
	}
	acc.cycles += cfg.fetchCycles() + int64((run+cfg.NumPEs-1)/cfg.NumPEs)
}

// SystolicConfig describes the update-stage MLP kernel: a systolic array of
// m multiply-accumulate units (paper Table IV uses m = 2048) running at the
// device clock.
type SystolicConfig struct {
	NumMACs  int     // m
	FreqGHz  float64 // operating frequency (0.3 GHz on the U250)
	FillCost int     // pipeline fill/drain cycles per invocation
}

// Validate checks the configuration.
func (c SystolicConfig) Validate() error {
	if c.NumMACs <= 0 || c.FreqGHz <= 0 || c.FillCost < 0 {
		return fmt.Errorf("accel: bad systolic config %+v", c)
	}
	return nil
}

// cycles is the array's cost of one invocation of macs multiply-accumulates:
// the paper's Eq. 12 throughput MACs/m (rounded up) plus the fill cost, the
// pipeline flush §VI-C names as a model-error source.
func (c SystolicConfig) cycles(macs int64) int64 {
	m := int64(c.NumMACs)
	return (macs+m-1)/m + int64(c.FillCost)
}

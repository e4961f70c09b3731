package accel

import (
	"fmt"

	"repro/internal/gnn"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// Backend is the paper's hardware dataflow (Fig. 6) on one device, as an
// account: per layer, the scatter-gather engine aggregates over source-sorted
// edges (Feature Duplicator reuse), the systolic array applies the dense
// update, and the intermediate result is forwarded on-chip to the next layer
// — only the final output leaves the device. Account returns that dataflow's
// cycle/traffic account from a mini-batch's structure alone, which is what
// the training and serving clocks charge an FPGA. The numbers an FPGA worker
// computes are the reference gnn forward's; Forward pairs the two for callers
// that want both from one call.
type Backend struct {
	SG       ScatterGatherConfig
	Systolic SystolicConfig

	// Per-call scratch, Forward's arena and the returned stats are owned by
	// the Backend and reused, so a warm Account or Forward does not allocate.
	// A Backend is therefore not safe for concurrent calls — each trainer and
	// serving worker owns its own, as they already do for replicas and clocks.
	sc    backendScratch
	ws    *tensor.Workspace
	stats ForwardStats
}

type backendScratch struct {
	next []int32 // per block source: its out-degree
}

// degrees returns the out-degree of every source of b within the block: the
// lengths of the source runs of its source-sorted edge stream.
func (sc *backendScratch) degrees(b *sampler.Block) []int32 {
	if cap(sc.next) < len(b.Src) {
		sc.next = make([]int32, len(b.Src))
	}
	deg := sc.next[:len(b.Src)]
	for i := range deg {
		deg[i] = 0
	}
	for _, s := range b.Col {
		deg[s]++
	}
	return deg
}

// U250Backend configures the backend as the paper's published design point:
// 8 scatter-gather PE pairs, 2048 MACs at 300 MHz, 64 B/cycle DDR.
func U250Backend(featWidth int) Backend {
	return Backend{
		SG:       ScatterGatherConfig{NumPEs: 8, FeatWidth: featWidth, BytesPerCycle: 64, FetchLatency: 32},
		Systolic: SystolicConfig{NumMACs: 2048, FreqGHz: 0.3, FillCost: 256},
	}
}

// ForwardStats aggregates the hardware accounting of one forward pass.
type ForwardStats struct {
	AggCycles      int64
	UpdateCycles   int64
	FeatureFetches int
	TrafficBytes   int64 // external reads of input features
	OutputBytes    int64 // final result written back (the only writeback)
	Sec            float64
}

// Add accumulates another pass's accounting (aggregation across trainers
// and iterations).
func (s *ForwardStats) Add(o ForwardStats) {
	s.AggCycles += o.AggCycles
	s.UpdateCycles += o.UpdateCycles
	s.FeatureFetches += o.FeatureFetches
	s.TrafficBytes += o.TrafficBytes
	s.OutputBytes += o.OutputBytes
	s.Sec += o.Sec
}

// Account returns the dataflow's hardware accounting for a mini-batch without
// executing anything: every field is a function of the blocks' structure and
// the layer widths. Per layer, each distinct source is one run of the
// source-sorted stream, as long as the source's out-degree (§IV-C: one fetch
// per distinct vertex), and the systolic array is charged for the update's
// shape. The result is owned by the Backend and valid until its next Account
// or Forward.
func (bk *Backend) Account(cfg gnn.Config, mb *sampler.MiniBatch) (*ForwardStats, error) {
	L := cfg.Layers()
	if len(mb.Blocks) != L {
		return nil, fmt.Errorf("accel: %d blocks for %d layers", len(mb.Blocks), L)
	}
	if err := bk.Systolic.validate(); err != nil {
		return nil, err
	}
	stats := &bk.stats
	*stats = ForwardStats{}
	for l, b := range mb.Blocks {
		sg := bk.SG
		sg.FeatWidth = cfg.Dims[l]
		if err := sg.validate(); err != nil {
			return nil, err
		}
		var acc sgAccount
		for _, deg := range bk.sc.degrees(b) {
			if deg > 0 {
				sg.chargeRun(&acc, int(deg))
			}
		}
		stats.AggCycles += acc.cycles
		stats.FeatureFetches += acc.fetches
		// Only layer 0 reads from external memory; deeper layers consume
		// on-chip intermediates (the Fig. 6 datapath).
		if l == 0 {
			stats.TrafficBytes += acc.traffic
		}
		fin := cfg.Dims[l]
		if cfg.Kind == gnn.SAGE {
			fin *= 2 // [self | aggregate]
		}
		stats.UpdateCycles += bk.Systolic.cycles(int64(len(b.Dst)) * int64(fin) * int64(cfg.Dims[l+1]))
	}
	stats.OutputBytes = int64(len(mb.Blocks[L-1].Dst)) * int64(cfg.Dims[L]) * 4
	// Pipelined kernels (⊕ = max per layer is already folded into the cycle
	// sums approximately; report wall time as the max of the two engines).
	stats.Sec = float64(max(stats.AggCycles, stats.UpdateCycles)) / (bk.Systolic.FreqGHz * 1e9)
	return stats, nil
}

// Forward is Account plus the model's reference inference over the same
// mini-batch (m.InferMiniBatchWS on the Backend's arena). x holds gathered
// input features (|V0| × f0). Returns the logits and the hardware statistics,
// both owned by the Backend and valid until its next call.
func (bk *Backend) Forward(m *gnn.Model, mb *sampler.MiniBatch, x *tensor.Matrix) (*tensor.Matrix, *ForwardStats, error) {
	stats, err := bk.Account(m.Cfg, mb)
	if err != nil {
		return nil, nil, err
	}
	if bk.ws == nil {
		bk.ws = tensor.NewWorkspace()
	}
	bk.ws.Reset()
	logits, err := m.InferMiniBatchWS(bk.ws, mb, x)
	if err != nil {
		return nil, nil, err
	}
	return logits, stats, nil
}

package accel

import (
	"fmt"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// Backend is the paper's hardware dataflow (Fig. 6) on one device: per layer,
// the scatter-gather engine aggregates over source-sorted edges (Feature
// Duplicator reuse), the systolic array applies the dense update, and the
// intermediate result is forwarded on-chip to the next layer — only the final
// output leaves the device. Account returns the dataflow's cycle/traffic
// account from a mini-batch's structure alone — what the timing models and
// the training clock need; Forward also executes the kernels, functionally
// exact (same numbers as the reference gnn implementation, up to float
// reassociation), for callers that use the logits.
type Backend struct {
	SG       ScatterGatherConfig
	Systolic SystolicConfig

	// Per-call scratch, the kernels' intermediates and the returned stats
	// are owned by the Backend and reused, so a warm Account or Forward does
	// not allocate. A Backend is therefore not safe for concurrent calls —
	// each trainer and serving worker owns its own, as they already do for
	// replicas and clocks.
	sc    backendScratch
	ws    *tensor.Workspace
	stats ForwardStats
}

type backendScratch struct {
	next  []int32 // per block source: out-degree, then the sort's write cursor
	edges []graph.Edge
	w     []float32
	edgeW []float32
	selfW []float32
}

func f32Buf(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
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

// Account returns the hardware accounting Forward reports for a mini-batch
// without executing anything: every field is a function of the blocks'
// structure and the layer widths. Per layer, each distinct source is one run
// of the source-sorted stream, as long as the source's out-degree (§IV-C: one
// fetch per distinct vertex), and the systolic array is charged for the
// update's shape. The result is owned by the Backend and valid until its
// next Account or Forward.
func (bk *Backend) Account(cfg gnn.Config, mb *sampler.MiniBatch) (*ForwardStats, error) {
	L := cfg.Layers()
	if len(mb.Blocks) != L {
		return nil, fmt.Errorf("accel: %d blocks for %d layers", len(mb.Blocks), L)
	}
	if err := bk.Systolic.Validate(); err != nil {
		return nil, err
	}
	stats := &bk.stats
	*stats = ForwardStats{}
	for l, b := range mb.Blocks {
		sg := bk.SG
		sg.FeatWidth = cfg.Dims[l]
		if err := sg.Validate(); err != nil {
			return nil, err
		}
		var res ScatterGatherResult
		for _, deg := range bk.sc.degrees(b) {
			if deg > 0 {
				sg.chargeRun(&res, int(deg))
			}
		}
		stats.AggCycles += res.Cycles
		stats.FeatureFetches += res.FeatureFetches
		// Only layer 0 reads from external memory; deeper layers consume
		// on-chip intermediates (the Fig. 6 datapath).
		if l == 0 {
			stats.TrafficBytes += res.TrafficBytes
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

// Forward runs the model's forward pass on a mini-batch through the
// simulated hardware kernels. x holds gathered input features (|V0| × f0).
// Aggregation weights are taken from the model (same coefficients as the
// reference path). Returns the logits and the hardware statistics (Account's),
// both owned by the Backend and valid until its next call.
func (bk *Backend) Forward(m *gnn.Model, mb *sampler.MiniBatch, x *tensor.Matrix) (*tensor.Matrix, *ForwardStats, error) {
	stats, err := bk.Account(m.Cfg, mb)
	if err != nil {
		return nil, nil, err
	}
	if x.Cols != m.Cfg.Dims[0] {
		return nil, nil, fmt.Errorf("accel: features %d-dim, model expects %d", x.Cols, m.Cfg.Dims[0])
	}
	if bk.ws == nil {
		bk.ws = tensor.NewWorkspace()
	}
	bk.ws.Reset()
	h := x
	for l, b := range mb.Blocks {
		fin := m.Cfg.Dims[l]
		nd := len(b.Dst)
		// The update input: the aggregate, with GraphSAGE's self rows
		// concatenated on its left.
		off := 0
		if m.Cfg.Kind == gnn.SAGE {
			off = fin
		}
		dense := bk.ws.GetZero(nd, off+fin)
		if off > 0 {
			for d := 0; d < nd; d++ {
				copy(dense.Row(d), h.Row(d))
			}
		}

		// Aggregation on the scatter-gather engine: edges sorted by source
		// so each feature row is fetched once (§IV-C). Self loops are extra
		// "edges" from the dst-prefix rows (the duplicator holds them
		// on-chip), accumulated after the stream.
		edges, w, selfW := bk.sc.sortedWeightedEdges(m.Cfg, b)
		sg := bk.SG
		sg.FeatWidth = fin
		scatterGather(sg, edges, w, h, dense.Data, dense.Cols, off)
		for d := 0; d < nd; d++ {
			if sw := selfW[d]; sw != 0 {
				tensor.AxpyRow(dense.Row(d)[off:], h.Row(d), sw)
			}
		}

		// Dense update on the systolic array.
		z := bk.ws.Get(nd, m.Cfg.Dims[l+1])
		if _, err := RunSystolic(bk.Systolic, z, dense, m.Params.Weights[l], m.Params.Biases[l]); err != nil {
			return nil, nil, err
		}
		if l < len(mb.Blocks)-1 {
			tensor.ReLUInto(z)
		}
		h = z
	}
	return h, stats, nil
}

// sortedWeightedEdges resolves the block's aggregation coefficients into the
// scratch buffers and returns the source-sorted edge list with its aligned
// per-edge weights plus the per-destination self weights. The sort is a
// stable counting sort keyed by source: destinations are scanned in CSC
// order and scattered through the prefix-summed out-degrees, which yields
// (src, dst) order with duplicate pairs in the block's CSC order — the
// reference path's pairing — in O(|E|).
func (sc *backendScratch) sortedWeightedEdges(cfg gnn.Config, b *sampler.Block) ([]graph.Edge, []float32, []float32) {
	ne := b.NumEdges()
	nd := len(b.Dst)
	sc.edgeW = f32Buf(sc.edgeW, ne)
	sc.selfW = f32Buf(sc.selfW, nd)
	edgeW, selfW := gnn.EdgeWeightsInto(cfg, b, sc.edgeW, sc.selfW)
	if cap(sc.edges) < ne {
		sc.edges = make([]graph.Edge, ne)
	}
	sc.edges = sc.edges[:ne]
	sc.w = f32Buf(sc.w, ne)
	next := sc.degrees(b)
	pos := int32(0)
	for s, deg := range next {
		next[s] = pos
		pos += deg
	}
	for d := 0; d < nd; d++ {
		for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
			s := b.Col[e]
			sc.edges[next[s]] = graph.Edge{Src: s, Dst: int32(d)}
			sc.w[next[s]] = edgeW[e]
			next[s]++
		}
	}
	return sc.edges, sc.w, selfW
}

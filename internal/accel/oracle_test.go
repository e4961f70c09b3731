package accel

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/gnn"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// forwardOracle is Backend.Forward as it stood before the split into Account
// (structure-only stats) and the arena-backed numeric kernels, kept verbatim
// as the reference both halves are pinned against (only its reflection-based
// stable sort became slices.SortStableFunc — a stable order is unique — and
// its per-edge multiply-add loops became AxpyRow, the fused step every
// kernel takes): a comparison sort of (edge, weight) records by (src, dst),
// the scatter-gather engine's per-edge row update with its run-by-run cycle
// count, freshly
// allocated intermediates, and GraphSAGE's copy → self → concatCols.
func forwardOracle(bk *Backend, m *gnn.Model, mb *sampler.MiniBatch, x *tensor.Matrix) (*tensor.Matrix, ForwardStats, error) {
	L := m.Cfg.Layers()
	if len(mb.Blocks) != L {
		return nil, ForwardStats{}, fmt.Errorf("accel: %d blocks for %d layers", len(mb.Blocks), L)
	}
	var stats ForwardStats
	h := x
	for l := 0; l < L; l++ {
		b := mb.Blocks[l]
		fin := m.Cfg.Dims[l]
		nd := len(b.Dst)

		type weightedEdge struct {
			src, dst int32
			w        float32
		}
		nb := gnn.NewNeighborhood(m.Cfg, b)
		edgeW, selfW := nb.EdgeW, nb.SelfW
		wedges := make([]weightedEdge, b.NumEdges())
		for d := 0; d < nd; d++ {
			for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
				wedges[e] = weightedEdge{src: b.Col[e], dst: int32(d), w: edgeW[e]}
			}
		}
		slices.SortStableFunc(wedges, func(a, b weightedEdge) int {
			if a.src != b.src {
				return cmp.Compare(a.src, b.src)
			}
			return cmp.Compare(a.dst, b.dst)
		})

		// Scatter-gather engine, one fetch per source run.
		agg := tensor.New(nd, fin)
		featBytes := int64(fin) * 4
		fetchCycles := int64((int(featBytes) + bk.SG.BytesPerCycle - 1) / bk.SG.BytesPerCycle)
		var cycles, traffic int64
		fetches, run := 0, 0
		resident := int32(-1)
		flushRun := func() {
			if run > 0 {
				cycles += int64((run + bk.SG.NumPEs - 1) / bk.SG.NumPEs)
				run = 0
			}
		}
		for _, we := range wedges {
			if we.src != resident {
				flushRun()
				fetches++
				traffic += featBytes
				if fetches == 1 {
					cycles += int64(bk.SG.FetchLatency)
				}
				cycles += fetchCycles
				resident = we.src
			}
			run++
			tensor.AxpyRow(agg.Row(int(we.dst)), h.Row(int(we.src)), we.w)
		}
		flushRun()
		stats.AggCycles += cycles
		stats.FeatureFetches += fetches
		if l == 0 {
			stats.TrafficBytes += traffic
		}
		for d := 0; d < nd; d++ {
			if w := selfW[d]; w != 0 {
				tensor.AxpyRow(agg.Row(d), h.Row(d), w)
			}
		}

		dense := agg
		if m.Cfg.Kind == gnn.SAGE {
			self := tensor.New(nd, fin)
			for d := 0; d < nd; d++ {
				copy(self.Row(d), h.Row(d))
			}
			dense = tensor.New(nd, 2*fin)
			concatCols(dense, self, agg)
		}

		// Systolic array.
		z := tensor.New(nd, m.Cfg.Dims[l+1])
		tensor.MatMul(z, dense, m.Params.Weights[l])
		if bias := m.Params.Biases[l]; bias != nil {
			tensor.AddBias(z, bias)
		}
		macs := int64(dense.Rows) * int64(dense.Cols) * int64(z.Cols)
		upd := macs/int64(bk.Systolic.NumMACs) + int64(bk.Systolic.FillCost)
		if macs%int64(bk.Systolic.NumMACs) != 0 {
			upd++
		}
		stats.UpdateCycles += upd
		if l < L-1 {
			tensor.ReLUInto(z)
		}
		h = z
	}
	stats.OutputBytes = int64(h.Rows) * int64(h.Cols) * 4
	aggSec := float64(stats.AggCycles) / (bk.Systolic.FreqGHz * 1e9)
	updSec := float64(stats.UpdateCycles) / (bk.Systolic.FreqGHz * 1e9)
	stats.Sec = math.Max(aggSec, updSec)
	return h, stats, nil
}

// concatCols writes [a | b] into dst, which must be r×(a.Cols+b.Cols).
func concatCols(dst, a, b *tensor.Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Rows || dst.Cols != a.Cols+b.Cols {
		panic("accel: concatCols shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i)[:a.Cols], a.Row(i))
		copy(dst.Row(i)[a.Cols:], b.Row(i))
	}
}

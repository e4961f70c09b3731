// Layer-propagation kernels: the aggregate-over-neighbor-set and dense-update
// primitives shared by every execution path in the system — sampled training
// (TrainStepRowsWS: forwardWS, then backwardWS), sampled mini-batch inference
// (InferMiniBatchRowsWS) and exact full-graph inference (inferFullGraph). A
// Neighborhood captures the message structure of one bipartite layer with its
// aggregation coefficients pre-resolved for the model kind (GCN/SAGE), so
// callers compose layers without re-implementing the aggregator.

package gnn

import (
	"fmt"

	"repro/internal/sampler"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Neighborhood is one layer's message structure ready for propagation: a
// bipartite edge set (CSC over destinations, Col holding local source
// indices) plus the per-edge and per-destination-self coefficients the model
// kind assigns. Destination d's self feature is source d (Dst is a prefix of
// Src in every Block, including the full-graph block).
type Neighborhood struct {
	Block *sampler.Block
	EdgeW []float32 // aggregation coefficient per edge
	SelfW []float32 // self-loop coefficient per destination (0 for SAGE)

	// in maps local source s to the row of the layer input the aggregation
	// reads for it; nil means row s. Layer 0 of the table form sets it to the
	// mini-batch's input vertices, so the aggregation reads the feature table
	// where it lives instead of a gathered copy. rows is in[Col[e]] per edge,
	// built once per bind (mapRows); the aggregation walks Block.Col itself
	// when in is nil (edgeRows).
	in, rows []int32

	// ws backs every scratch slice this neighborhood builds (the
	// coefficients resolved by init, the mapped row list, the backward
	// transpose below), so re-initialising per iteration — the forward pass
	// does it per layer — costs no allocations.
	ws *tensor.Workspace
	// Transposed (CSR-over-sources) view of the scatter, built lazily by the
	// parallel AggregateBackward: contribution t lands on source s for
	// tPtr[s] ≤ t < tPtr[s+1], reading dAgg row tDst[t] scaled by tW[t].
	// Contributions are stored in exactly the serial scatter's per-source
	// order (ascending destination, self before that destination's edges),
	// which is what makes the parallel gather bit-identical to the serial
	// scatter — see AggregateBackward.
	tPtr []int32
	tDst []int32
	tW   []float32
}

// NewNeighborhood resolves cfg's aggregation coefficients for a block, on an
// arena of its own. It panics on a GCN block that carries no graph; the
// forward passes return that as an error instead.
func NewNeighborhood(cfg Config, b *sampler.Block) *Neighborhood {
	nb := &Neighborhood{}
	if err := nb.init(cfg, b, tensor.NewWorkspace()); err != nil {
		panic(err)
	}
	return nb
}

// init (re-)binds the neighborhood to a block, resolving coefficients into
// ws-backed slices (an empty arena hands out plain allocations). Reused by
// ForwardState across iterations so steady-state training rebuilds
// neighborhoods without allocating.
func (nb *Neighborhood) init(cfg Config, b *sampler.Block, ws *tensor.Workspace) error {
	nb.Block, nb.ws = b, ws
	nb.in, nb.rows = nil, nil
	nb.tPtr, nb.tDst, nb.tW = nil, nil, nil
	nb.EdgeW, nb.SelfW = ws.F32(b.NumEdges()), ws.F32(len(b.Dst))
	var norm []float32 // GCN's per-source factors, dead once the weights are resolved
	if cfg.Kind == GCN {
		norm = ws.F32Temp(len(b.Src))
	}
	if err := edgeWeightsInto(cfg, b, nb.EdgeW, nb.SelfW, norm); err != nil {
		return err
	}
	if WeightsTap != nil {
		WeightsTap(b, nb.EdgeW, nb.SelfW)
	}
	return nil
}

// WeightsTap, when set, sees every block's coefficients as they are
// resolved: a test seam that holds every program path to GCN's Eq. 3. Set
// it only while no model runs.
var WeightsTap func(b *sampler.Block, edgeW, selfW []float32)

// mapRows makes the aggregation read source s from row in[s] of the layer
// input (nil: row s), building the per-edge row list in[Col[e]] — O(|E|)
// int32s from the workspace the neighborhood is bound to, which a mapped
// neighborhood needs. in must have one entry per source; a row outside the
// input panics in the tensor kernel that reads it.
func (nb *Neighborhood) mapRows(in []int32) {
	nb.in, nb.rows = in, nil
	if in == nil {
		return
	}
	nb.rows = nb.ws.I32(len(nb.Block.Col))
	for e, s := range nb.Block.Col {
		nb.rows[e] = in[s]
	}
}

// edgeRows returns the per-edge row list the aggregation walks.
func (nb *Neighborhood) edgeRows() []int32 {
	if nb.in == nil {
		return nb.Block.Col
	}
	return nb.rows
}

// numDst returns the number of destination vertices.
func (nb *Neighborhood) numDst() int { return len(nb.Block.Dst) }

// Aggregate computes the weighted neighbor sum for every destination:
// out[d] = SelfW[d]·h[d] + Σ_e EdgeW[e]·h[Col[e]], each source read through
// the row map (mapRows). out is |Dst| × h.Cols. Destinations are
// independent, so the loop is row-parallel.
func (nb *Neighborhood) Aggregate(out, h *tensor.Matrix) {
	n := len(nb.Block.Dst)
	work := nb.workPerRow(n, h.Cols)
	if tensor.FanOut(n, work) <= 1 {
		aggregateRange(nb.Block.RowPtr, nb.in, nb.edgeRows(), nb.EdgeW, nb.SelfW, out, h, 0, n)
		return
	}
	// The closure captures the neighborhood's fields, not the neighborhood
	// itself, so stack-allocated Neighborhood values (the serving hot path)
	// never escape.
	rowPtr, in, rows, edgeW, selfW := nb.Block.RowPtr, nb.in, nb.edgeRows(), nb.EdgeW, nb.SelfW
	tensor.ParallelRows(n, work, func(lo, hi int) { aggregateRange(rowPtr, in, rows, edgeW, selfW, out, h, lo, hi) })
}

// selfRows returns the rows of the layer input that hold the destinations'
// own features — the self operand of SAGE's dense update: the row map's first
// |Dst| entries, or nil (the input's first |Dst| rows, as Dst is a prefix of
// Src) when the neighborhood reads its input unmapped.
func (nb *Neighborhood) selfRows() []int32 {
	if nb.in == nil {
		return nil
	}
	return nb.in[:nb.numDst()]
}

// workPerRow is the fan-out work estimate both aggregation directions pass
// to tensor.FanOut: one cols-wide row update per edge and per destination's
// self term, averaged over the rows the kernel is split by.
func (nb *Neighborhood) workPerRow(rows, cols int) int {
	if rows == 0 {
		return 0
	}
	return (nb.Block.NumEdges() + len(nb.Block.Dst)) * cols / rows
}

// aggregateRange aggregates destinations [lo, hi): the one aggregation
// kernel, whichever table h is. Sources are read through the row map in
// (nil: source s is row s) and the per-edge row list rows (Block.Col or its
// mapped copy), so a gathered block and the feature table itself run the
// same floats in the same order.
func aggregateRange(rowPtr, in, rows []int32, edgeW, selfW []float32, out, h *tensor.Matrix, lo, hi int) {
	cols := h.Cols
	for d := lo; d < hi; d++ {
		orow := out.Row(d)
		if w := selfW[d]; w != 0 {
			// Dst is a prefix of Src: local index d is the self source. The
			// scale-initialise pass rides the same SIMD dispatch as AxpyRow.
			self := d
			if in != nil {
				self = int(in[d])
			}
			tensor.ScaleRowInto(orow, h.Row(self), w)
		} else {
			for j := range orow {
				orow[j] = 0
			}
		}
		// The destination's whole edge list in one call: the row stays in
		// registers while its neighbours stream past (tensor.AggregateRow).
		e0, e1 := rowPtr[d], rowPtr[d+1]
		tensor.AggregateRow(orow, h.Data, cols, rows[e0:e1], edgeW[e0:e1])
	}
}

// AggregateBackward scatters dAgg back to the sources with the same
// coefficients (the transpose of Aggregate), adding into dh (zero it first
// for a pure scatter). Sources are shared between destinations, so the
// destination-major scatter cannot be row-parallelised directly; instead the
// parallel path gathers through the transposed (source-major) contribution
// list, giving every ParallelRows worker an owned range of dh rows and no
// write races. Because the transpose stores each source's contributions in
// exactly the serial scatter's order, the result is bit-identical to
// aggregateBackwardSerial at any worker count — the property the gnn test
// suite pins with exact equality. (The alternative — destination-range
// workers with privatized dh partials merged afterwards — cannot be exact:
// merging partial sums reassociates float32 addition.) A scatter too small
// to fan out takes the serial scatter directly, skipping the transpose build.
func (nb *Neighborhood) AggregateBackward(dh, dAgg *tensor.Matrix) {
	rows, cols := len(nb.Block.Src), dh.Cols
	work := nb.workPerRow(rows, cols)
	if tensor.FanOut(rows, work) <= 1 {
		nb.aggregateBackwardSerial(dh, dAgg)
		return
	}
	nb.buildTranspose()
	tPtr, tDst, tW := nb.tPtr, nb.tDst, nb.tW
	tensor.ParallelRows(rows, work, func(lo, hi int) {
		// Source-major, so each dh row is stationary over its contribution
		// list exactly as a destination is in aggregateRange.
		for s := lo; s < hi; s++ {
			tensor.AggregateRow(dh.Row(s), dAgg.Data, cols, tDst[tPtr[s]:tPtr[s+1]], tW[tPtr[s]:tPtr[s+1]])
		}
	})
}

// aggregateBackwardSerial is the destination-major serial scatter — the
// pre-parallelisation kernel, retained as the exact-equality oracle and the
// below-the-grain fast path (it needs no transpose build). A scatter has no
// stationary row — consecutive edges write different dh rows — so it stays a
// loop of AxpyRow calls.
func (nb *Neighborhood) aggregateBackwardSerial(dh, dAgg *tensor.Matrix) {
	b := nb.Block
	cols := dh.Cols
	for d := 0; d < len(b.Dst); d++ {
		grow := dAgg.Row(d)
		if w := nb.SelfW[d]; w != 0 {
			tensor.AxpyRow(dh.Row(d), grow, w)
		}
		for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
			drow := dh.Data[int(b.Col[e])*cols : int(b.Col[e])*cols+cols]
			tensor.AxpyRow(drow, grow, nb.EdgeW[e])
		}
	}
}

// buildTranspose materialises the source-major contribution list: a counting
// sort of (self + edge) contributions by source, filled in destination-major
// order so each source's run preserves the serial scatter's sequence.
func (nb *Neighborhood) buildTranspose() {
	if nb.tPtr != nil {
		return
	}
	b := nb.Block
	nS := len(b.Src)
	nD := len(b.Dst)
	total := b.NumEdges()
	for d := 0; d < nD; d++ {
		if nb.SelfW[d] != 0 {
			total++
		}
	}
	tPtr, tDst, cur := nb.ws.I32(nS+1), nb.ws.I32(total), nb.ws.I32(nS)
	tW := nb.ws.F32(total)
	for s := range tPtr {
		tPtr[s] = 0
	}
	for d := 0; d < nD; d++ {
		if nb.SelfW[d] != 0 {
			tPtr[d+1]++
		}
		for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
			tPtr[b.Col[e]+1]++
		}
	}
	for s := 0; s < nS; s++ {
		tPtr[s+1] += tPtr[s]
		cur[s] = tPtr[s]
	}
	for d := 0; d < nD; d++ {
		if w := nb.SelfW[d]; w != 0 {
			tDst[cur[d]], tW[cur[d]] = int32(d), w
			cur[d]++
		}
		for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
			s := b.Col[e]
			tDst[cur[s]], tW[cur[s]] = int32(d), nb.EdgeW[e]
			cur[s]++
		}
	}
	nb.tPtr, nb.tDst, nb.tW = tPtr, tDst, tW
}

// propagateLayer runs layer l over a neighborhood: aggregation, the dense
// update (SAGE's over [self ‖ mean]) and the hidden-layer ReLU. h holds the
// layer input over the neighborhood's sources (for a row-mapped neighborhood,
// the table its row map indexes). It returns the layer output z (|Dst| ×
// Dims[l+1], post-ReLU for a hidden layer) and the aggregate, which training
// retains for the backward pass. Buffers are borrowed from ws (contents may
// be dirty — every kernel below fully overwrites its output; an empty arena
// hands out plain allocations). The layer makes one pass per memory touch:
// SAGE's self half is
// never copied — tensor.MatMulCat reads it from h where it lives (through the
// row map at layer 0) beside the aggregate — and bias + ReLU are fused into a
// single sweep of the dense-update output. The aggregation and the dense
// update each run under a span on lane (0: none; internal/trace).
func (m *Model) propagateLayer(l int, nb *Neighborhood, h *tensor.Matrix,
	ws *tensor.Workspace, lane int) (z, agg *tensor.Matrix, err error) {
	L := m.Cfg.Layers()
	if l < 0 || l >= L {
		return nil, nil, fmt.Errorf("gnn: layer %d outside [0,%d)", l, L)
	}
	fin := m.Cfg.Dims[l]
	if h.Cols != fin {
		return nil, nil, fmt.Errorf("gnn: layer %d input %d-dim, want %d", l, h.Cols, fin)
	}
	if nb.in == nil && h.Rows != len(nb.Block.Src) {
		return nil, nil, fmt.Errorf("gnn: layer %d input has %d rows for %d sources",
			l, h.Rows, len(nb.Block.Src))
	}
	nd := nb.numDst()
	start := trace.Begin(lane)
	agg = ws.Get(nd, fin)
	nb.Aggregate(agg, h)
	trace.End(lane, "aggregate", l, start)
	start = trace.Begin(lane)
	z = ws.Get(nd, m.Cfg.Dims[l+1])
	if m.Cfg.Kind == SAGE {
		tensor.MatMulCat(z, h, nb.selfRows(), agg, m.Params.Weights[l])
	} else {
		tensor.MatMul(z, agg, m.Params.Weights[l])
	}
	if l < L-1 {
		tensor.AddBiasReLU(z, m.Params.Biases[l])
	} else {
		tensor.AddBias(z, m.Params.Biases[l])
	}
	trace.End(lane, "update", l, start)
	return z, agg, nil
}

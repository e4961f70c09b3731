package gnn

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// InferFullGraph computes embeddings for every vertex with exact (unsampled)
// layer-wise propagation over the whole graph — the standard way trained
// sampling-based models are evaluated (GraphSAGE §3.1). It runs the same
// layer-propagation kernels as the sampled paths, over the full-graph block,
// with the per-vertex aggregation loop row-parallel across CPU workers.
// Memory is O(|V|·maxDim); intended for the scaled datasets of this
// repository. Returns the final-layer logits (|V| × fL).
func (m *Model) InferFullGraph(g *graph.Graph, x *tensor.Matrix) (*tensor.Matrix, error) {
	if g.NumVertices != x.Rows {
		return nil, fmt.Errorf("gnn: %d feature rows for %d vertices", x.Rows, g.NumVertices)
	}
	if x.Cols != m.Cfg.Dims[0] {
		return nil, fmt.Errorf("gnn: features %d-dim, model expects %d", x.Cols, m.Cfg.Dims[0])
	}
	blk, err := sampler.FullGraphBlock(g)
	if err != nil {
		return nil, err
	}
	// The coefficients depend only on the topology and the model kind, so one
	// neighborhood serves every layer.
	nb := NewNeighborhood(m.Cfg, blk)
	h := x
	for l := 0; l < m.Cfg.Layers(); l++ {
		z, _, err := m.PropagateLayer(l, nb, h)
		if err != nil {
			return nil, err
		}
		h = z
	}
	return h, nil
}

// InferMiniBatchWS is InferMiniBatchRowsWS over a gathered block x (rows
// nil).
func (m *Model) InferMiniBatchWS(ws *tensor.Workspace, mb *sampler.MiniBatch, x *tensor.Matrix) (*tensor.Matrix, error) {
	return m.InferMiniBatchRowsWS(ws, mb, x, nil)
}

// InferMiniBatchRowsWS runs the forward-only pass over a sampled fanout and
// returns the logits for mb's target vertices (|targets| × fL): the serving
// counterpart of TrainStepRowsWS's forward — same kernels, no state retained
// for a backward pass — with every intermediate (the returned logits
// included) borrowed from ws. x and rows are TrainStepRowsWS's: the feature
// table and each input node's row of it, or (rows nil) the block gathered
// over mb.InputNodes(). The logits are valid until the owner's next
// ws.Reset; callers that outlive the batch (the embedding cache does) must
// copy the rows they keep. The caller resets ws at batch boundaries; this
// function only borrows.
func (m *Model) InferMiniBatchRowsWS(ws *tensor.Workspace, mb *sampler.MiniBatch, x *tensor.Matrix, rows []int32) (*tensor.Matrix, error) {
	if err := m.checkInput(mb, x, rows); err != nil {
		return nil, err
	}
	h := x
	var nb Neighborhood
	for l := 0; l < m.Cfg.Layers(); l++ {
		nb.init(m.Cfg, mb.Blocks[l], ws)
		if l == 0 {
			nb.mapRows(rows)
		}
		z, _, err := m.propagateLayer(l, &nb, h, ws)
		if err != nil {
			return nil, err
		}
		h = z
	}
	return h, nil
}

// ForwardWork is the work of a forward pass over mb in tensor.FanOut's
// float32 element-operations: per layer, the aggregation's row updates (one
// fin-wide update per edge and per destination) plus the GEMM's
// multiply-adds over the dense input (SAGE's [self ‖ mean] is 2·fin wide).
func (m *Model) ForwardWork(mb *sampler.MiniBatch) int {
	work := 0
	for l, b := range mb.Blocks {
		fin, nd := m.Cfg.Dims[l], len(b.Dst)
		dense := fin
		if m.Cfg.Kind == SAGE {
			dense = 2 * fin
		}
		work += (b.NumEdges()+nd)*fin + nd*dense*m.Cfg.Dims[l+1]
	}
	return work
}

// Evaluate runs full-graph inference and returns the accuracy over the
// given vertex set.
func (m *Model) Evaluate(g *graph.Graph, x *tensor.Matrix, labels []int32, idx []int32) (float64, error) {
	logits, err := m.InferFullGraph(g, x)
	if err != nil {
		return 0, err
	}
	if len(idx) == 0 {
		return 0, fmt.Errorf("gnn: empty evaluation set")
	}
	correct := 0
	for _, v := range idx {
		row := logits.Row(int(v))
		argmax := 0
		for j, val := range row {
			if val > row[argmax] {
				argmax = j
			}
		}
		if int32(argmax) == labels[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(idx)), nil
}

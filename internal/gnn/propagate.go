package gnn

import (
	"fmt"
	"math"

	"repro/internal/sampler"
	"repro/internal/tensor"
)

// ForwardState retains per-layer activations needed by the backward pass.
// A state is reusable: passing the same state to TrainStepRowsWS across
// iterations reuses its layer slices and neighborhood structs, so steady-state
// training holds it (together with a Workspace) to run allocation-free. A
// fresh &ForwardState{} is ready for use. Its buffers (Logits included) are
// valid until the owner's next ws.Reset; a state must not be shared between
// concurrent steps. No ReLU mask is
// kept: hidden layer l's post-ReLU output is inputs[l+1], and the activation's
// derivative is 1 exactly where that is > 0 (tensor.ReLUBackward).
type ForwardState struct {
	mb     *sampler.MiniBatch
	inputs []*tensor.Matrix // H over Blocks[l].Src, layer input (layer 0: the table nbs[0] maps into)
	aggs   []*tensor.Matrix // aggregated (GCN) / concatenated (SAGE) input to the dense update
	nbs    []Neighborhood   // per-layer message structure, reused across iterations
	view   tensor.Matrix    // scratch header for the SAGE dh-prefix view
	Logits *tensor.Matrix   // |targets| × fL
}

// EdgeWeights computes the aggregation coefficients a model configuration
// assigns to a block's edges and self loops. Exported so an independent
// re-implementation of the forward (accel's dataflow-order test oracle)
// uses the exact same coefficients as the reference path.
func EdgeWeights(cfg Config, b *sampler.Block) (edgeW []float32, selfW []float32) {
	return edgeWeightsInto(cfg, b, make([]float32, b.NumEdges()), make([]float32, len(b.Dst)))
}

// edgeWeightsInto is EdgeWeights into caller-provided buffers (reused across
// mini-batches by the neighborhoods of the workspace paths): edgeW must have
// length NumEdges(), selfW length |Dst|. Every element is overwritten.
// Returns the filled slices.
func edgeWeightsInto(cfg Config, b *sampler.Block, edgeW, selfW []float32) ([]float32, []float32) {
	if len(edgeW) != b.NumEdges() || len(selfW) != len(b.Dst) {
		panic(fmt.Sprintf("gnn: edgeWeightsInto buffers %d/%d for %d edges, %d destinations",
			len(edgeW), len(selfW), b.NumEdges(), len(b.Dst)))
	}
	nd := len(b.Dst)
	switch cfg.Kind {
	case GCN:
		if cfg.Degrees != nil {
			// Paper Eq. 3: 1/√(D(v)·D(u)), smoothed with +1 self loops.
			norm := func(v int32) float32 {
				return float32(1 / math.Sqrt(float64(cfg.Degrees[v])+1))
			}
			for d := 0; d < nd; d++ {
				nv := norm(b.Dst[d])
				selfW[d] = nv * nv
				for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
					edgeW[e] = nv * norm(b.Src[b.Col[e]])
				}
			}
			return edgeW, selfW
		}
		// Mean over {v} ∪ N(v): linear, degree-robust fallback.
		for d := 0; d < nd; d++ {
			inv := float32(1) / float32(b.RowPtr[d+1]-b.RowPtr[d]+1)
			selfW[d] = inv
			for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
				edgeW[e] = inv
			}
		}
	case SAGE:
		// Mean over neighbors only; the self feature is concatenated
		// separately, so selfW stays 0.
		for d := 0; d < nd; d++ {
			selfW[d] = 0
			deg := b.RowPtr[d+1] - b.RowPtr[d]
			if deg == 0 {
				continue
			}
			inv := float32(1) / float32(deg)
			for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
				edgeW[e] = inv
			}
		}
	case GIN:
		// Sum aggregation with emphasised self loop: (1+ε)·h_v + Σ h_u.
		selfCoef := float32(1 + cfg.GINEps)
		for d := 0; d < nd; d++ {
			selfW[d] = selfCoef
			for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
				edgeW[e] = 1
			}
		}
	}
	return edgeW, selfW
}

// checkInput validates a layer-0 input: x is the gathered block over
// mb.InputNodes() when rows is nil, and otherwise a feature table that rows —
// one entry per input node — indexes.
func (m *Model) checkInput(mb *sampler.MiniBatch, x *tensor.Matrix, rows []int32) error {
	L := m.Cfg.Layers()
	if len(mb.Blocks) != L {
		return fmt.Errorf("gnn: mini-batch has %d blocks, model has %d layers", len(mb.Blocks), L)
	}
	if rows != nil && len(rows) != len(mb.InputNodes()) {
		return fmt.Errorf("gnn: %d input rows for %d input nodes", len(rows), len(mb.InputNodes()))
	}
	if (rows == nil && x.Rows != len(mb.InputNodes())) || x.Cols != m.Cfg.Dims[0] {
		return fmt.Errorf("gnn: feature matrix %dx%d, want %dx%d",
			x.Rows, x.Cols, len(mb.InputNodes()), m.Cfg.Dims[0])
	}
	return nil
}

// forwardWS is the training forward pass behind every entry point: the
// zero-allocation one core's trainers run. Layer 0 reads source s from row
// rows[s] of x (rows nil: row s), so a feature table is aggregated where it
// lives; layers ≥ 1 read their input directly.
func (m *Model) forwardWS(ws *tensor.Workspace, st *ForwardState, mb *sampler.MiniBatch, x *tensor.Matrix, rows []int32) error {
	if err := m.checkInput(mb, x, rows); err != nil {
		return err
	}
	L := m.Cfg.Layers()
	st.mb = mb
	if len(st.inputs) != L {
		st.inputs = make([]*tensor.Matrix, L)
		st.aggs = make([]*tensor.Matrix, L)
		st.nbs = make([]Neighborhood, L)
	}
	h := x
	for l := 0; l < L; l++ {
		st.inputs[l] = h
		nb := &st.nbs[l]
		nb.init(m.Cfg, mb.Blocks[l], ws)
		if l == 0 {
			nb.mapRows(rows)
		}
		z, dense, err := m.propagateLayer(l, nb, h, ws)
		if err != nil {
			return err
		}
		st.aggs[l] = dense
		h = z
	}
	st.Logits = h
	return nil
}

// selfIdx returns [0, 1, ..., n-1] as int32 (the Dst-prefix rows of Src).
func selfIdx(n int) []int32 {
	return fillIdentity(make([]int32, n))
}

func fillIdentity(idx []int32) []int32 {
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// BackwardWS computes the parameter gradients — every layer's weights and
// biases — for dLogits (gradient of the loss w.r.t. the logits) into
// caller-owned grads (every element overwritten), with all intermediates
// borrowed from ws — the zero-allocation form. It mirrors forward
// propagation in reverse, as the paper describes (§II-B), and ends at the
// first layer's weights: ∂L/∂X of the input features has no consumer and is
// never formed, so the input block's aggregate has no backward. st must come
// from the matching forward pass (TrainStepRowsWS runs it first) whose
// buffers are still live; dLogits is not mutated.
func (m *Model) BackwardWS(ws *tensor.Workspace, st *ForwardState, dLogits *tensor.Matrix, grads *Gradients) error {
	L := m.Cfg.Layers()
	if dLogits.Rows != st.Logits.Rows || dLogits.Cols != st.Logits.Cols {
		return fmt.Errorf("gnn: dLogits %dx%d, want %dx%d",
			dLogits.Rows, dLogits.Cols, st.Logits.Rows, st.Logits.Cols)
	}
	dz := ws.Get(dLogits.Rows, dLogits.Cols)
	copy(dz.Data, dLogits.Data)
	for l := L - 1; l >= 0; l-- {
		if l < L-1 {
			// dz is the gradient at hidden layer l's post-ReLU output, which
			// the forward pass retained as the next layer's input.
			tensor.ReLUBackward(dz, st.inputs[l+1])
		}
		// Dense update backward: z = dense·W + bias.
		tensor.TMatMul(grads.Weights[l], st.aggs[l], dz)
		grads.Biases[l].Zero()
		tensor.BiasGrad(grads.Biases[l], dz)
		if l == 0 {
			break // nothing trainable below: no dDense GEMM, |V0|×f0 clear or scatter
		}
		dDense := ws.Get(dz.Rows, m.Cfg.inDim(l))
		tensor.MatMulT(dDense, dz, m.Params.Weights[l])

		// Aggregation backward into the layer input.
		fin := m.Cfg.Dims[l]
		dh := ws.GetZero(len(st.mb.Blocks[l].Src), fin)
		nb := &st.nbs[l]
		if m.Cfg.Kind == SAGE {
			// The self half of dDense lands directly on the Dst-prefix rows
			// of dh (they are zero, so the split's copy equals the scatter-add
			// the unfused path performed); the mean half feeds the scatter.
			dSelf := &st.view
			dSelf.Rows, dSelf.Cols, dSelf.Data = dz.Rows, fin, dh.Data[:dz.Rows*fin]
			dMean := ws.Get(dz.Rows, fin)
			tensor.SplitCols(dSelf, dMean, dDense)
			nb.AggregateBackward(dh, dMean)
		} else {
			nb.AggregateBackward(dh, dDense)
		}
		dz = dh
	}
	return nil
}

// TrainStepWS is TrainStepRowsWS over a gathered block x (rows nil).
func (m *Model) TrainStepWS(ws *tensor.Workspace, st *ForwardState, mb *sampler.MiniBatch,
	x *tensor.Matrix, grads *Gradients) (float64, float64, error) {
	return m.TrainStepRowsWS(ws, st, mb, x, nil, grads)
}

// TrainStepRowsWS runs forward, loss and backward for one mini-batch and
// returns the mean loss and the training accuracy; the gradients (not yet
// applied) are written into grads, every element overwritten. Intermediates
// come from ws and layer bookkeeping is reused from st. x is the feature
// table and rows[s] its row for input node s — core's trainers pass the
// dataset's table and mb.InputNodes(), so no feature block is staged; rows
// nil means x is the block gathered over mb.InputNodes(). Both forms compute the same
// bits. x is only read. With ws.Reset called at each iteration boundary the
// steady-state step allocates nothing — the property core's trainer backends
// rely on and the AllocsPerRun gates enforce. The caller resets ws; this
// function only borrows.
func (m *Model) TrainStepRowsWS(ws *tensor.Workspace, st *ForwardState, mb *sampler.MiniBatch,
	x *tensor.Matrix, rows []int32, grads *Gradients) (float64, float64, error) {
	if err := m.forwardWS(ws, st, mb, x, rows); err != nil {
		return 0, 0, err
	}
	if len(mb.Labels) != st.Logits.Rows {
		return 0, 0, fmt.Errorf("gnn: %d labels for %d targets", len(mb.Labels), st.Logits.Rows)
	}
	dLogits := ws.Get(st.Logits.Rows, st.Logits.Cols)
	loss, correct := tensor.SoftmaxCrossEntropy(dLogits, st.Logits, mb.Labels)
	if err := m.BackwardWS(ws, st, dLogits, grads); err != nil {
		return 0, 0, err
	}
	return loss, float64(correct) / float64(len(mb.Labels)), nil
}

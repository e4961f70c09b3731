package gnn

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sampler"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// ForwardState retains per-layer activations needed by the backward pass.
// A state is reusable: passing the same state to TrainStepRowsWS across
// iterations reuses its layer slices and neighborhood structs, so steady-state
// training holds it (together with a Workspace) to run allocation-free. A
// fresh &ForwardState{} is ready for use. Its buffers (Logits included) are
// valid until the owner's next ws.Reset; a state must not be shared between
// concurrent steps. No ReLU mask is kept by the forward pass: hidden layer l's
// post-ReLU output is inputs[l+1], and the activation's derivative is 1
// exactly where that is > 0 (tensor.ReLUMask). A forward pass backpropagates
// once: backwardWS writes each hidden layer's input gradient over the
// activation it consumes, so it refuses a state it has already run on until
// the next forward pass re-arms it. Logits is never overwritten. SAGE's dense
// input [self ‖ mean] is never formed: the mean half is aggs[l], and the self
// half is read where it lives, from inputs[l] — the feature table through
// nbs[0]'s row map at layer 0, the previous layer's output (its Dst-prefix
// rows) above it — so the backward pass must take the weight gradient from
// those rows before it overwrites them.
type ForwardState struct {
	mb     *sampler.MiniBatch
	inputs []*tensor.Matrix // H over Blocks[l].Src, layer input (layer 0: the table nbs[0] maps into)
	aggs   []*tensor.Matrix // |Dst|×f aggregate: GCN's dense input, SAGE's mean half (its self half is inputs[l])
	nbs    []Neighborhood   // per-layer message structure, reused across iterations
	view   tensor.Matrix    // scratch header for the SAGE dh-prefix view
	armed  bool             // the activations are intact: set by forwardWS, cleared by backwardWS
	Logits *tensor.Matrix   // |targets| × fL
	// Lane is the span lane (internal/trace) the steps on this state record
	// their per-layer aggregate, update and backward spans and their loss
	// on; 0, the zero value, records none.
	Lane int
}

// edgeWeightsInto overwrites edgeW (length NumEdges()) and selfW (length
// |Dst|) with the coefficients the model kind assigns a block's edges and
// self loops; GCN also takes norm (length |Src|) as scratch. GCN's are the
// paper's Eq. 3 over the degrees of the graph the block was drawn from, so a
// GCN block that carries no graph is an error.
func edgeWeightsInto(cfg Config, b *sampler.Block, edgeW, selfW, norm []float32) error {
	if len(edgeW) != b.NumEdges() || len(selfW) != len(b.Dst) {
		panic(fmt.Sprintf("gnn: edgeWeightsInto buffers %d/%d for %d edges, %d destinations",
			len(edgeW), len(selfW), b.NumEdges(), len(b.Dst)))
	}
	nd := len(b.Dst)
	switch cfg.Kind {
	case GCN:
		// Paper Eq. 3: 1/√(D(v)·D(u)), smoothed with +1 self loops. Each
		// source's factor is taken once; an edge multiplies its two ends'.
		if b.Graph == nil {
			return errors.New("gnn: GCN block carries no graph: Eq. 3 reads the degrees of the graph a block was sampled from")
		}
		for s, v := range b.Src {
			norm[s] = float32(1 / math.Sqrt(float64(b.Graph.Degree(v))+1))
		}
		for d := 0; d < nd; d++ {
			nv := norm[d] // Dst is a prefix of Src
			selfW[d] = nv * nv
			for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
				edgeW[e] = nv * norm[b.Col[e]]
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
	}
	return nil
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
	st.mb, st.armed = mb, false
	if len(st.inputs) != L {
		st.inputs = make([]*tensor.Matrix, L)
		st.aggs = make([]*tensor.Matrix, L)
		st.nbs = make([]Neighborhood, L)
	}
	h := x
	for l := 0; l < L; l++ {
		st.inputs[l] = h
		nb := &st.nbs[l]
		if err := nb.init(m.Cfg, mb.Blocks[l], ws); err != nil {
			return err
		}
		if l == 0 {
			nb.mapRows(rows)
		}
		z, agg, err := m.propagateLayer(l, nb, h, ws, st.Lane)
		if err != nil {
			return err
		}
		st.aggs[l] = agg
		h = z
	}
	st.Logits, st.armed = h, true
	return nil
}

// backwardWS computes the parameter gradients — every layer's weights and
// biases — for dLogits (gradient of the loss w.r.t. the logits) into
// caller-owned grads (every element overwritten), with all intermediates
// borrowed from ws — the zero-allocation form. It mirrors forward
// propagation in reverse, as the paper describes (§II-B), and ends at the
// first layer's weights: ∂L/∂X of the input features has no consumer and is
// never formed, so the input block's aggregate has no backward. st must come
// from the matching forward pass (TrainStepRowsWS runs it first) whose
// buffers are still live. dLogits is not mutated, but the hidden activations
// are: layer l ≥ 1 records its input's ReLU derivative as one bit per element
// and accumulates its input gradient in that input's own buffer, so a state
// backpropagates once — a second call errors until the next forward pass.
// SAGE's weight gradient reads its self half from the rows of inputs[l] the
// forward pass read (tensor.TMatMulCat), so at each layer it is formed before
// ReLUMask and the self half of dDense overwrite that buffer.
func (m *Model) backwardWS(ws *tensor.Workspace, st *ForwardState, dLogits *tensor.Matrix, grads *Gradients) error {
	if !st.armed {
		return errors.New("gnn: forward state has no intact activations: run the forward pass before each backward pass")
	}
	L := m.Cfg.Layers()
	if dLogits.Rows != st.Logits.Rows || dLogits.Cols != st.Logits.Cols {
		return fmt.Errorf("gnn: dLogits %dx%d, want %dx%d",
			dLogits.Rows, dLogits.Cols, st.Logits.Rows, st.Logits.Cols)
	}
	st.armed = false
	dz := dLogits // only read: the top layer has no ReLU
	var mask []int32
	for l := L - 1; l >= 0; l-- {
		start := trace.Begin(st.Lane)
		if l < L-1 {
			// dz is the gradient at hidden layer l's post-ReLU output, held in
			// that output's buffer; mask is the output's derivative, recorded
			// before the buffer was overwritten.
			tensor.ReLUBackward(dz, mask)
		}
		// Dense update backward: z = dense·W + bias, dense = [self ‖ mean] for
		// SAGE. This reads inputs[l], so it runs before the buffer is reused.
		nb := &st.nbs[l]
		if m.Cfg.Kind == SAGE {
			tensor.TMatMulCat(grads.Weights[l], st.inputs[l], nb.selfRows(), st.aggs[l], dz)
		} else {
			tensor.TMatMul(grads.Weights[l], st.aggs[l], dz)
		}
		grads.Biases[l].Zero()
		tensor.BiasGrad(grads.Biases[l], dz)
		if l == 0 {
			trace.End(st.Lane, "backward", l, start)
			break // nothing trainable below: no dDense GEMM, |V0|×f0 clear or scatter
		}

		// Aggregation backward into the layer input. Past its ReLU derivative
		// nothing reads the input again, so its buffer becomes dh, cleared
		// where the scatter adds into it in the pass that records the bits.
		dh := st.inputs[l]
		nd, fin := dz.Rows, dh.Cols
		mask = ws.I32((dh.Rows*fin + 31) / 32)
		w := m.Params.Weights[l]
		if m.Cfg.Kind == SAGE {
			// dDense = dz·Wᵀ is [dSelf | dMean], and column j of it reads only
			// row j of W, so each half is the product with W's matching rows,
			// bit for bit. The self half lands directly on the Dst-prefix rows
			// of dh (which the scatter-add of the unfused path would have added
			// to zero), the mean half feeds the scatter.
			tensor.ReLUMask(mask, dh, nd)
			fout := w.Cols
			wSelf := tensor.Matrix{Rows: fin, Cols: fout, Data: w.Data[:fin*fout]}
			wMean := tensor.Matrix{Rows: fin, Cols: fout, Data: w.Data[fin*fout:]}
			dSelf := &st.view
			dSelf.Rows, dSelf.Cols, dSelf.Data = nd, fin, dh.Data[:nd*fin]
			tensor.MatMulT(dSelf, dz, &wSelf)
			dMean := ws.Get(nd, fin)
			tensor.MatMulT(dMean, dz, &wMean)
			nb.AggregateBackward(dh, dMean)
		} else {
			tensor.ReLUMask(mask, dh, 0)
			dDense := ws.Get(nd, fin)
			tensor.MatMulT(dDense, dz, w)
			nb.AggregateBackward(dh, dDense)
		}
		dz = dh
		trace.End(st.Lane, "backward", l, start)
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
// function only borrows. The backward pass consumes the hidden activations it
// reads (see backwardWS): after the step st holds intact Logits only, and
// the dLogits it passes to backwardWS is not mutated.
func (m *Model) TrainStepRowsWS(ws *tensor.Workspace, st *ForwardState, mb *sampler.MiniBatch,
	x *tensor.Matrix, rows []int32, grads *Gradients) (float64, float64, error) {
	if err := m.forwardWS(ws, st, mb, x, rows); err != nil {
		return 0, 0, err
	}
	if len(mb.Labels) != st.Logits.Rows {
		return 0, 0, fmt.Errorf("gnn: %d labels for %d targets", len(mb.Labels), st.Logits.Rows)
	}
	start := trace.Begin(st.Lane)
	dLogits := ws.Get(st.Logits.Rows, st.Logits.Cols)
	loss, correct := tensor.SoftmaxCrossEntropy(dLogits, st.Logits, mb.Labels)
	trace.End(st.Lane, "loss", len(mb.Blocks)-1, start)
	if err := m.backwardWS(ws, st, dLogits, grads); err != nil {
		return 0, 0, err
	}
	return loss, float64(correct) / float64(len(mb.Labels)), nil
}

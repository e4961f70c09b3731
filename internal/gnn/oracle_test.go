package gnn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sampler"
	"repro/internal/tensor"
)

// backwardOracle is BackwardWS as it stood before the backward pass was cut
// off at the first layer's weights, kept verbatim as the reference the
// shipped pass is pinned against: at every layer — including l == 0 — it
// forms dDense, clears a |Src|×fin dh, and scatters through the block, so it
// also computes ∂L/∂X of the input features that nothing consumes. Its ReLU
// backward is the one the forward pass used to feed with a stored mask: the
// 0/1 matrix is rebuilt here from the retained activation and multiplied in
// element by element, which is what tensor.ReLUBackward must equal.
func backwardOracle(m *Model, ws *tensor.Workspace, st *ForwardState, dLogits *tensor.Matrix, grads *Gradients) {
	L := m.Cfg.Layers()
	dz := ws.Get(dLogits.Rows, dLogits.Cols)
	copy(dz.Data, dLogits.Data)
	for l := L - 1; l >= 0; l-- {
		b := st.mb.Blocks[l]
		if l < L-1 {
			for i, out := range st.inputs[l+1].Data {
				var mask float32
				if out > 0 {
					mask = 1
				}
				dz.Data[i] *= mask
			}
		}
		tensor.TMatMul(grads.Weights[l], st.aggs[l], dz)
		grads.Biases[l].Zero()
		tensor.BiasGrad(grads.Biases[l], dz)
		dDense := ws.Get(dz.Rows, m.Cfg.inDim(l))
		tensor.MatMulT(dDense, dz, m.Params.Weights[l])

		fin := m.Cfg.Dims[l]
		dh := ws.GetZero(len(b.Src), fin)
		nb := &st.nbs[l]
		if m.Cfg.Kind == SAGE {
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
}

// chainedBatch generates an L-layer mini-batch of ragged blocks (zero-degree
// destinations, duplicate edges, self loops, shared sources — see
// raggedBlock) wired the way the sampler wires them: block l's destinations
// are block l+1's sources. maxDeg[l] == 0 makes block l edgeless.
func chainedBatch(rng *tensor.RNG, targets int, maxDeg []int, classes int) *sampler.MiniBatch {
	L := len(maxDeg)
	mb := &sampler.MiniBatch{Blocks: make([]*sampler.Block, L), Labels: make([]int32, targets)}
	nDst := targets
	for l := L - 1; l >= 0; l-- {
		mb.Blocks[l] = raggedBlock(rng, nDst, rng.Intn(2*nDst+1), maxDeg[l])
		nDst = len(mb.Blocks[l].Src)
	}
	mb.Targets = mb.Blocks[L-1].Dst
	for i := range mb.Labels {
		mb.Labels[i] = int32(rng.Intn(classes))
	}
	return mb
}

// oracleStep is TrainStepWS with backwardOracle in place of BackwardWS.
func oracleStep(t *testing.T, m *Model, ws *tensor.Workspace, mb *sampler.MiniBatch, x *tensor.Matrix, grads *Gradients) {
	t.Helper()
	st := &ForwardState{}
	if err := m.forwardWS(ws, st, mb, x, nil); err != nil {
		t.Fatal(err)
	}
	dLogits := ws.Get(st.Logits.Rows, st.Logits.Cols)
	tensor.SoftmaxCrossEntropy(dLogits, st.Logits, mb.Labels)
	backwardOracle(m, ws, st, dLogits, grads)
}

func requireBitwise(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %x (%g), oracle has %x (%g)", what, i,
				math.Float32bits(v), v, math.Float32bits(want.Data[i]), want.Data[i])
		}
	}
}

// TestBackwardOracleBitwise is the gate on ending the backward pass at the
// first layer's weights: over every model kind, 1–3 layers, kernel
// parallelism 1|3|4 and every SIMD tier the CPU has, on generated mini-batches
// (incl. a one-layer model, zero-degree destinations and edgeless blocks in
// every position), each parameter gradient must equal the full-depth
// oracle's bit for bit — the skipped layer-0 work fed nothing. The small
// shapes run on the caller at any parallelism; the last one is sized above
// the fan-out grain (asserted) so the parallel legs compare the chunked
// kernels and the transposed scatter, and runs on those legs only, at the
// top SIMD tier (row chunking does not depend on the lane width).
func TestBackwardOracleBitwise(t *testing.T) {
	shapes := []struct {
		dims    []int
		maxDeg  []int
		targets int
	}{
		{[]int{7, 4}, []int{5}, 11},       // one layer: backward is TMatMul + BiasGrad only
		{[]int{7, 4}, []int{0}, 14},       // one layer, no edges
		{[]int{9, 8, 5}, []int{6, 3}, 17}, // the paper's depth
		{[]int{9, 8, 5}, []int{0, 4}, 20}, // edgeless input block
		{[]int{9, 8, 5}, []int{4, 0}, 23}, // edgeless output block
		{[]int{5, 12, 6, 3}, []int{3, 2, 4}, 26},
		{[]int{5, 12, 6, 3}, []int{2, 0, 3}, 29}, // edgeless middle block
		{[]int{96, 96, 32}, []int{60, 80}, 1600}, // above the fan-out grain
	}
	prevLvl, prevPar := tensor.ActiveSIMDLevel(), tensor.Parallelism()
	t.Cleanup(func() {
		tensor.SetSIMDLevel(prevLvl)
		tensor.SetParallelism(prevPar)
	})
	for lvl := tensor.SIMDGeneric; lvl <= tensor.DetectedSIMDLevel(); lvl++ {
		if _, err := tensor.SetSIMDLevel(lvl); err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 3, 4} {
			tensor.SetParallelism(par)
			for _, kind := range allKinds {
				for si, sh := range shapes {
					fansOut := si == len(shapes)-1
					if fansOut && (par == 1 || lvl != tensor.DetectedSIMDLevel()) {
						continue
					}
					name := fmt.Sprintf("%v/par%d/%v/shape%d", lvl, par, kind, si)
					rng := tensor.NewRNG(uint64(1000*int(kind) + si))
					mb := chainedBatch(rng, sh.targets, sh.maxDeg, sh.dims[len(sh.dims)-1])
					x := tensor.New(len(mb.InputNodes()), sh.dims[0])
					tensor.NormalInit(x, 1, rng)
					m, err := NewModel(Config{Kind: kind, Dims: sh.dims, GINEps: 0.1}, rng)
					if err != nil {
						t.Fatal(err)
					}
					if fansOut {
						requireStepFansOut(t, m.Cfg, mb)
					}
					want := NewGradients(m.Params)
					oracleStep(t, m, tensor.NewWorkspace(), mb, x, want)
					got := NewGradients(m.Params)
					for i := range got.Weights { // every element must be overwritten
						got.Weights[i].Fill(float32(math.NaN()))
						got.Biases[i].Fill(float32(math.NaN()))
					}
					if _, _, err := m.TrainStepWS(tensor.NewWorkspace(), &ForwardState{}, mb, x, got); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for l := range want.Weights {
						requireBitwise(t, fmt.Sprintf("%s: Weights[%d]", name, l), got.Weights[l], want.Weights[l])
						requireBitwise(t, fmt.Sprintf("%s: Biases[%d]", name, l), got.Biases[l], want.Biases[l])
					}
				}
			}
		}
	}
}

// stepBorrows lists what one training step borrows from its arena, as
// element counts per slab, over layers [from, L) of the backward pass — from
// is 1 for the shipped step and 0 for the oracle, whose extra three buffers
// (layer-0 dDense, the |V0|×f0 input gradient, SAGE's layer-0 dMean) are the
// memory the cut saved.
func stepBorrows(m *Model, mb *sampler.MiniBatch, from int) (f32, i32 []int) {
	L := m.Cfg.Layers()
	for l := 0; l < L; l++ {
		b := mb.Blocks[l]
		nd := len(b.Dst)
		f32 = append(f32, b.NumEdges(), nd, nd*m.Cfg.inDim(l), nd*m.Cfg.Dims[l+1]) // EdgeW, SelfW, dense, z
		if m.Cfg.Kind == SAGE {
			i32 = append(i32, nd) // self indices
		}
	}
	logits := len(mb.Targets) * m.Cfg.Dims[L]
	f32 = append(f32, logits, logits) // dLogits, dz
	for l := L - 1; l >= from; l-- {
		b := mb.Blocks[l]
		nd := len(b.Dst)
		f32 = append(f32, nd*m.Cfg.inDim(l), len(b.Src)*m.Cfg.Dims[l]) // dDense, dh
		if m.Cfg.Kind == SAGE {
			f32 = append(f32, nd*m.Cfg.Dims[l]) // dMean
		}
	}
	return f32, i32
}

// arenaHolding is the footprint an arena retains after a cycle that borrowed
// exactly these buffers.
func arenaHolding(f32, i32 []int) int64 {
	ws := tensor.NewWorkspace()
	for _, n := range f32 {
		ws.F32(n)
	}
	for _, n := range i32 {
		ws.I32(n)
	}
	ws.Reset()
	return ws.Bytes()
}

// TestBackwardOracleWorkspaceFootprint pins the memory half of the cut, and of
// dropping the ReLU masks, on exact bytes: after a training step its arena
// retains precisely what a cycle of the buffers stepBorrows lists retains —
// no |V0|×f0 input-gradient buffer, no layer-0 dDense/dMean, no mask per
// hidden layer — the oracle's retains precisely that plus the layer-0 three,
// and a second, warm step changes nothing.
func TestBackwardOracleWorkspaceFootprint(t *testing.T) {
	prev := tensor.SetParallelism(1) // keep the transposed scatter lists out of the arithmetic
	defer tensor.SetParallelism(prev)
	for _, kind := range allKinds {
		dims := []int{24, 8, 5}
		fx := makeFixture(t, dims, 16, 21)
		m, err := NewModel(Config{Kind: kind, Dims: dims}, tensor.NewRNG(4))
		if err != nil {
			t.Fatal(err)
		}
		grads := NewGradients(m.Params)
		oracleWS := tensor.NewWorkspace()
		oracleStep(t, m, oracleWS, fx.mb, fx.x, grads)
		oracleWS.Reset()
		if got, want := oracleWS.Bytes(), arenaHolding(stepBorrows(m, fx.mb, 0)); got != want {
			t.Fatalf("%v: the oracle's arena holds %d B, its buffers come to %d B", kind, got, want)
		}

		want := arenaHolding(stepBorrows(m, fx.mb, 1))
		if inputGrad := int64(len(fx.mb.Blocks[0].Src)) * int64(dims[0]) * 4; oracleWS.Bytes()-want < inputGrad {
			t.Fatalf("%v: %d B against the oracle's %d B saves less than the %d B input-gradient buffer",
				kind, want, oracleWS.Bytes(), inputGrad)
		}
		ws, st := tensor.NewWorkspace(), &ForwardState{}
		for iter := 0; iter < 2; iter++ {
			if _, _, err := m.TrainStepWS(ws, st, fx.mb, fx.x, grads); err != nil {
				t.Fatal(err)
			}
			ws.Reset()
			if got := ws.Bytes(); got != want {
				t.Fatalf("%v iter %d: arena holds %d B, the step's buffers come to %d B", kind, iter, got, want)
			}
		}
	}
}

package gnn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sampler"
	"repro/internal/tensor"
)

// backwardOracle is backwardWS as it stood before the backward pass was cut
// off at the first layer's weights, kept verbatim as the reference the
// shipped pass is pinned against: at every layer — including l == 0 — it
// forms dDense, clears a |Src|×fin dh, and scatters through the block, so it
// also computes ∂L/∂X of the input features that nothing consumes. Its ReLU
// backward is the one the forward pass used to feed with a stored mask: the
// 0/1 matrix is rebuilt here from the retained activation and multiplied in
// element by element, which is what tensor.ReLUBackward must equal. SAGE's
// dense input, which the forward pass no longer forms, is rebuilt here as
// [self ‖ mean] (denseInput).
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
		tensor.TMatMul(grads.Weights[l], denseInput(m, st, l), dz)
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

// denseInput is layer l's dense-update input as the forward pass used to
// store it: the aggregate for GCN and, for SAGE, [self ‖ mean] — each
// destination's row of the layer input (through layer 0's row map) beside
// its aggregate — in freshly allocated memory, so the oracle's arena is what
// it was.
func denseInput(m *Model, st *ForwardState, l int) *tensor.Matrix {
	agg := st.aggs[l]
	if m.Cfg.Kind != SAGE {
		return agg
	}
	in, fin := st.nbs[l].in, agg.Cols
	dense := tensor.New(agg.Rows, 2*fin)
	for d := 0; d < agg.Rows; d++ {
		self := d
		if in != nil {
			self = int(in[d])
		}
		copy(dense.Row(d), st.inputs[l].Row(self))
		copy(dense.Row(d)[fin:], agg.Row(d))
	}
	return dense
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

// oracleStep is TrainStepWS with backwardOracle in place of backwardWS.
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
// first layer's weights and on running the hidden layers' backward in place:
// over every model kind, 1–3 layers, kernel parallelism 1|3|4 and every SIMD
// tier the CPU has, on generated mini-batches (incl. a one-layer model,
// zero-degree destinations and edgeless blocks in every position), each
// parameter gradient must equal the full-depth oracle's bit for bit — the
// skipped layer-0 work fed nothing, and neither the bit mask, the split
// dDense nor the reuse of each activation's buffer changed a bit. The planted
// shapes put ±Inf and NaN into the features and non-finite values into the
// weights (plantNonFinite), so the ReLU backward multiplies NaN and negative
// gradients by a masked-out 0 (NaN and −0 products, both asserted to occur).
// The small shapes run on the caller at any parallelism; the fansOut one is
// sized above the fan-out grain (asserted) so the parallel legs compare the
// chunked kernels and the transposed scatter, and runs on those legs only,
// at the top SIMD tier (row chunking does not depend on the lane width).
func TestBackwardOracleBitwise(t *testing.T) {
	shapes := []struct {
		dims    []int
		maxDeg  []int
		targets int
		planted bool // ±Inf / NaN in x and the weights
		fansOut bool // above the fan-out grain
	}{
		{[]int{7, 4}, []int{5}, 11, false, false},       // one layer: backward is TMatMul + BiasGrad only
		{[]int{7, 4}, []int{0}, 14, false, false},       // one layer, no edges
		{[]int{9, 8, 5}, []int{6, 3}, 17, false, false}, // the paper's depth
		{[]int{9, 8, 5}, []int{0, 4}, 20, false, false}, // edgeless input block
		{[]int{9, 8, 5}, []int{4, 0}, 23, false, false}, // edgeless output block
		{[]int{5, 12, 6, 3}, []int{3, 2, 4}, 26, false, false},
		{[]int{5, 12, 6, 3}, []int{2, 0, 3}, 29, false, false}, // edgeless middle block
		{[]int{96, 96, 32}, []int{60, 80}, 1600, false, true},  // above the fan-out grain
		{[]int{9, 40, 5}, []int{6, 3}, 60, true, false},        // non-finite, the paper's depth
		{[]int{5, 36, 12, 3}, []int{3, 2, 4}, 50, true, false}, // non-finite, two hidden layers
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
					if sh.fansOut && (par == 1 || lvl != tensor.DetectedSIMDLevel()) {
						continue
					}
					name := fmt.Sprintf("%v/par%d/%v/shape%d", lvl, par, kind, si)
					rng := tensor.NewRNG(uint64(1000*int(kind) + si))
					mb := chainedBatch(rng, sh.targets, sh.maxDeg, sh.dims[len(sh.dims)-1])
					x := tensor.New(len(mb.InputNodes()), sh.dims[0])
					tensor.NormalInit(x, 1, rng)
					m, err := NewModel(Config{Kind: kind, Dims: sh.dims}, rng)
					if err != nil {
						t.Fatal(err)
					}
					if sh.fansOut {
						requireStepFansOut(t, m.Cfg, mb)
					}
					if sh.planted {
						plantNonFinite(rng, x, m.Params.Weights)
					}
					want := NewGradients(m.Params)
					oracleStep(t, m, tensor.NewWorkspace(), mb, x, want)
					got := NewGradients(m.Params)
					for i := range got.Weights { // every element must be overwritten
						got.Weights[i].Fill(float32(math.NaN()))
						got.Biases[i].Fill(float32(math.NaN()))
					}
					st := &ForwardState{}
					if _, _, err := m.TrainStepWS(tensor.NewWorkspace(), st, mb, x, got); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for l := range want.Weights {
						requireBitwise(t, fmt.Sprintf("%s: Weights[%d]", name, l), got.Weights[l], want.Weights[l])
						requireBitwise(t, fmt.Sprintf("%s: Biases[%d]", name, l), got.Biases[l], want.Biases[l])
					}
					if sh.planted {
						requireMaskedNonFinite(t, name, m, mb, x, st)
					}
				}
			}
		}
	}
}

// plantNonFinite overwrites about one feature row in six with +Inf, −Inf or
// NaN in one column, a few first-layer weights with NaN, and one weight of
// every hidden-to-hidden layer with −Inf. A NaN weight makes its output
// column NaN before the ReLU, which masks it out. A non-finite feature turns
// the rows it reaches into ±Inf and, one layer on, into NaN; in a two-layer
// model that NaN reaches the logits of the targets it touches, so NaN
// gradients flow back into lanes the mask zeroes. Deeper, the NaN is masked
// out first; there a −Inf weight of layer l (whose input is nonnegative)
// masks its output column instead, and its masked-out 0 gradient times −Inf
// sends a NaN column down into layer l−1's ReLU backward.
func plantNonFinite(rng *tensor.RNG, x *tensor.Matrix, w []*tensor.Matrix) {
	vals := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for r := 0; r < x.Rows; r++ {
		if rng.Intn(6) == 0 {
			x.Row(r)[rng.Intn(x.Cols)] = vals[rng.Intn(len(vals))]
		}
	}
	for i := 0; i < 2; i++ {
		w[0].Data[rng.Intn(len(w[0].Data))] = float32(math.NaN())
	}
	for l := 1; l < len(w)-1; l++ {
		w[l].Data[rng.Intn(len(w[l].Data))] = float32(math.Inf(-1))
	}
}

// requireMaskedNonFinite requires the planted leg to have multiplied a NaN
// and a negative gradient by a masked-out 0 at the first hidden layer. After
// backwardWS, st.inputs[1] holds that layer's gradient past its ReLU (the
// activation's buffer is where it was accumulated); a fresh forward pass
// gives the activation whose mask selected the lanes. A NaN there on a
// masked lane is NaN·0, and −0 can only be a negative gradient times 0.
func requireMaskedNonFinite(t *testing.T, name string, m *Model, mb *sampler.MiniBatch, x *tensor.Matrix, st *ForwardState) {
	t.Helper()
	ref := &ForwardState{}
	if err := m.forwardWS(tensor.NewWorkspace(), ref, mb, x, nil); err != nil {
		t.Fatal(err)
	}
	nan, negZero := 0, 0
	for i, a := range ref.inputs[1].Data {
		if a > 0 {
			continue
		}
		switch g := st.inputs[1].Data[i]; {
		case g != g:
			nan++
		case math.Float32bits(g) == 0x8000_0000:
			negZero++
		}
	}
	if nan == 0 || negZero == 0 {
		t.Fatalf("%s: the masked-out lanes of the first hidden layer hold %d NaN and %d −0 gradients; the planted leg needs both",
			name, nan, negZero)
	}
}

// stepBorrows lists what one training step borrows from its arena, as
// element counts per slab: the shipped step's when oracle is false, and
// backwardOracle's when it is true. Both run the same forward pass — per
// layer the coefficients (GCN's Eq. 3 factors are a transient borrow, never
// the cycle's peak here), the |Dst|×fin aggregate and the output; SAGE's self
// half is read from the layer input, so no [self ‖ mean] buffer and no self
// index list — and borrow dLogits. The oracle then copies dLogits into dz
// and, at every layer — layer 0 included — borrows dDense, a zeroed
// |Src|×fin dh and, for SAGE, dMean beside dDense. The shipped pass stops
// above layer 0 and at each hidden layer l ≥ 1 borrows only the ReLU bits of
// its input (⌈|Src|·fin/32⌉ int32 words; dh is the input's own buffer) and
// one |Dst|×fin matrix: GCN's dDense, or SAGE's dMean (the self half of
// dDense is written into dh).
func stepBorrows(m *Model, mb *sampler.MiniBatch, oracle bool) (f32, i32 []int) {
	L := m.Cfg.Layers()
	for l := 0; l < L; l++ {
		b := mb.Blocks[l]
		nd := len(b.Dst)
		f32 = append(f32, b.NumEdges(), nd, nd*m.Cfg.Dims[l], nd*m.Cfg.Dims[l+1]) // EdgeW, SelfW, agg, z
	}
	logits := len(mb.Targets) * m.Cfg.Dims[L]
	f32 = append(f32, logits) // dLogits
	if oracle {
		f32 = append(f32, logits) // dz
	}
	for l := L - 1; l >= 0; l-- {
		b := mb.Blocks[l]
		nd, fin := len(b.Dst), m.Cfg.Dims[l]
		switch {
		case oracle:
			f32 = append(f32, nd*m.Cfg.inDim(l), len(b.Src)*fin) // dDense, dh
			if m.Cfg.Kind == SAGE {
				f32 = append(f32, nd*fin) // dMean
			}
		case l > 0:
			i32 = append(i32, maskWords(b, fin))
			f32 = append(f32, nd*fin) // GCN's dDense, SAGE's dMean
		}
	}
	return f32, i32
}

// maskWords is the int32 words the ReLU bits of a block's |Src|×fin input
// take.
func maskWords(b *sampler.Block, fin int) int { return (len(b.Src)*fin + 31) / 32 }

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

// TestBackwardOracleWorkspaceFootprint pins the memory of the backward pass on
// exact bytes: after a training step its arena retains precisely what a cycle
// of the buffers stepBorrows lists retains — no |V0|×f0 input-gradient
// buffer, no layer-0 dDense/dMean, no float mask per hidden layer, no
// gradient buffer beside any hidden activation, no dDense beside SAGE's dMean
// and no copy of dLogits — the oracle's retains precisely its own list, and a
// second, warm step changes nothing. The oracle's arena must also exceed the
// step's by at least layer 0's input gradient and dDense, the dz copy and
// every hidden layer's |Src|×fin gradient less its mask words, so a step that
// borrowed any of those buffers again fails here even if stepBorrows were
// edited to match.
func TestBackwardOracleWorkspaceFootprint(t *testing.T) {
	prev := tensor.SetParallelism(1) // keep the transposed scatter lists out of the arithmetic
	defer tensor.SetParallelism(prev)
	for _, kind := range allKinds {
		for _, dims := range [][]int{{24, 8, 5}, {24, 40, 12, 5}} {
			L := len(dims) - 1
			fx := makeFixture(t, dims, 16, 21)
			m, err := NewModel(Config{Kind: kind, Dims: dims}, tensor.NewRNG(4))
			if err != nil {
				t.Fatal(err)
			}
			grads := NewGradients(m.Params)
			oracleWS := tensor.NewWorkspace()
			oracleStep(t, m, oracleWS, fx.mb, fx.x, grads)
			oracleWS.Reset()
			if got, want := oracleWS.Bytes(), arenaHolding(stepBorrows(m, fx.mb, true)); got != want {
				t.Fatalf("%v L=%d: the oracle's arena holds %d B, its buffers come to %d B", kind, L, got, want)
			}

			want := arenaHolding(stepBorrows(m, fx.mb, false))
			b0 := fx.mb.Blocks[0]
			saved := int64(len(b0.Src))*int64(dims[0]) + int64(len(b0.Dst))*int64(m.Cfg.inDim(0)) +
				int64(len(fx.mb.Targets))*int64(dims[L]) // layer 0's dh and dDense, the dz copy
			for l := 1; l < L; l++ {
				b := fx.mb.Blocks[l]
				saved += int64(len(b.Src))*int64(dims[l]) - int64(maskWords(b, dims[l]))
			}
			// Both arenas retain their demand plus an eighth, each slab rounded
			// to a cache line (64 B).
			if oracleWS.Bytes()-want < 4*saved*9/8-2*64 {
				t.Fatalf("%v L=%d: %d B against the oracle's %d B saves less than the %d B of layer 0's buffers, the dz copy and the hidden gradient buffers",
					kind, L, want, oracleWS.Bytes(), 4*saved*9/8-2*64)
			}
			ws, st := tensor.NewWorkspace(), &ForwardState{}
			for iter := 0; iter < 2; iter++ {
				if _, _, err := m.TrainStepWS(ws, st, fx.mb, fx.x, grads); err != nil {
					t.Fatal(err)
				}
				ws.Reset()
				if got := ws.Bytes(); got != want {
					t.Fatalf("%v L=%d iter %d: arena holds %d B, the step's buffers come to %d B", kind, L, iter, got, want)
				}
			}
		}
	}
}

// TestBackwardWSConsumesForwardState pins the once-only contract of a forward
// state: backwardWS overwrites the hidden activations it reads, so a second
// call on the same state — or a call on a state no forward pass filled —
// must fail instead of computing gradients from masks that are gone, and a
// new forward pass re-arms the state to reproduce the first gradients bit for
// bit, dLogits untouched throughout.
func TestBackwardWSConsumesForwardState(t *testing.T) {
	for _, kind := range allKinds {
		for _, dims := range [][]int{{24, 4}, {24, 8, 5}, {24, 12, 8, 5}} {
			fx := makeFixture(t, dims, 16, 21)
			m, err := NewModel(Config{Kind: kind, Dims: dims}, tensor.NewRNG(4))
			if err != nil {
				t.Fatal(err)
			}
			ws, st := tensor.NewWorkspace(), &ForwardState{}
			if err := m.backwardWS(ws, st, tensor.New(16, dims[len(dims)-1]), NewGradients(m.Params)); err == nil {
				t.Fatalf("%v %v: BackwardWS on a state no forward pass filled succeeded", kind, dims)
			}
			first, again := NewGradients(m.Params), NewGradients(m.Params)
			if err := m.forwardWS(ws, st, fx.mb, fx.x, nil); err != nil {
				t.Fatal(err)
			}
			dLogits := ws.Get(st.Logits.Rows, st.Logits.Cols)
			tensor.SoftmaxCrossEntropy(dLogits, st.Logits, fx.mb.Labels)
			saved := dLogits.Clone()
			if err := m.backwardWS(ws, st, dLogits, first); err != nil {
				t.Fatal(err)
			}
			requireBitwise(t, fmt.Sprintf("%v %v: dLogits after BackwardWS", kind, dims), dLogits, saved)
			if err := m.backwardWS(ws, st, dLogits, again); err == nil {
				t.Fatalf("%v %v: a second BackwardWS on a consumed state succeeded", kind, dims)
			}
			if err := m.forwardWS(ws, st, fx.mb, fx.x, nil); err != nil {
				t.Fatal(err)
			}
			if err := m.backwardWS(ws, st, dLogits, again); err != nil {
				t.Fatalf("%v %v: BackwardWS after a new forward pass: %v", kind, dims, err)
			}
			for l := range first.Weights {
				requireBitwise(t, fmt.Sprintf("%v %v: Weights[%d]", kind, dims, l), again.Weights[l], first.Weights[l])
				requireBitwise(t, fmt.Sprintf("%v %v: Biases[%d]", kind, dims, l), again.Biases[l], first.Biases[l])
			}
		}
	}
}

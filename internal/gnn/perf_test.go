package gnn

import (
	"testing"

	"repro/internal/sampler"
	"repro/internal/tensor"
)

var allKinds = []Kind{GCN, SAGE, GIN}

// raggedBlock builds a deliberately irregular block: zero-degree
// destinations, duplicate (src, dst) edges, self loops, and shared sources —
// every scatter hazard the parallel backward must survive.
func raggedBlock(rng *tensor.RNG, nDst, extraSrc, maxDeg int) *sampler.Block {
	nSrc := nDst + extraSrc
	src := make([]int32, nSrc)
	for i := range src {
		src[i] = int32(i * 7) // global IDs are arbitrary; Dst must prefix Src
	}
	b := &sampler.Block{Src: src, Dst: src[:nDst], RowPtr: make([]int32, nDst+1)}
	for d := 0; d < nDst; d++ {
		deg := rng.Intn(maxDeg + 1) // 0 hits the zero-degree path
		for e := 0; e < deg; e++ {
			s := int32(rng.Intn(nSrc))
			if e > 0 && rng.Intn(4) == 0 {
				s = b.Col[len(b.Col)-1] // duplicate edge
			}
			if rng.Intn(8) == 0 {
				s = int32(d) // self loop
			}
			b.Col = append(b.Col, s)
		}
		b.RowPtr[d+1] = int32(len(b.Col))
	}
	return b
}

// fanOutBlock is a raggedBlock big enough that both aggregation directions
// sit three fan-out grains up at ≥ 250 columns (≈ 2k destinations, ≈ 28k
// edges), so parallelism 3 and up splits them into three uneven chunks.
func fanOutBlock(rng *tensor.RNG) *sampler.Block {
	return raggedBlock(rng, 2000+rng.Intn(30), rng.Intn(2000), 28)
}

// requireScatterFansOut requires AggregateBackward over nb at cols columns to
// take the transposed-gather path at the current parallelism.
func requireScatterFansOut(t *testing.T, nb *Neighborhood, cols int) {
	t.Helper()
	rows := len(nb.Block.Src)
	requireFansOut(t, "scatter", rows, nb.workPerRow(rows, cols))
}

// TestAggregateBackwardParallelExactlyMatchesSerial is the correctness gate
// for the parallel backward scatter: across all model kinds and ragged
// blocks, the transposed-gather parallel path must equal the serial
// destination-major scatter bit for bit (not approximately — the transpose
// preserves each source's accumulation order exactly), at several worker
// counts, including an uneven split (3) and workers ≫ chunks (64). Every
// block is sized above the fan-out grain and asserted to be, or the parallel
// legs would run the serial scatter against itself.
func TestAggregateBackwardParallelExactlyMatchesSerial(t *testing.T) {
	rng := tensor.NewRNG(99)
	for _, kind := range allKinds {
		for trial := 0; trial < 2; trial++ {
			b := fanOutBlock(rng)
			if err := b.Validate(); err != nil {
				t.Fatalf("%v trial %d: bad fixture: %v", kind, trial, err)
			}
			cfg := Config{Kind: kind, Dims: []int{5, 3}, GINEps: 0.3}
			nb := NewNeighborhood(cfg, b)
			cols := 250 + rng.Intn(9) // odd widths exercise the SIMD tails
			dAgg := tensor.New(len(b.Dst), cols)
			tensor.NormalInit(dAgg, 1, rng)

			want := tensor.New(len(b.Src), cols)
			nb.AggregateBackwardSerial(want, dAgg)

			for _, par := range []int{2, 3, 4, 64} {
				prev := tensor.SetParallelism(par)
				requireScatterFansOut(t, nb, cols)
				got := tensor.New(len(b.Src), cols)
				// Fresh neighborhood per parallelism level so the transpose
				// build itself is covered each time.
				NewNeighborhood(cfg, b).AggregateBackward(got, dAgg)
				tensor.SetParallelism(prev)
				if !got.Equal(want) {
					t.Fatalf("%v trial %d par=%d: parallel scatter differs from serial (max diff %g)",
						kind, trial, par, got.MaxAbsDiff(want))
				}
			}
		}
	}
}

// TestAggregateBackwardSerialFallback covers the below-the-grain dispatch in
// AggregateBackward: whatever the parallelism, a scatter too small to fan out
// is the serial scatter and builds no transpose.
func TestAggregateBackwardSerialFallback(t *testing.T) {
	for _, par := range []int{1, 4} {
		prev := tensor.SetParallelism(par)
		rng := tensor.NewRNG(5)
		b := raggedBlock(rng, 12, 9, 4)
		cfg := Config{Kind: GCN, Dims: []int{4, 2}}
		nb := NewNeighborhood(cfg, b)
		dAgg := tensor.New(len(b.Dst), 4)
		tensor.NormalInit(dAgg, 1, rng)
		got := tensor.New(len(b.Src), 4)
		nb.AggregateBackward(got, dAgg)
		tensor.SetParallelism(prev)
		want := tensor.New(len(b.Src), 4)
		nb.AggregateBackwardSerial(want, dAgg)
		if !got.Equal(want) {
			t.Fatalf("par=%d: below-the-grain AggregateBackward must equal the serial scatter", par)
		}
		if nb.tPtr != nil {
			t.Fatalf("par=%d: below-the-grain path should not build the transpose", par)
		}
	}
}

// TestWSPathsMatchLegacy pins arena reuse to a fresh arena: same
// mini-batch, same parameters — losses, every gradient and the inference
// logits must be bit-identical between a step on a fresh arena and state and
// two consecutive iterations through one reused arena and state.
func TestWSPathsMatchLegacy(t *testing.T) {
	for _, kind := range allKinds {
		dims := []int{6, 8, 5}
		fx := makeFixture(t, dims, 12, uint64(3+int(kind)))
		m, err := NewModel(Config{Kind: kind, Dims: dims, GINEps: 0.1}, tensor.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		wantGrads, wantLoss, wantAcc, err := trainStep(m, fx.mb, fx.x)
		if err != nil {
			t.Fatal(err)
		}
		ws := tensor.NewWorkspace()
		st := &ForwardState{}
		grads := NewGradients(m.Params)
		for iter := 0; iter < 2; iter++ { // second pass runs entirely on reused buffers
			ws.Reset()
			loss, acc, err := m.TrainStepWS(ws, st, fx.mb, fx.x, grads)
			if err != nil {
				t.Fatal(err)
			}
			if loss != wantLoss || acc != wantAcc {
				t.Fatalf("%v iter %d: loss/acc %v/%v, want %v/%v", kind, iter, loss, acc, wantLoss, wantAcc)
			}
			if d := grads.MaxAbsDiff(wantGrads); d != 0 {
				t.Fatalf("%v iter %d: reused-arena gradients differ from a fresh arena's by %g", kind, iter, d)
			}
		}

		// So does inference, on the arena the training steps used.
		fresh, err := m.InferMiniBatchWS(tensor.NewWorkspace(), fx.mb, fx.x)
		if err != nil {
			t.Fatal(err)
		}
		ws.Reset()
		wsLogits, err := m.InferMiniBatchWS(ws, fx.mb, fx.x)
		if err != nil {
			t.Fatal(err)
		}
		if !wsLogits.Equal(fresh) {
			t.Fatalf("%v: InferMiniBatchWS on a reused arena differs from a fresh one", kind)
		}
	}
}

// TestTrainStepWSZeroAllocs is the training-side allocation gate: once the
// arena has grown, a steady-state step allocates nothing — over a gathered
// block (TrainStepWS) and over the feature table in place (TrainStepRowsWS,
// whose mapped row list comes from the arena), at kernel parallelism 1 and,
// the batch being far below the fan-out grain, at 4 too (no goroutine,
// closure or transposed scatter list for kernels this small).
func TestTrainStepWSZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation bypasses sync.Pool; allocation counts are nondeterministic")
	}
	for _, par := range []int{1, 4} {
		prev := tensor.SetParallelism(par)
		for _, kind := range allKinds {
			dims := []int{6, 8, 5}
			fx := makeFixture(t, dims, 16, 17)
			m, err := NewModel(Config{Kind: kind, Dims: dims}, tensor.NewRNG(2))
			if err != nil {
				t.Fatal(err)
			}
			for _, inPlace := range []bool{false, true} {
				x, rows := fx.input(inPlace)
				ws := tensor.NewWorkspace()
				st := &ForwardState{}
				grads := NewGradients(m.Params)
				step := func() {
					ws.Reset()
					if _, _, err := m.TrainStepRowsWS(ws, st, fx.mb, x, rows, grads); err != nil {
						t.Fatal(err)
					}
				}
				step() // grow the arena
				if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
					t.Fatalf("%v par=%d in-place=%v: steady-state training step allocated %v times per run",
						kind, par, inPlace, allocs)
				}
			}
		}
		tensor.SetParallelism(prev)
	}
}

// TestInferMiniBatchWSZeroAllocs is the serving-side allocation gate, over
// both input forms and at kernel parallelism 1 and 4 alike: a serving batch
// is below the grain.
func TestInferMiniBatchWSZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation bypasses sync.Pool; allocation counts are nondeterministic")
	}
	for _, par := range []int{1, 4} {
		prev := tensor.SetParallelism(par)
		for _, kind := range allKinds {
			dims := []int{6, 8, 5}
			fx := makeFixture(t, dims, 16, 23)
			m, err := NewModel(Config{Kind: kind, Dims: dims}, tensor.NewRNG(2))
			if err != nil {
				t.Fatal(err)
			}
			for _, inPlace := range []bool{false, true} {
				x, rows := fx.input(inPlace)
				ws := tensor.NewWorkspace()
				batch := func() {
					ws.Reset()
					if _, err := m.InferMiniBatchRowsWS(ws, fx.mb, x, rows); err != nil {
						t.Fatal(err)
					}
				}
				batch()
				if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
					t.Fatalf("%v par=%d in-place=%v: steady-state inference batch allocated %v times per run",
						kind, par, inPlace, allocs)
				}
			}
		}
		tensor.SetParallelism(prev)
	}
}

// TestSmallKernelZeroAlloc is the per-kernel form of the two gates above:
// on a 32-target block at paper-width features, Aggregate and
// AggregateBackward run on the caller at parallelism 4 and allocate nothing
// (the scatter builds no transposed list).
func TestSmallKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation bypasses sync.Pool; allocation counts are nondeterministic")
	}
	prev := tensor.SetParallelism(4)
	defer tensor.SetParallelism(prev)
	const cols = 100
	b := makeFixture(t, []int{cols, 8, 5}, 32, 29).mb.Blocks[1]
	for _, kind := range allKinds {
		nb := NewNeighborhood(Config{Kind: kind, Dims: []int{cols, 8, 5}}, b)
		h, out := tensor.New(len(b.Src), cols), tensor.New(len(b.Dst), cols)
		tensor.NormalInit(h, 1, tensor.NewRNG(1))
		if allocs := testing.AllocsPerRun(20, func() { nb.Aggregate(out, h) }); allocs != 0 {
			t.Errorf("%v: Aggregate over %d targets at parallelism 4 allocated %v times per call", kind, len(b.Dst), allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { nb.AggregateBackward(h, out) }); allocs != 0 {
			t.Errorf("%v: AggregateBackward over %d targets at parallelism 4 allocated %v times per call", kind, len(b.Dst), allocs)
		}
	}
}

// TestEdgeWeightsIntoReuse checks the reuse contract: dirty buffers are
// fully overwritten and the results match the allocating form.
func TestEdgeWeightsIntoReuse(t *testing.T) {
	rng := tensor.NewRNG(31)
	for _, kind := range allKinds {
		b := raggedBlock(rng, 10, 6, 4)
		cfg := Config{Kind: kind, Dims: []int{4, 2}, GINEps: 0.2}
		wantE, wantS := EdgeWeights(cfg, b)
		edgeW := make([]float32, b.NumEdges())
		selfW := make([]float32, len(b.Dst))
		for i := range edgeW {
			edgeW[i] = 99
		}
		for i := range selfW {
			selfW[i] = 99
		}
		gotE, gotS := edgeWeightsInto(cfg, b, edgeW, selfW)
		for i := range wantE {
			if gotE[i] != wantE[i] {
				t.Fatalf("%v: edge weight %d differs", kind, i)
			}
		}
		for i := range wantS {
			if gotS[i] != wantS[i] {
				t.Fatalf("%v: self weight %d differs", kind, i)
			}
		}
	}
}

// TestNeighborhoodResetInvalidatesTranspose pins the invalidation contract
// of the cached transposed contribution list: every re-bind through init —
// to the same block mutated in place, or to another block, as ForwardState
// does per layer and iteration — drops it, or the parallel backward would
// gather through the previous graph's index.
func TestNeighborhoodResetInvalidatesTranspose(t *testing.T) {
	rng := tensor.NewRNG(41)
	cfg := Config{Kind: GCN, Dims: []int{5, 3}}
	b := fanOutBlock(rng)
	nb := NewNeighborhood(cfg, b)

	cols := 257
	dAgg := tensor.New(len(b.Dst), cols)
	tensor.NormalInit(dAgg, 1, rng)

	prev := tensor.SetParallelism(4)
	defer tensor.SetParallelism(prev)

	// First backward builds and caches the transpose — the serial scatter a
	// small block takes never would, and the test would pass with the
	// invalidation deleted.
	requireScatterFansOut(t, nb, cols)
	got := tensor.New(len(b.Src), cols)
	nb.AggregateBackward(got, dAgg)
	if nb.tPtr == nil {
		t.Fatal("the fanned-out backward did not cache a transpose")
	}

	// Mutate the block in place: rewire every destination's first edge to
	// source 0. Without invalidation the cached transpose still scatters to
	// the old sources.
	for d := 0; d < len(b.Dst); d++ {
		if b.RowPtr[d+1] > b.RowPtr[d] {
			b.Col[b.RowPtr[d]] = 0
		}
	}
	// Re-binding to the same block pointer recomputes the coefficients and
	// must rebuild the transpose.
	nb.init(cfg, b, nil)
	requireScatterFansOut(t, nb, cols)
	got2 := tensor.New(len(b.Src), cols)
	nb.AggregateBackward(got2, dAgg)

	want := tensor.New(len(b.Src), cols)
	NewNeighborhood(cfg, b).AggregateBackwardSerial(want, dAgg)
	if !got2.Equal(want) {
		t.Fatalf("after re-binding the mutated block the parallel backward still used the stale transpose (max diff %g)",
			got2.MaxAbsDiff(want))
	}

	// And re-binding to another block.
	nb.AggregateBackward(tensor.New(len(b.Src), cols), dAgg) // re-cache
	b2 := fanOutBlock(rng)
	nb.init(cfg, b2, nil)
	requireScatterFansOut(t, nb, cols)
	dAgg2 := tensor.New(len(b2.Dst), cols)
	tensor.NormalInit(dAgg2, 1, rng)
	got3 := tensor.New(len(b2.Src), cols)
	nb.AggregateBackward(got3, dAgg2)
	want3 := tensor.New(len(b2.Src), cols)
	NewNeighborhood(cfg, b2).AggregateBackwardSerial(want3, dAgg2)
	if !got3.Equal(want3) {
		t.Fatal("init re-bind did not invalidate the cached transpose")
	}
}

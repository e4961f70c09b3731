package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randomGraph(t *testing.T, n, m int, seed uint64) *Graph {
	t.Helper()
	rng := tensor.NewRNG(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionValidation(t *testing.T) {
	g := randomGraph(t, 50, 200, 1)
	if _, err := PartitionGreedyBFS(g, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := PartitionGreedyBFS(g, 100); err == nil {
		t.Fatal("expected error for k > n")
	}
}

func TestPartitionCoversAllVertices(t *testing.T) {
	g := randomGraph(t, 300, 1500, 2)
	p, err := PartitionGreedyBFS(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range p.Sizes {
		total += s
		if s == 0 {
			t.Fatal("empty part")
		}
	}
	if total != 300 {
		t.Fatalf("assigned %d of 300", total)
	}
}

func TestPartitionBalance(t *testing.T) {
	g := randomGraph(t, 400, 2400, 3)
	p, err := PartitionGreedyBFS(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b := p.Balance(); b > 1.2 {
		t.Fatalf("balance %v — parts too uneven", b)
	}
}

func TestSinglePartHasNoCut(t *testing.T) {
	g := randomGraph(t, 100, 500, 4)
	p, err := PartitionGreedyBFS(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cut := p.EdgeCutFraction(g); cut != 0 {
		t.Fatalf("1-part cut = %v", cut)
	}
}

// Region-growing must beat random assignment on cut quality.
func TestGreedyBeatsRandomCut(t *testing.T) {
	rng := tensor.NewRNG(5)
	// A graph with locality: ring plus random chords.
	n := 600
	var edges []Edge
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{Src: int32(i), Dst: int32((i + 1) % n)})
		edges = append(edges, Edge{Src: int32(i), Dst: int32((i + 2) % n)})
	}
	for i := 0; i < n/2; i++ {
		edges = append(edges, Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PartitionGreedyBFS(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	greedy := p.EdgeCutFraction(g)

	random := &Partition{K: 4, Assign: make([]int32, n), Sizes: make([]int64, 4)}
	for i := range random.Assign {
		random.Assign[i] = int32(rng.Intn(4))
		random.Sizes[random.Assign[i]]++
	}
	randCut := random.EdgeCutFraction(g)
	if greedy >= randCut {
		t.Fatalf("greedy cut %v not below random cut %v", greedy, randCut)
	}
}

// The cluster model assumes cuts around 0.2–0.4 for power-law graphs at
// k=4..8; verify the partitioner lands in a sane band on an RMAT-like graph.
func TestCutFractionBandOnSkewedGraph(t *testing.T) {
	g := randomGraph(t, 2000, 16000, 6) // uniform random: worst case ~ (k-1)/k
	p, err := PartitionGreedyBFS(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cut := p.EdgeCutFraction(g)
	if cut <= 0 || cut >= 0.95 {
		t.Fatalf("cut %v implausible", cut)
	}
}

// Property: any partition returned is valid and covers every vertex.
func TestPartitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 20 + rng.Intn(200)
		g := &Graph{NumVertices: n, RowPtr: make([]int64, n+1)}
		edges := make([]Edge, n*3)
		for i := range edges {
			edges[i] = Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
		}
		var err error
		g, err = FromEdges(n, edges)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(6)
		p, err := PartitionGreedyBFS(g, k)
		if err != nil {
			return false
		}
		return p.validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Edge cases the executing multi-node path (internal/cluster.MultiNode)
// depends on: partitioning must stay well-defined — and every metric
// finite — on degenerate graphs.

// A graph with no edges at all (every vertex isolated) must partition
// cleanly: the frontier never grows, so every assignment comes from the
// steal path, and the cut must be exactly 0, not NaN.
func TestEdgelessGraphPartition(t *testing.T) {
	g, err := FromEdges(50, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PartitionGreedyBFS(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if cut := p.EdgeCutFraction(g); cut != 0 {
		t.Fatalf("edgeless cut = %v, want exactly 0", cut)
	}
	if b := p.Balance(); math.IsNaN(b) || b < 1 || b > 2 {
		t.Fatalf("edgeless balance = %v", b)
	}
}

// Isolated vertices mixed into a connected graph must all be assigned and
// must not poison the cut computation.
func TestIsolatedVerticesPartition(t *testing.T) {
	// Vertices 0..59 form a ring; 60..99 are isolated.
	var edges []Edge
	for i := 0; i < 60; i++ {
		edges = append(edges, Edge{Src: int32(i), Dst: int32((i + 1) % 60)})
	}
	g, err := FromEdges(100, edges)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PartitionGreedyBFS(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	cut := p.EdgeCutFraction(g)
	if math.IsNaN(cut) || cut < 0 || cut > 1 {
		t.Fatalf("cut %v outside [0,1]", cut)
	}
}

// k == n: every vertex its own part — the extreme the region-grower must
// survive (all seeds, nothing to grow).
func TestOneVertexPerPart(t *testing.T) {
	g := randomGraph(t, 12, 40, 9)
	p, err := PartitionGreedyBFS(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if b := p.Balance(); b != 1 {
		t.Fatalf("one-vertex parts balance %v, want exactly 1", b)
	}
	for _, s := range p.Sizes {
		if s != 1 {
			t.Fatalf("part sizes %v, want all 1", p.Sizes)
		}
	}
}

// A hand-built partition with an empty part must keep every metric finite:
// the multi-node coordinator rejects such partitions, but the metrics it
// prints while doing so must not be NaN.
func TestEmptyPartMetricsFinite(t *testing.T) {
	g := randomGraph(t, 30, 120, 11)
	assign := make([]int32, 30)
	sizes := []int64{20, 10, 0} // part 2 empty
	for i := 20; i < 30; i++ {
		assign[i] = 1
	}
	p := &Partition{K: 3, Assign: assign, Sizes: sizes}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	cut := p.EdgeCutFraction(g)
	if math.IsNaN(cut) || cut < 0 || cut > 1 {
		t.Fatalf("cut %v with empty part", cut)
	}
	if b := p.Balance(); math.IsNaN(b) || math.IsInf(b, 0) {
		t.Fatalf("balance %v with empty part", b)
	}
}

// PartitionGreedyBFS must reject more parts than vertices — the guard the
// multi-node coordinator relies on when -nodes exceeds the graph.
func TestTooManyPartsRejected(t *testing.T) {
	g := randomGraph(t, 5, 10, 13)
	if _, err := PartitionGreedyBFS(g, 6); err == nil {
		t.Fatal("expected error for 6 parts of 5 vertices")
	}
}

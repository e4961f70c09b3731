package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

// rmatEdges draws m edges over 2^bits vertices by recursive quadrant choice
// (probabilities 0.57 / 0.19 / 0.19 / 0.05), so degrees are skewed and
// repeated edges common.
func rmatEdges(bits, m int, seed uint64) []Edge {
	rng := tensor.NewRNG(seed)
	edges := make([]Edge, m)
	for i := range edges {
		var s, d int32
		for l := 0; l < bits; l++ {
			u := rng.Float64()
			s, d = s<<1, d<<1
			switch {
			case u < 0.57:
			case u < 0.76:
				d |= 1
			case u < 0.95:
				s |= 1
			default:
				s, d = s|1, d|1
			}
		}
		edges[i] = Edge{Src: s, Dst: d}
	}
	return edges
}

// digestCase is one graph the partition digest covers.
type digestCase struct {
	name string
	n    int
	edge []Edge
}

func partitionDigestCases() []digestCase {
	big := rmatEdges(15, 400_000, 21)
	multi := rmatEdges(10, 6_000, 22)
	multi = append(multi, multi[:3_000]...) // every early edge twice
	return []digestCase{
		{"rmat", 1 << 15, big},
		{"rmat-isolated", 1<<15 + 5_000, big}, // 5 000 vertices no edge touches
		{"multi-edge", 1 << 10, multi},
		{"edgeless", 700, nil},
	}
}

// partitionDigests are the digests of PartitionGreedyBFS's assignment,
// part sizes and edge cut, recorded from the sequential partitioner
// (container/heap, frontiers grown by append, serial transpose).
var partitionDigests = map[string]uint64{
	"rmat/k=1":          0x6c014daa52e946e5,
	"rmat/k=2":          0x858b54032f883998,
	"rmat/k=3":          0xc779d24f74873175,
	"rmat/k=4":          0x5ece2ba4cd64d5ad,
	"rmat/k=5":          0xae6838d6697062ea,
	"rmat-isolated/k=1": 0x955bf7222d3d758c,
	"rmat-isolated/k=2": 0x69c6a3e8da5f1701,
	"rmat-isolated/k=3": 0x47e5bdd46047cf34,
	"rmat-isolated/k=4": 0xaca1a3d702216aa8,
	"rmat-isolated/k=5": 0xdf3d9e982316bbe1,
	"multi-edge/k=1":    0x62b0713b108eb379,
	"multi-edge/k=2":    0x235549f7b329e9a3,
	"multi-edge/k=3":    0x5593ae34c71ac589,
	"multi-edge/k=4":    0xa1e1e8c10a94108d,
	"multi-edge/k=5":    0x48180ad27314ab1e,
	"edgeless/k=1":      0x744a04f1e4854323,
	"edgeless/k=2":      0xcbeace9325b518c9,
	"edgeless/k=3":      0x5f54201438d80f9e,
	"edgeless/k=4":      0xf551c807e53f8245,
	"edgeless/k=5":      0xb7040dc4df66a009,
}

// The partition is pinned to the sequential partitioner's digests at k = 1–5
// and every fan-out bound; the RMAT cases are large enough that the
// transpose and the edge cut split across workers at 2 and 4. Run it under
// -cpu 1,2,4 to vary GOMAXPROCS as well.
func TestPartitionDigest(t *testing.T) {
	cases := partitionDigestCases()
	for _, par := range []int{1, 2, 4} {
		prev := tensor.SetParallelism(par)
		for _, c := range cases {
			g, err := FromEdges(c.n, c.edge)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 5; k++ {
				p, err := PartitionGreedyBFS(g, k)
				if err != nil {
					t.Fatal(err)
				}
				var buf []byte
				for _, a := range p.Assign {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(a))
				}
				for _, s := range p.Sizes {
					buf = binary.LittleEndian.AppendUint64(buf, uint64(s))
				}
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.EdgeCutFraction(g)))
				h := fnv.New64a()
				h.Write(buf)
				key := fmt.Sprintf("%s/k=%d", c.name, k)
				if got, want := h.Sum64(), partitionDigests[key]; got != want {
					t.Errorf("parallelism %d, %s: digest %#x, want %#x", par, key, got, want)
				}
			}
		}
		tensor.SetParallelism(prev)
	}
}

// The partitioner allocates its arrays, the transpose's and one frontier per
// part, a count that does not grow with the graph: no heap entry is boxed
// and a frontier seldom regrows. Checked at 1 024 and 65 536 vertices and
// every fan-out bound.
func TestPartitionAllocsIndependentOfSize(t *testing.T) {
	small := rmatEdges(10, 8_000, 31)
	large := rmatEdges(16, 600_000, 32)
	for _, par := range []int{1, 2, 4} {
		prev := tensor.SetParallelism(par)
		for k := 1; k <= 4; k++ {
			var allocs [2]float64
			for i, edges := range [][]Edge{small, large} {
				g, err := FromEdges(1024+64_512*i, edges)
				if err != nil {
					t.Fatal(err)
				}
				allocs[i] = testing.AllocsPerRun(3, func() {
					if _, err := PartitionGreedyBFS(g, k); err != nil {
						t.Fatal(err)
					}
				})
			}
			// 16 + k at parallelism 1 (the transpose's buffers included);
			// each extra transpose chunk adds a goroutine, its
			// closure and a histogram. Boxing a heap entry per vertex, as
			// container/heap did, would be ≈ |V|.
			if bound := float64(24 + 6*par); allocs[0] > bound || allocs[1] > bound {
				t.Errorf("parallelism %d, k %d: %v allocations at 1 024 and 65 536 vertices, want ≤ %v",
					par, k, allocs, bound)
			}
		}
		tensor.SetParallelism(prev)
	}
}

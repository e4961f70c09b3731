package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	// 0->1, 0->2, 1->2, 2->0, 3->2  (src->dst; stored as in-neighbors of dst)
	g, err := FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := smallGraph(t)
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.sortNeighborLists()
	if got := g.Neighbors(2); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("Neighbors(2) = %v", got)
	}
	if g.Degree(0) != 1 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(3))
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("expected error for out-of-range dst")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0}}); err == nil {
		t.Fatal("expected error for negative src")
	}
}

func TestFromEdgesEmpty(t *testing.T) {
	g, err := FromEdges(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReverseIsInvolution(t *testing.T) {
	g := smallGraph(t)
	rr := g.reverse().reverse()
	rr.sortNeighborLists()
	g.sortNeighborLists()
	if rr.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", rr.NumEdges(), g.NumEdges())
	}
	for v := int32(0); int(v) < g.NumVertices; v++ {
		a, b := g.Neighbors(v), rr.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d neighbors differ: %v vs %v", v, a, b)
			}
		}
	}
}

func TestDegreesConsistent(t *testing.T) {
	g := smallGraph(t)
	rev := g.reverse()
	in := make([]int, g.NumVertices)
	out := make([]int, g.NumVertices)
	var inSum, outSum int64
	for i := range in {
		in[i], out[i] = g.Degree(int32(i)), rev.Degree(int32(i))
		inSum += int64(in[i])
		outSum += int64(out[i])
	}
	if inSum != g.NumEdges() || outSum != g.NumEdges() {
		t.Fatalf("degree sums %d/%d != edges %d", inSum, outSum, g.NumEdges())
	}
	// Out-degree of 0 is 2 (edges 0->1, 0->2).
	if out[0] != 2 {
		t.Fatalf("OutDegree(0) = %d, want 2", out[0])
	}
	count := make([]int, g.NumVertices) // sources counted over ColIdx
	for _, src := range g.ColIdx {
		count[src]++
	}
	for i := range out {
		if out[i] != count[i] {
			t.Fatalf("reverse().Degree(%d) = %d, want %d sources", i, out[i], count[i])
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := smallGraph(t)
	edges := g.EdgeList()
	g2, err := FromEdges(g.NumVertices, edges)
	if err != nil {
		t.Fatal(err)
	}
	g.sortNeighborLists()
	g2.sortNeighborLists()
	for v := int32(0); int(v) < g.NumVertices; v++ {
		a, b := g.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("round trip changed degree of %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round trip changed neighbors of %d", v)
			}
		}
	}
}

func TestSortEdgesBySource(t *testing.T) {
	edges := []Edge{{3, 0}, {1, 2}, {3, 1}, {0, 0}, {1, 0}}
	sorted := SortEdgesBySource(edges)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Src < sorted[i-1].Src {
			t.Fatalf("not sorted by source: %v", sorted)
		}
		if sorted[i].Src == sorted[i-1].Src && sorted[i].Dst < sorted[i-1].Dst {
			t.Fatalf("not sorted by dst within source: %v", sorted)
		}
	}
	// Original untouched.
	if edges[0].Src != 3 {
		t.Fatal("SortEdgesBySource mutated input")
	}
}

func TestCountSourceRuns(t *testing.T) {
	if n := CountSourceRuns(nil); n != 0 {
		t.Fatalf("empty runs = %d", n)
	}
	edges := []Edge{{0, 1}, {0, 2}, {1, 0}, {0, 3}}
	if n := CountSourceRuns(edges); n != 3 {
		t.Fatalf("unsorted runs = %d, want 3", n)
	}
	if n := CountSourceRuns(SortEdgesBySource(edges)); n != 2 {
		t.Fatalf("sorted runs = %d, want 2 (distinct sources)", n)
	}
}

// Property: for any random edge list, sorting by source reduces the run
// count to exactly the number of distinct sources — the paper's O(|E|)→O(|V0|)
// memory traffic claim at the edge-list level.
func TestSortedRunsEqualDistinctSources(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(30)
		m := rng.Intn(200)
		edges := make([]Edge, m)
		distinct := map[int32]bool{}
		for i := range edges {
			edges[i] = Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
			distinct[edges[i].Src] = true
		}
		return CountSourceRuns(SortEdgesBySource(edges)) == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSR built from random edges always validates and preserves the
// edge multiset.
func TestFromEdgesPreservesMultiset(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(20)
		m := rng.Intn(100)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
		}
		g, err := FromEdges(n, edges)
		if err != nil || g.Validate() != nil {
			return false
		}
		got := g.EdgeList()
		if len(got) != len(edges) {
			return false
		}
		key := func(e Edge) int64 { return int64(e.Src)<<32 | int64(e.Dst) }
		a := make([]int64, len(edges))
		b := make([]int64, len(edges))
		for i := range edges {
			a[i] = key(edges[i])
			b[i] = key(got[i])
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Package graph provides the in-memory graph representation used throughout
// the system: a compressed sparse row (CSR) adjacency structure over int32
// vertex IDs, degree queries, reverse-graph construction, and the
// edge-sorted-by-source layout required by the accelerator aggregation
// kernel (paper §IV-C).
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/tensor"
)

// Graph is a directed graph in CSR form. Neighbors of vertex v are
// ColIdx[RowPtr[v]:RowPtr[v+1]]. For GNN aggregation the stored direction is
// "in-neighbors": ColIdx lists the source vertices whose features flow into v.
type Graph struct {
	NumVertices int
	RowPtr      []int64 // len NumVertices+1
	ColIdx      []int32 // len NumEdges
}

// NumEdges returns the number of stored edges.
func (g *Graph) NumEdges() int64 { return g.RowPtr[g.NumVertices] }

// Neighbors returns a view of v's neighbor list.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.ColIdx[g.RowPtr[v]:g.RowPtr[v+1]]
}

// Degree returns the number of stored neighbors of v.
func (g *Graph) Degree(v int32) int {
	return int(g.RowPtr[v+1] - g.RowPtr[v])
}

// Edge is a directed (Src → Dst) edge in coordinate form.
type Edge struct{ Src, Dst int32 }

// FromEdges builds a CSR graph from an edge list, grouping by Dst so that
// Neighbors(v) yields the in-neighbors (sources) of v. Duplicate edges are
// preserved, in edge order; self loops are allowed. Edges with endpoints
// outside [0, numVertices) cause an error naming the first such edge.
//
// It is a stable counting sort on tensor.ParallelRows workers (see
// bucketSort), so the graph is that of one sequential pass at any
// parallelism.
func FromEdges(numVertices int, edges []Edge) (*Graph, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: %d vertices", numVertices)
	}
	s := newBucketSort(numVertices, len(edges))
	bad := make([]int, s.p) // each chunk's first out-of-range edge, or −1
	s.run(func(c, lo, hi int) {
		bad[c] = -1
		h := s.hist[c]
		for i, e := range edges[lo:hi] {
			if e.Src < 0 || int(e.Src) >= numVertices || e.Dst < 0 || int(e.Dst) >= numVertices {
				bad[c] = lo + i
				return
			}
			h[e.Dst]++
		}
	})
	for _, i := range bad {
		if i >= 0 {
			e := edges[i]
			return nil, fmt.Errorf("graph: edge (%d,%d) outside [0,%d)", e.Src, e.Dst, numVertices)
		}
	}
	rowPtr := s.offsets()
	colIdx := make([]int32, len(edges))
	s.run(func(c, lo, hi int) {
		h := s.hist[c]
		for _, e := range edges[lo:hi] {
			colIdx[h[e.Dst]] = e.Src
			h[e.Dst]++
		}
	})
	return &Graph{NumVertices: numVertices, RowPtr: rowPtr, ColIdx: colIdx}, nil
}

// reverse returns the graph with all edges flipped (in-neighbors become
// out-neighbors): the partitioner's undirected view. Each out-neighbor list
// is in ascending order of destination, as a sequential transpose leaves
// it, at any parallelism.
func (g *Graph) reverse() *Graph {
	n, m := g.NumVertices, len(g.ColIdx)
	s := newBucketSort(n, m)
	s.run(func(c, lo, hi int) {
		h := s.hist[c]
		for _, src := range g.ColIdx[lo:hi] {
			h[src]++
		}
	})
	rowPtr := s.offsets()
	colIdx := make([]int32, m)
	s.run(func(c, lo, hi int) {
		h := s.hist[c]
		for dst, i := g.rowOf(lo), lo; i < hi; dst++ {
			for end := min(int(g.RowPtr[dst+1]), hi); i < end; i++ {
				src := g.ColIdx[i]
				colIdx[h[src]] = dst
				h[src]++
			}
		}
	})
	return &Graph{NumVertices: n, RowPtr: rowPtr, ColIdx: colIdx}
}

// rowOf returns the vertex whose neighbor list holds edge e (the CSR
// position e < NumEdges): the last v with RowPtr[v] ≤ e.
func (g *Graph) rowOf(e int) int32 {
	return int32(sort.Search(g.NumVertices, func(v int) bool { return g.RowPtr[v+1] > int64(e) }))
}

// sortWork is one edge of a counting or scatter pass in tensor.FanOut's
// units (≈ 5.5 per ns): a pass over a shuffled edge list spends ≈ 4 ns an
// edge on a 2-core Sapphire Rapids Xeon, most of it the random histogram or
// row access.
const sortWork = 22

// bucketSort is a stable counting sort of m items into n buckets over p
// contiguous chunks of the items, each run on a tensor.ParallelRows worker:
// chunk c counts its items' buckets into hist[c]; offsets makes one prefix
// sum over (bucket, chunk) and turns hist[c][b] into the position where
// chunk c's first item of bucket b goes; chunk c then scatters its items in
// its own order from there. Items keep their order within a bucket, so the
// result is one sequential pass's at any p.
type bucketSort struct {
	n, m, p int
	hist    [][]int64
}

func newBucketSort(n, m int) *bucketSort {
	p := max(1, tensor.FanOut(m, sortWork))
	s := &bucketSort{n: n, m: m, p: p, hist: make([][]int64, p)}
	for c := range s.hist {
		s.hist[c] = make([]int64, n)
	}
	return s
}

// run calls fn(c, lo, hi) for every chunk c, [lo, hi) = [c·m/p, (c+1)·m/p),
// on tensor.ParallelRows workers.
func (s *bucketSort) run(fn func(c, lo, hi int)) {
	eachChunk(s.m, s.p, fn)
}

// offsets returns the CSR row pointer of the counted buckets and turns every
// chunk's counts into its write positions.
func (s *bucketSort) offsets() []int64 {
	rowPtr := make([]int64, s.n+1)
	var next int64
	for b := 0; b < s.n; b++ {
		rowPtr[b] = next
		for _, h := range s.hist {
			h[b], next = next, next+h[b]
		}
	}
	rowPtr[s.n] = next
	return rowPtr
}

// eachChunk calls fn(c, lo, hi) for the p contiguous chunks [c·m/p,
// (c+1)·m/p) of [0, m), one tensor.ParallelRows row per chunk.
func eachChunk(m, p int, fn func(c, lo, hi int)) {
	tensor.ParallelRows(p, math.MaxInt32, func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			fn(c, c*m/p, (c+1)*m/p)
		}
	})
}

// Validate checks structural invariants: RowPtr is monotone, starts at 0,
// ends at len(ColIdx), and every column index is in range.
func (g *Graph) Validate() error {
	if len(g.RowPtr) != g.NumVertices+1 {
		return fmt.Errorf("graph: RowPtr length %d, want %d", len(g.RowPtr), g.NumVertices+1)
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph: RowPtr[0] = %d, want 0", g.RowPtr[0])
	}
	for i := 0; i < g.NumVertices; i++ {
		if g.RowPtr[i+1] < g.RowPtr[i] {
			return fmt.Errorf("graph: RowPtr not monotone at %d", i)
		}
	}
	if g.RowPtr[g.NumVertices] != int64(len(g.ColIdx)) {
		return fmt.Errorf("graph: RowPtr end %d != len(ColIdx) %d", g.RowPtr[g.NumVertices], len(g.ColIdx))
	}
	for _, c := range g.ColIdx {
		if c < 0 || int(c) >= g.NumVertices {
			return fmt.Errorf("graph: column index %d out of range", c)
		}
	}
	return nil
}

// sortNeighborLists sorts each vertex's neighbor list ascending in place.
// Deterministic layout for tests and better locality for sequential access.
func (g *Graph) sortNeighborLists() {
	for v := 0; v < g.NumVertices; v++ {
		nb := g.ColIdx[g.RowPtr[v]:g.RowPtr[v+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
}

// EdgeList materialises all edges in (src→dst) coordinate form, ordered by
// destination (CSR order).
func (g *Graph) EdgeList() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for dst := int32(0); int(dst) < g.NumVertices; dst++ {
		for _, src := range g.Neighbors(dst) {
			edges = append(edges, Edge{Src: src, Dst: dst})
		}
	}
	return edges
}

// SortEdgesBySource returns the edge list ordered by source vertex
// (stable within a source by destination). This is the layout the paper's
// scatter-gather kernel requires: edges with the same source are consecutive
// so a fetched feature is reused Dout(v) times (paper §IV-C).
func SortEdgesBySource(edges []Edge) []Edge {
	out := slices.Clone(edges)
	slices.SortStableFunc(out, func(a, b Edge) int {
		if a.Src != b.Src {
			return cmp.Compare(a.Src, b.Src)
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	return out
}

// CountSourceRuns returns the number of maximal runs of consecutive edges
// sharing a source vertex. For a source-sorted edge list this equals the
// number of distinct sources — i.e. the number of feature fetches the
// scatter-gather kernel performs.
func CountSourceRuns(edges []Edge) int {
	runs := 0
	for i, e := range edges {
		if i == 0 || e.Src != edges[i-1].Src {
			runs++
		}
	}
	return runs
}

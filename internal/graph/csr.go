// Package graph provides the in-memory graph representation used throughout
// the system: a compressed sparse row (CSR) adjacency structure over int32
// vertex IDs, degree queries, reverse-graph construction, and the
// edge-sorted-by-source layout required by the accelerator aggregation
// kernel (paper §IV-C).
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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
// preserved; self loops are allowed. Edges with endpoints outside
// [0, numVertices) cause an error.
func FromEdges(numVertices int, edges []Edge) (*Graph, error) {
	rowPtr := make([]int64, numVertices+1)
	for _, e := range edges {
		if e.Src < 0 || int(e.Src) >= numVertices || e.Dst < 0 || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside [0,%d)", e.Src, e.Dst, numVertices)
		}
		rowPtr[e.Dst+1]++
	}
	for i := 0; i < numVertices; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int32, len(edges))
	cursor := make([]int64, numVertices)
	for _, e := range edges {
		pos := rowPtr[e.Dst] + cursor[e.Dst]
		colIdx[pos] = e.Src
		cursor[e.Dst]++
	}
	return &Graph{NumVertices: numVertices, RowPtr: rowPtr, ColIdx: colIdx}, nil
}

// reverse returns the graph with all edges flipped (in-neighbors become
// out-neighbors). Used to compute out-degrees for the feature-reuse analysis.
func (g *Graph) reverse() *Graph {
	n := g.NumVertices
	rowPtr := make([]int64, n+1)
	for _, src := range g.ColIdx {
		rowPtr[src+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int32, len(g.ColIdx))
	cursor := make([]int64, n)
	for dst := int32(0); int(dst) < n; dst++ {
		for _, src := range g.Neighbors(dst) {
			pos := rowPtr[src] + cursor[src]
			colIdx[pos] = dst
			cursor[src]++
		}
	}
	return &Graph{NumVertices: n, RowPtr: rowPtr, ColIdx: colIdx}
}

// outDegrees returns the out-degree of every vertex (number of edges whose
// source is v), computed in one pass over ColIdx.
func (g *Graph) outDegrees() []int32 {
	deg := make([]int32, g.NumVertices)
	for _, src := range g.ColIdx {
		deg[src]++
	}
	return deg
}

// InDegrees returns the in-degree (stored degree) of every vertex.
func (g *Graph) InDegrees() []int32 {
	deg := make([]int32, g.NumVertices)
	for v := 0; v < g.NumVertices; v++ {
		deg[v] = int32(g.RowPtr[v+1] - g.RowPtr[v])
	}
	return deg
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

// Package datagen synthesises graph datasets. The paper evaluates on
// ogbn-products, ogbn-papers100M and MAG240M (homo); those datasets (up to
// 202 GB) are not redistributable here, so we generate RMAT power-law graphs
// whose vertex/edge counts and feature dimensions either match the paper's
// Table III exactly (full-scale *specs*, used only by the analytic timing
// models) or are scaled-down instances (used by the real numeric training
// path and the tests). The substitution is safe on both sides: the timing
// models read a spec's counts, fan-outs and dimensions and never an edge
// list, and the numeric path needs only a skewed-degree graph to sample from.
package datagen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// RMATParams configures the recursive-matrix (Kronecker) generator of
// Chakrabarti et al. Probabilities must be non-negative and sum to ~1.
type RMATParams struct {
	A, B, C, D float64
}

// DefaultRMAT is the standard skewed parameterisation producing power-law
// degree distributions similar to web/citation graphs.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// GenerateRMAT builds a directed graph with numVertices (rounded up to a
// power of two internally, then mapped back) and numEdges edges drawn from
// the RMAT distribution. Vertex IDs are shuffled so degree does not correlate
// with ID. The result is stored in in-neighbor CSR form.
func GenerateRMAT(numVertices int, numEdges int, p RMATParams, rng *tensor.RNG) (*graph.Graph, error) {
	if numVertices <= 0 || numEdges < 0 {
		return nil, fmt.Errorf("datagen: bad sizes V=%d E=%d", numVertices, numEdges)
	}
	sum := p.A + p.B + p.C + p.D
	if sum <= 0 {
		return nil, fmt.Errorf("datagen: RMAT probabilities sum to %v", sum)
	}
	a, b, c := p.A/sum, p.B/sum, p.C/sum
	levels := 0
	for (1 << levels) < numVertices {
		levels++
	}
	perm := rng.Perm(1 << levels)
	edges := make([]graph.Edge, 0, numEdges)
	for len(edges) < numEdges {
		var src, dst int
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			src <<= 1
			dst <<= 1
			switch {
			case r < a:
				// top-left quadrant: no bits set
			case r < a+b:
				dst |= 1
			case r < a+b+c:
				src |= 1
			default:
				src |= 1
				dst |= 1
			}
		}
		s, d := int(perm[src]), int(perm[dst])
		if s >= numVertices || d >= numVertices {
			continue
		}
		edges = append(edges, graph.Edge{Src: int32(s), Dst: int32(d)})
	}
	return graph.FromEdges(numVertices, edges)
}

// EnsureMinInDegree adds, for every vertex with in-degree below min, edges
// from uniformly random sources until the bound holds. GNN aggregation on
// isolated vertices is legal but uninteresting; scaled test datasets use
// min=1 so every mini-batch has non-empty neighborhoods.
func EnsureMinInDegree(g *graph.Graph, min int, rng *tensor.RNG) (*graph.Graph, error) {
	edges := g.EdgeList()
	in := g.InDegrees()
	for v := 0; v < g.NumVertices; v++ {
		for d := int(in[v]); d < min; d++ {
			src := int32(rng.Intn(g.NumVertices))
			edges = append(edges, graph.Edge{Src: src, Dst: int32(v)})
		}
	}
	return graph.FromEdges(g.NumVertices, edges)
}

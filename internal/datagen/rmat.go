// Package datagen synthesises graph datasets. The paper evaluates on
// ogbn-products, ogbn-papers100M and MAG240M (homo); those datasets (up to
// 202 GB) are not redistributable here, so we generate RMAT power-law graphs
// whose vertex/edge counts and feature dimensions either match the paper's
// Table III exactly (full-scale *specs*, used only by the analytic timing
// models) or are scaled-down instances (used by the real numeric training
// path and the tests). The substitution is safe on both sides: the timing
// models read a spec's counts, fan-outs and dimensions and never an edge
// list, and the numeric path needs only a skewed-degree graph to sample from.
//
// Generation runs on every core the tensor kernels may use
// (tensor.Parallelism) and is bit-identical to drawing in order at any
// parallelism: tensor.RNG is a counter, so every RMAT attempt and every
// feature row is drawn at its own offset in the caller's stream.
package datagen

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Fan-out work in tensor.FanOut's float32 element-operations, whose grain
// (2²¹) is ≈ 0.2 ms of single-core time, ≈ 10 operations per ns. On a 2-core
// Xeon one RMAT level (a draw and three compares) takes ≈ 3.5 ns and one
// Box–Muller variate ≈ 37 ns.
const (
	rmatLevelWork = 36
	normalWork    = 384
)

// RMATParams configures the recursive-matrix (Kronecker) generator of
// Chakrabarti et al. Probabilities must be non-negative and sum to ~1.
type RMATParams struct {
	A, B, C, D float64
}

// DefaultRMAT is the standard skewed parameterisation producing power-law
// degree distributions similar to web/citation graphs.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// rmatLevels is the number of quadrant choices per RMAT attempt: log₂ of
// numVertices rounded up to a power of two.
func rmatLevels(numVertices int) int { return bits.Len(uint(numVertices - 1)) }

// rmatAttempt draws candidate edges: levels uniform draws per attempt, each
// picking a quadrant of the 2^levels adjacency matrix, then a shuffle of the
// vertex IDs.
type rmatAttempt struct {
	a, ab, abc  float64 // cumulative quadrant thresholds A, A+B, A+B+C
	levels      int
	perm        []int32
	numVertices int32
}

// rejected marks an attempt that landed outside [0, numVertices).
var rejected = graph.Edge{Src: -1, Dst: -1}

// fill writes attempts [first, first+len(out)) to out, attempt k reading
// draws [k·levels, (k+1)·levels) past rng.
func (q *rmatAttempt) fill(out []graph.Edge, first int, rng tensor.RNG) {
	rng.Skip(uint64(first) * uint64(q.levels))
	for i := range out {
		var src, dst int
		for l := 0; l < q.levels; l++ {
			// x < A: top-left; < A+B: top-right; < A+B+C: bottom-left;
			// else bottom-right. The thresholds are ordered, so the column
			// is the parity of the thresholds x has passed.
			x := rng.Float64()
			bottom := b2i(x >= q.ab)
			src = src<<1 | bottom
			dst = dst<<1 | (b2i(x >= q.a) ^ bottom ^ b2i(x >= q.abc))
		}
		s, d := q.perm[src], q.perm[dst]
		if s >= q.numVertices || d >= q.numVertices {
			out[i] = rejected
			continue
		}
		out[i] = graph.Edge{Src: s, Dst: d}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// GenerateRMAT builds a directed graph with numVertices (rounded up to a
// power of two internally, then mapped back) and numEdges edges drawn from
// the RMAT distribution. Vertex IDs are shuffled so degree does not correlate
// with ID. The result is stored in in-neighbor CSR form.
//
// After the shuffle's draws, attempt k reads draws [k·levels, (k+1)·levels);
// an attempt landing outside [0, numVertices) is dropped, and the first
// numEdges kept attempts are the edges, in attempt order. Attempts run in
// rounds on tensor.ParallelRows workers; the graph, and where rng is left
// (attempts·levels draws past the shuffle), are those of one sequential
// loop at any parallelism.
func GenerateRMAT(numVertices int, numEdges int, p RMATParams, rng *tensor.RNG) (*graph.Graph, error) {
	if numVertices <= 0 || numEdges < 0 {
		return nil, fmt.Errorf("datagen: bad sizes V=%d E=%d", numVertices, numEdges)
	}
	if !(p.A >= 0 && p.B >= 0 && p.C >= 0 && p.D >= 0) {
		return nil, fmt.Errorf("datagen: RMAT probabilities %+v must be non-negative", p)
	}
	sum := p.A + p.B + p.C + p.D
	if sum <= 0 {
		return nil, fmt.Errorf("datagen: RMAT probabilities sum to %v", sum)
	}
	a, b, c := p.A/sum, p.B/sum, p.C/sum
	q := &rmatAttempt{a: a, ab: a + b, abc: a + b + c, levels: rmatLevels(numVertices), numVertices: int32(numVertices)}
	q.perm = rng.Perm(1 << q.levels)
	start := *rng

	// edges[:kept] holds the kept attempts; a round writes its attempts
	// behind them and the keepers are packed down in order.
	edges := make([]graph.Edge, numEdges)
	kept, tried := 0, 0
	for kept < numEdges {
		need := numEdges - kept
		round := need
		if tried > 0 {
			// Sized by the acceptance seen so far, with slack so another
			// round is rare; capped so parameters that never accept loop
			// without growing the buffer.
			round = min(need*tried/max(kept, 1), 16*need) + need/64 + 256
		}
		edges = slices.Grow(edges[:kept], round)[:kept+round]
		out, first := edges[kept:], tried
		tensor.ParallelRows(round, q.levels*rmatLevelWork, func(lo, hi int) {
			q.fill(out[lo:hi], first+lo, start)
		})
		for _, e := range out {
			if kept == numEdges {
				break
			}
			tried++
			if e != rejected {
				edges[kept] = e
				kept++
			}
		}
	}
	*rng = start
	rng.Skip(uint64(tried) * uint64(q.levels))
	return graph.FromEdges(numVertices, edges[:numEdges])
}

// EnsureMinInDegree adds, for every vertex with in-degree below min, edges
// from uniformly random sources until the bound holds. GNN aggregation on
// isolated vertices is legal but uninteresting; scaled test datasets use
// min=1 so every mini-batch has non-empty neighborhoods. Each vertex keeps its
// neighbor list and then gets its drawn sources, drawn in vertex order.
func EnsureMinInDegree(g *graph.Graph, min int, rng *tensor.RNG) (*graph.Graph, error) {
	n := g.NumVertices
	rowPtr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		rowPtr[v+1] = rowPtr[v] + max(g.RowPtr[v+1]-g.RowPtr[v], int64(min))
	}
	colIdx := make([]int32, rowPtr[n])
	for v := 0; v < n; v++ {
		row := colIdx[rowPtr[v]:rowPtr[v+1]]
		for i := copy(row, g.Neighbors(int32(v))); i < len(row); i++ {
			row[i] = int32(rng.Intn(n))
		}
	}
	return &graph.Graph{NumVertices: n, RowPtr: rowPtr, ColIdx: colIdx}, nil
}

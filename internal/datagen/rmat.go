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
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Fan-out work in tensor.FanOut's units, whose grain is 2²¹. Both weights
// are set at ≈ 5.5 units per ns of their cost on a 2-core Sapphire Rapids
// Xeon with AVX-512 and DQ, so a grain is ≈ 0.4 ms of generation. One RMAT
// level in rmatAttempt.fill (RNG.FillRMAT's AVX-512 kernel plus its share
// of the permutation lookup) takes ≈ 1.05 ns: 6 units. A feature variate
// drawn by RNG.FillNormal's AVX-512 kernel takes ≈ 9.5 ns (9 ns in 128-wide
// rows, 11 ns in 16-wide ones): 54 units, nine levels. Below avx512 or
// without AVX512DQ the scalar loops run, a level in ≈ 6 ns and a variate in
// ≈ 66 ns; there both are undercounted and split later than they could.
const (
	rmatLevelWork = 6
	normalWork    = 54
)

// RMATParams configures the recursive-matrix (Kronecker) generator of
// Chakrabarti et al. Probabilities must be finite and non-negative, with a
// positive, finite sum; they are normalised by it.
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
	t           [3]uint64 // cumulative quadrant thresholds A, A+B, A+B+C as ⌈t·2⁵³⌉
	levels      int
	perm        []int32
	numVertices int32
}

// rejected marks an attempt that landed outside [0, numVertices); fill
// writes it as the attempt's endpoints OR −1.
var rejected = graph.Edge{Src: -1, Dst: -1}

// rmatChunk is how many attempts fill draws into its stack buffers at a time.
const rmatChunk = 256

// fill writes attempts [first, first+len(out)) to out, attempt k reading
// draws [k·levels, (k+1)·levels) past rng, and returns how many it kept.
func (q *rmatAttempt) fill(out []graph.Edge, first int, rng tensor.RNG) int {
	rng.Skip(uint64(first) * uint64(q.levels))
	perm, nv := q.perm, q.numVertices
	var src, dst [rmatChunk]int32
	kept := 0
	for len(out) > 0 {
		n := min(len(out), rmatChunk)
		rng.FillRMAT(src[:n], dst[:n], q.levels, q.t)
		for i := range out[:n] {
			// m is −1 when the attempt landed outside [0, nv) and 0
			// otherwise: s|m, d|m is the edge or rejected, without a
			// branch to mispredict.
			s, d := perm[src[i]], perm[dst[i]]
			m := (nv - 1 - max(s, d)) >> 31
			out[i] = graph.Edge{Src: s | m, Dst: d | m}
			kept += int(m + 1)
		}
		out = out[n:]
	}
	return kept
}

// rmatThreshold returns ⌈t·2⁵³⌉ for a finite, non-negative t. Float64()
// is u·2⁻⁵³ for the integer u = Uint64()>>11, and scaling by 2⁵³ is exact,
// so Float64() ≥ t exactly when u ≥ rmatThreshold(t): the integer compares
// FillRMAT makes pick the quadrants that comparing Float64 with t would.
func rmatThreshold(t float64) uint64 { return uint64(math.Ceil(t * (1 << 53))) }

// GenerateRMAT builds a directed graph with numVertices (rounded up to a
// power of two internally, then mapped back) and numEdges edges drawn from
// the RMAT distribution. Vertex IDs are shuffled so degree does not correlate
// with ID. The result is stored in in-neighbor CSR form.
//
// After the shuffle's draws, attempt k reads draws [k·levels, (k+1)·levels);
// an attempt landing outside [0, numVertices) is dropped, and the first
// numEdges kept attempts are the edges, in attempt order. Attempts run in
// rounds, each cut into chunks on tensor.ParallelRows workers: a chunk draws
// its attempts and counts its keepers, then pack places them. The graph,
// and where rng is left (attempts·levels draws past the shuffle, through
// the numEdges-th keeper), are those of one sequential loop at any
// parallelism.
func GenerateRMAT(numVertices int, numEdges int, p RMATParams, rng *tensor.RNG) (*graph.Graph, error) {
	if numVertices <= 0 || numEdges < 0 {
		return nil, fmt.Errorf("datagen: bad sizes V=%d E=%d", numVertices, numEdges)
	}
	if !(p.A >= 0 && p.B >= 0 && p.C >= 0 && p.D >= 0) {
		return nil, fmt.Errorf("datagen: RMAT probabilities %+v must be non-negative", p)
	}
	sum := p.A + p.B + p.C + p.D
	if !(sum > 0 && sum <= math.MaxFloat64) {
		return nil, fmt.Errorf("datagen: RMAT probabilities %+v sum to %v", p, sum)
	}
	a, b, c := p.A/sum, p.B/sum, p.C/sum
	q := &rmatAttempt{
		t:           [3]uint64{rmatThreshold(a), rmatThreshold(a + b), rmatThreshold(a + b + c)},
		levels:      rmatLevels(numVertices),
		numVertices: int32(numVertices),
	}
	q.perm = rng.Perm(1 << q.levels)
	start := *rng

	edges := make([]graph.Edge, numEdges) // edges[:kept] holds the kept attempts
	var att []graph.Edge                  // a round's attempts, in attempt order
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
		att = slices.Grow(att[:0], round)[:round]
		keep := make([]int, max(1, tensor.FanOut(round, q.levels*rmatLevelWork)))
		eachChunk(round, len(keep), func(c, lo, hi int) {
			keep[c] = q.fill(att[lo:hi], tried+lo, start)
		})
		placed, used := pack(edges[kept:], att, keep)
		kept += placed
		tried += used
	}
	*rng = start
	rng.Skip(uint64(tried) * uint64(q.levels))
	return graph.FromEdges(numVertices, edges)
}

// pack copies the first len(dst) kept attempts of att to dst in order,
// where keep[c] counts the keepers of att's chunk c (eachChunk's cut into
// len(keep) chunks); it overwrites keep with how many each chunk places. It
// returns how many it placed and how many attempts that used: through the
// len(dst)-th keeper, or all of att when att holds fewer. The keep counts'
// prefix sum says where each chunk's keepers go, so the chunks copy on
// tensor.ParallelRows workers.
func pack(dst, att []graph.Edge, keep []int) (placed, used int) {
	at, last := make([]int, len(keep)), -1 // last: the chunk holding the len(dst)-th keeper
	for c := range keep {
		at[c] = placed
		if placed+keep[c] >= len(dst) {
			keep[c], last, placed = len(dst)-placed, c, len(dst)
			clear(keep[c+1:])
			break
		}
		placed += keep[c]
	}
	ends := make([]int, len(keep))
	eachChunk(len(att), len(keep), func(c, lo, hi int) {
		out, j := dst[at[c]:at[c]+keep[c]], lo
		for i := 0; i < len(out); j++ {
			// A rejected attempt (Src −1) is written and then overwritten
			// by the next keeper: i advances by the complement of Src's
			// sign bit.
			out[i] = att[j]
			i += int(^uint32(att[j].Src) >> 31)
		}
		ends[c] = j
	})
	if last < 0 {
		return placed, len(att)
	}
	return placed, ends[last]
}

// eachChunk calls fn(c, lo, hi) for the chunks [c·n/chunks, (c+1)·n/chunks)
// of [0, n), one tensor.ParallelRows row per chunk.
func eachChunk(n, chunks int, fn func(c, lo, hi int)) {
	tensor.ParallelRows(chunks, math.MaxInt32, func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			fn(c, c*n/chunks, (c+1)*n/chunks)
		}
	})
}

// copyWork is one edge of EnsureMinInDegree's row copy in tensor.FanOut's
// units: ≈ 4.5 ns an edge, most of it first touches of the new rows, on a
// 2-core Sapphire Rapids Xeon.
const copyWork = 25

// EnsureMinInDegree adds, for every vertex with in-degree below min, edges
// from uniformly random sources until the bound holds. GNN aggregation on
// isolated vertices is legal but uninteresting; scaled test datasets use
// min=1 so every mini-batch has non-empty neighborhoods. Each vertex keeps its
// neighbor list and then gets its drawn sources, drawn in vertex order: vertex
// v's draws start past the deficits of the vertices before it, so vertex
// ranges copy and draw on tensor.ParallelRows workers, and rng is left where
// drawing in order leaves it.
func EnsureMinInDegree(g *graph.Graph, min int, rng *tensor.RNG) (*graph.Graph, error) {
	n := g.NumVertices
	rowPtr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		rowPtr[v+1] = rowPtr[v] + max(g.RowPtr[v+1]-g.RowPtr[v], int64(min))
	}
	colIdx := make([]int32, rowPtr[n])
	start := *rng
	tensor.ParallelRows(n, int(rowPtr[n]/int64(max(n, 1))+1)*copyWork, func(lo, hi int) {
		r := start
		r.Skip(uint64(rowPtr[lo] - g.RowPtr[lo]))
		for v := lo; v < hi; v++ {
			row := colIdx[rowPtr[v]:rowPtr[v+1]]
			for i := copy(row, g.Neighbors(int32(v))); i < len(row); i++ {
				row[i] = int32(r.Intn(n))
			}
		}
	})
	*rng = start
	rng.Skip(uint64(rowPtr[n] - g.RowPtr[n]))
	return &graph.Graph{NumVertices: n, RowPtr: rowPtr, ColIdx: colIdx}, nil
}

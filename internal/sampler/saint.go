package sampler

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// SaintSampler implements GraphSAINT's random-walk subgraph sampling (Zeng
// et al., ICLR'20 — the paper's reference [29] and the second sampling
// algorithm §V's profiling-based sampling model anticipates). Instead of
// layered neighbor expansion, it samples root vertices, runs fixed-length
// random walks over *in*-edges, and induces the subgraph on all visited
// vertices; the GNN then trains on every vertex of the subgraph.
//
// The produced MiniBatch reuses the layered Block structure with Src == Dst
// (the induced vertex set) in every layer and the induced adjacency repeated
// per layer, so the same trainers, protocol and timing model apply without
// modification — which is exactly the portability the aggregate-update
// paradigm buys.
type SaintSampler struct {
	G       *graph.Graph
	Roots   int // random-walk roots per mini-batch
	WalkLen int // steps per walk
	Layers  int // GNN depth the mini-batch must serve
	Labels  []int32
}

// NewSaint validates and builds a GraphSAINT sampler.
func NewSaint(g *graph.Graph, roots, walkLen, layers int, labels []int32) (*SaintSampler, error) {
	if roots <= 0 || walkLen <= 0 || layers <= 0 {
		return nil, fmt.Errorf("sampler: saint config roots=%d walk=%d layers=%d", roots, walkLen, layers)
	}
	if labels != nil && len(labels) != g.NumVertices {
		return nil, fmt.Errorf("sampler: %d labels for %d vertices", len(labels), g.NumVertices)
	}
	return &SaintSampler{G: g, Roots: roots, WalkLen: walkLen, Layers: layers, Labels: labels}, nil
}

// SampleN draws one subgraph mini-batch from `roots` random walks — the
// runtime's DRM re-balances per-trainer root counts, so the count is an
// argument, not the configured Roots. Roots are
// drawn uniformly; walks follow uniformly-random in-neighbors and stop
// early at sinks.
func (s *SaintSampler) SampleN(roots int, rng *tensor.RNG) (*MiniBatch, error) {
	if roots <= 0 {
		return nil, fmt.Errorf("sampler: saint SampleN with %d roots", roots)
	}
	visited := make(map[int32]bool, roots*(s.WalkLen+1))
	for r := 0; r < roots; r++ {
		v := int32(rng.Intn(s.G.NumVertices))
		visited[v] = true
		for step := 0; step < s.WalkLen; step++ {
			nbrs := s.G.Neighbors(v)
			if len(nbrs) == 0 {
				break
			}
			v = nbrs[rng.Intn(len(nbrs))]
			visited[v] = true
		}
	}
	nodes := make([]int32, 0, len(visited))
	for v := range visited {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	local := make(map[int32]int32, len(nodes))
	for i, v := range nodes {
		local[v] = int32(i)
	}
	// Induce the subgraph: keep edges whose both endpoints were visited.
	rowPtr := make([]int32, len(nodes)+1)
	var col []int32
	for i, v := range nodes {
		for _, u := range s.G.Neighbors(v) {
			if li, ok := local[u]; ok {
				col = append(col, li)
			}
		}
		rowPtr[i+1] = int32(len(col))
	}
	block := &Block{Src: nodes, Dst: nodes, RowPtr: rowPtr, Col: col}
	mb := &MiniBatch{Targets: nodes}
	for l := 0; l < s.Layers; l++ {
		mb.Blocks = append(mb.Blocks, block)
	}
	if s.Labels != nil {
		mb.Labels = make([]int32, len(nodes))
		for i, v := range nodes {
			mb.Labels[i] = s.Labels[v]
		}
	}
	return mb, nil
}

// Package sampler implements mini-batch neighbor sampling (GraphSAGE,
// Hamilton et al.) producing layered message-flow blocks, plus the
// expected-size model the performance model (paper §V) uses to reason about
// full-scale datasets without materialising them.
package sampler

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Block is one bipartite layer of a mini-batch: messages flow from the Src
// vertex set to the Dst vertex set. Dst is always a prefix of Src (every
// destination also appears as a source so self-features are available for
// GraphSAGE's concat and GCN's self loop). Edges are stored CSC-style over
// destinations; Col holds *local* indices into Src.
type Block struct {
	Src    []int32 // global vertex IDs; Src[:len(Dst)] == Dst
	Dst    []int32 // global vertex IDs of this layer's targets
	RowPtr []int32 // len(Dst)+1
	Col    []int32 // local src indices, len == NumEdges()
}

// NumEdges returns the number of sampled edges in the block.
func (b *Block) NumEdges() int { return len(b.Col) }

// Validate checks the structural invariants of a block.
func (b *Block) Validate() error {
	if len(b.Src) < len(b.Dst) {
		return fmt.Errorf("sampler: |Src|=%d < |Dst|=%d", len(b.Src), len(b.Dst))
	}
	for i := range b.Dst {
		if b.Src[i] != b.Dst[i] {
			return fmt.Errorf("sampler: Dst not a prefix of Src at %d", i)
		}
	}
	if len(b.RowPtr) != len(b.Dst)+1 {
		return fmt.Errorf("sampler: RowPtr len %d, want %d", len(b.RowPtr), len(b.Dst)+1)
	}
	if b.RowPtr[0] != 0 || int(b.RowPtr[len(b.Dst)]) != len(b.Col) {
		return fmt.Errorf("sampler: RowPtr endpoints wrong")
	}
	for i := 0; i < len(b.Dst); i++ {
		if b.RowPtr[i+1] < b.RowPtr[i] {
			return fmt.Errorf("sampler: RowPtr not monotone at %d", i)
		}
	}
	for _, c := range b.Col {
		if c < 0 || int(c) >= len(b.Src) {
			return fmt.Errorf("sampler: Col index %d out of range [0,%d)", c, len(b.Src))
		}
	}
	return nil
}

// FullGraphBlock presents the whole graph as one Block: every vertex is both
// a source and a destination (local index == global ID) and the edge list is
// the graph's CSR adjacency. It lets exact full-graph propagation run through
// the same layer kernels as sampled mini-batches. The Col slice aliases the
// graph's ColIdx; callers must not mutate it.
func FullGraphBlock(g *graph.Graph) (*Block, error) {
	if g.NumEdges() > math.MaxInt32 {
		return nil, fmt.Errorf("sampler: graph with %d edges exceeds block index range", g.NumEdges())
	}
	n := g.NumVertices
	ids := make([]int32, n)
	rowPtr := make([]int32, n+1)
	for v := 0; v < n; v++ {
		ids[v] = int32(v)
		rowPtr[v+1] = int32(g.RowPtr[v+1])
	}
	return &Block{Src: ids, Dst: ids, RowPtr: rowPtr, Col: g.ColIdx}, nil
}

// MiniBatch is an L-layer computational graph. Blocks[0] is the input-most
// layer (its Src is V0, the vertices whose raw features are gathered);
// Blocks[L-1].Dst are the target vertices VL.
type MiniBatch struct {
	Blocks  []*Block
	Targets []int32
	Labels  []int32
}

// InputNodes returns V0, the vertices whose features must be loaded.
func (mb *MiniBatch) InputNodes() []int32 { return mb.Blocks[0].Src }

// EdgesTraversed returns Σ_l |E_l|, the numerator of the paper's MTEPS
// throughput metric (Eq. 5).
func (mb *MiniBatch) EdgesTraversed() int64 {
	var total int64
	for _, b := range mb.Blocks {
		total += int64(b.NumEdges())
	}
	return total
}

// Sampler draws mini-batches from a graph using per-layer neighbor fanouts.
// Fanouts[0] applies to the input-most layer. The paper uses (25, 10) with
// batch size 1024. A fanout of 0 disables sampling for that layer: every
// neighbor is taken, making propagation over the batch exact (the limit the
// sampled estimate converges to as fanouts grow).
type Sampler struct {
	G       *graph.Graph
	Fanouts []int
	Labels  []int32

	// Reusable lookup state (built lazily on first use). The global→local
	// vertex map is a pair of O(|V|) arrays stamped with a per-layer
	// generation: visited[v] == gen marks v as present in the current layer
	// with local index local[v]. Bumping gen invalidates every entry in
	// O(1); on the (once per 4 billion layers) wrap the stamps are cleared.
	// A Sampler is therefore NOT safe for concurrent sampling: one Sampler
	// per goroutine, mirroring the Workspace arena's ownership discipline.
	gen     uint32
	visited []uint32
	local   []int32
	scratch []int32 // one destination's drawn neighbors then their positions, sized 2·max(Fanouts)
}

// New creates a sampler. Fanouts must be non-negative; 0 means "no sampling,
// take all neighbors" for that layer.
func New(g *graph.Graph, fanouts []int, labels []int32) (*Sampler, error) {
	if len(fanouts) == 0 {
		return nil, fmt.Errorf("sampler: no fanouts")
	}
	for _, f := range fanouts {
		if f < 0 {
			return nil, fmt.Errorf("sampler: negative fanout %d", f)
		}
	}
	if labels != nil && len(labels) != g.NumVertices {
		return nil, fmt.Errorf("sampler: %d labels for %d vertices", len(labels), g.NumVertices)
	}
	return &Sampler{G: g, Fanouts: fanouts, Labels: labels}, nil
}

// Sample draws one mini-batch for the given target vertices into fresh
// storage — the convenience form of SampleInto, with the same rng
// consumption.
func (s *Sampler) Sample(targets []int32, rng *tensor.RNG) (*MiniBatch, error) {
	mb := &MiniBatch{}
	if err := s.SampleInto(mb, targets, rng); err != nil {
		return nil, err
	}
	return mb, nil
}

// SampleInto draws one mini-batch for the given target vertices into
// caller-retained storage: the mini-batch's blocks, targets and labels are
// rebuilt in place, reusing their backing arrays, so a warm sampler+batch
// pair samples with zero allocations. Sampling per destination is without
// replacement: if a vertex has degree ≤ fanout all neighbors are taken,
// otherwise a uniform `fanout`-subset is drawn with `fanout` rng draws,
// whatever the degree. Deterministic given rng state. mb must not be in use
// elsewhere (the serving pipeline and the training engine each retain their
// own). Not safe for concurrent use; see the Sampler field docs.
func (s *Sampler) SampleInto(mb *MiniBatch, targets []int32, rng *tensor.RNG) error {
	if len(targets) == 0 {
		return fmt.Errorf("sampler: empty target set")
	}
	for _, v := range targets {
		if v < 0 || int(v) >= s.G.NumVertices {
			return fmt.Errorf("sampler: target %d out of range", v)
		}
	}
	s.ensureScratch()
	L := len(s.Fanouts)
	for len(mb.Blocks) < L {
		mb.Blocks = append(mb.Blocks, &Block{})
	}
	mb.Blocks = mb.Blocks[:L]
	for l, b := range mb.Blocks {
		if b == nil {
			mb.Blocks[l] = &Block{}
		}
	}
	// Self-append is safe here even when targets aliases mb.Targets.
	mb.Targets = append(mb.Targets[:0], targets...)
	frontier := mb.Targets
	for l := L - 1; l >= 0; l-- {
		s.sampleLayerInto(mb.Blocks[l], frontier, s.Fanouts[l], rng)
		frontier = mb.Blocks[l].Src
	}
	mb.Labels = mb.Labels[:0]
	if s.Labels != nil {
		for _, v := range targets {
			mb.Labels = append(mb.Labels, s.Labels[v])
		}
	}
	return nil
}

// ensureScratch lazily builds the O(|V|) lookup arrays and the subset-draw
// buffer SampleInto needs.
func (s *Sampler) ensureScratch() {
	if s.visited == nil {
		s.visited = make([]uint32, s.G.NumVertices)
		s.local = make([]int32, s.G.NumVertices)
	}
	maxF := 0
	for _, f := range s.Fanouts {
		if f > maxF {
			maxF = f
		}
	}
	if len(s.scratch) < 2*maxF {
		s.scratch = make([]int32, 2*maxF)
	}
}

// sampleLayerInto builds one block in reused storage: for each dst in
// frontier, sample up to fanout in-neighbors, mapping global to local
// indices through the sampler's generation-stamped arrays (last write wins
// for duplicate destinations, first occurrence wins for shared sources).
func (s *Sampler) sampleLayerInto(blk *Block, frontier []int32, fanout int, rng *tensor.RNG) {
	nDst := len(frontier)
	blk.Src = append(blk.Src[:0], frontier...)
	s.gen++
	if s.gen == 0 { // stamp wrap: clear and restart at 1
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.gen = 1
	}
	for i, v := range frontier {
		s.visited[v] = s.gen
		s.local[v] = int32(i)
	}
	blk.RowPtr = append(blk.RowPtr[:0], 0)
	blk.Col = blk.Col[:0]
	for _, v := range frontier {
		nbrs := s.G.Neighbors(v)
		chosen := nbrs // fanout 0: exact neighborhood, no sampling
		if fanout > 0 {
			chosen = sampleWithoutReplacement(nbrs, fanout, s.scratch, rng)
		}
		for _, u := range chosen {
			li := s.local[u]
			if s.visited[u] != s.gen {
				li = int32(len(blk.Src))
				blk.Src = append(blk.Src, u)
				s.visited[u] = s.gen
				s.local[u] = li
			}
			blk.Col = append(blk.Col, li)
		}
		blk.RowPtr = append(blk.RowPtr, int32(len(blk.Col)))
	}
	// Src may have been reallocated by the appends above; derive the Dst
	// prefix only now that it is final.
	blk.Dst = blk.Src[:nDst]
}

// sampleWithoutReplacement returns nbrs itself, consuming no rng draws, when
// len(nbrs) ≤ k; otherwise a uniform k-subset of its *positions* by Floyd's
// algorithm, in exactly k rng draws and O(k²) compares whatever the degree
// (k is a fanout, ≤ 25 in this tree, so the chosen positions are searched
// linearly). Positions, not values: a vertex listed m times (a multi-edge) is
// m times as likely to be drawn, and may be drawn more than once. scratch
// (len ≥ 2k) holds the result, valid until the next call, then the positions.
func sampleWithoutReplacement(nbrs []int32, k int, scratch []int32, rng *tensor.RNG) []int32 {
	n := len(nbrs)
	if n <= k {
		return nbrs
	}
	res, pos := scratch[:k], scratch[k:2*k]
	for i := range res {
		// Position j = n−k+i enters the candidate range this round: draw t
		// from [0, j] and, if t is already chosen, take j instead.
		j := n - k + i
		t := int32(rng.Intn(j + 1))
		for _, p := range pos[:i] {
			if p == t {
				t = int32(j)
				break
			}
		}
		pos[i] = t
		res[i] = nbrs[t]
	}
	return res
}

// Batcher iterates epochs over a training set in shuffled fixed-size batches
// of target vertices (the last short batch of an epoch is kept).
type Batcher struct {
	trainIdx  []int32
	batchSize int
	rng       *tensor.RNG
	order     []int32
	cursor    int
}

// NewBatcher creates a batcher over trainIdx with the given batch size.
func NewBatcher(trainIdx []int32, batchSize int, rng *tensor.RNG) (*Batcher, error) {
	if len(trainIdx) == 0 {
		return nil, fmt.Errorf("sampler: empty training set")
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("sampler: batch size %d", batchSize)
	}
	b := &Batcher{trainIdx: trainIdx, batchSize: batchSize, rng: rng}
	b.reshuffle()
	return b, nil
}

func (b *Batcher) reshuffle() {
	perm := b.rng.Perm(len(b.trainIdx))
	b.order = make([]int32, len(b.trainIdx))
	for i, p := range perm {
		b.order[i] = b.trainIdx[p]
	}
	b.cursor = 0
}

// BatchesPerEpoch returns the number of batches in one epoch.
func (b *Batcher) BatchesPerEpoch() int {
	return (len(b.trainIdx) + b.batchSize - 1) / b.batchSize
}

// Next returns the next batch of targets, reshuffling at epoch boundaries.
// The returned slice must not be mutated.
func (b *Batcher) Next() []int32 {
	if b.cursor >= len(b.order) {
		b.reshuffle()
	}
	end := b.cursor + b.batchSize
	if end > len(b.order) {
		end = len(b.order)
	}
	out := b.order[b.cursor:end]
	b.cursor = end
	return out
}

// ExpectedSizes estimates E[|V_l|] and E[|E_l|] for a full-scale dataset
// spec without materialising it, assuming batchSize targets, the given
// fanouts, and average degree Ē = E/V. Duplicate-vertex collapse is modeled
// with the birthday-collision expectation: k uniform draws from N vertices
// yield N(1 − (1−1/N)^k) distinct. Layer index 0 is the input-most layer, as
// in MiniBatch.Blocks. vl[l] is |Dst| of block l... vl has length L+1 with
// vl[L] = batchSize (targets) and vl[0] = |V0| (input nodes).
func ExpectedSizes(numVertices, avgDegree float64, batchSize int, fanouts []int) (vl []float64, el []float64) {
	L := len(fanouts)
	vl = make([]float64, L+1)
	el = make([]float64, L)
	vl[L] = math.Min(float64(batchSize), numVertices) // targets are distinct vertices
	for l := L - 1; l >= 0; l-- {
		f := math.Min(float64(fanouts[l]), avgDegree)
		if fanouts[l] <= 0 { // fanout 0 takes every neighbor
			f = avgDegree
		}
		el[l] = vl[l+1] * f
		draws := el[l] + vl[l+1] // sampled sources plus the dst prefix
		vl[l] = distinctOf(draws, numVertices)
	}
	return vl, el
}

// distinctOf returns E[#distinct] of k uniform draws from n items.
func distinctOf(k, n float64) float64 {
	if n <= 0 {
		return 0
	}
	d := n * (1 - math.Pow(1-1/n, k))
	return math.Min(d, k)
}

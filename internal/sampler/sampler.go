// Package sampler implements mini-batch neighbor sampling (GraphSAGE,
// Hamilton et al.) producing layered message-flow blocks, plus the
// expected-size model the performance model (paper §V) uses to reason about
// full-scale datasets without materialising them.
package sampler

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Block is one bipartite layer of a mini-batch: messages flow from the Src
// vertex set to the Dst vertex set. Dst is always a prefix of Src (every
// destination also appears as a source so self-features are available for
// GraphSAGE's concat and GCN's self loop). Edges are stored CSC-style over
// destinations; Col holds *local* indices into Src. Graph is the graph the
// block was drawn from: GCN's normalisation (paper Eq. 3) reads its degrees.
type Block struct {
	Src    []int32 // global vertex IDs; Src[:len(Dst)] == Dst
	Dst    []int32 // global vertex IDs of this layer's targets
	RowPtr []int32 // len(Dst)+1
	Col    []int32 // local src indices, len == NumEdges()
	Graph  *graph.Graph
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
	return &Block{Src: ids, Dst: ids, RowPtr: rowPtr, Col: g.ColIdx, Graph: g}, nil
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
//
// A Sampler is NOT safe for concurrent sampling: one Sampler per goroutine,
// mirroring the Workspace arena's ownership discipline. The caller's
// goroutine samples in the embedded layerScratch; the workers a
// SampleSharesInto call spawns each own a scratch of their own, retained in
// the Sampler, and are joined before the call returns.
type Sampler struct {
	G       *graph.Graph
	Fanouts []int
	Labels  []int32

	layerScratch
	input inputPass
}

// layerScratch is one goroutine's state for sampling a layer, built lazily
// on first use. The global→local vertex map is a pair of O(|V|) arrays
// stamped with a per-layer generation: visited[v] == gen marks v as present
// in the current layer with local index local[v]. Bumping gen invalidates
// every entry in O(1); on the (once per 4 billion layers) wrap the stamps are
// cleared. The choose pass's output for one layer is the destinations whose
// degree exceeds the fan-out, in frontier order, and the neighbors each
// chose, the k-th's at [k·fanout, (k+1)·fanout).
type layerScratch struct {
	gen     uint32
	visited []uint32
	local   []int32
	drawn   []int32
	picks   []int32
}

// inputPass is SampleSharesInto's retained state for sampling the input-most
// layer of every share at once: the layers still to sample, in share order,
// the extra workers' scratch, and the cursor the workers claim layers from
// (DRM makes shares unequal, so the split is dynamic, as in the trainer
// pool).
type inputPass struct {
	layers  []inputLayer
	workers []layerScratch // worker k+1's scratch; the caller is worker 0
	next    atomic.Int32
	join    sync.WaitGroup
}

// inputLayer is one share's input-most layer as the layers above it leave
// it: the block to build, its frontier, and the stream at its first draw.
type inputLayer struct {
	blk      *Block
	frontier []int32
	rng      tensor.RNG
}

// New creates a sampler. Fanouts must be non-empty and non-negative; 0 means
// "no sampling, take all neighbors" for that layer. The fan-outs are checked
// before g is read, so New(nil, fanouts, nil) states the rule on its own: the
// training and serving configurations' Validate call it that way.
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
// own). It is SampleSharesInto's one-share case. Not safe for concurrent
// use; see Sampler.
func (s *Sampler) SampleInto(mb *MiniBatch, targets []int32, rng *tensor.RNG) error {
	if len(targets) == 0 {
		return fmt.Errorf("sampler: empty target set")
	}
	return s.SampleSharesInto([]*MiniBatch{mb}, [][]int32{targets}, rng)
}

// SampleSharesInto draws mbs[i] for targets shares[i], for every non-empty
// share, and equals SampleInto(mbs[i], shares[i], rng) over those shares in
// index order, bit for bit: the same blocks, targets and labels, and rng left
// where the last call would leave it. An empty share's mini-batch is not
// touched. Every share is checked before the first draw, so on an error
// nothing is sampled and rng has not moved. The mini-batches must be
// distinct, and no share may alias another share's mini-batch.
//
// It samples in two phases. First, in share order on the caller, every
// share's layers above the input-most one are sampled as SampleInto samples
// them; then the input layer's drawing destinations are counted (the choose
// pass's filter), the stream position is recorded as that layer's start, and
// rng skips the draws the layer will take. Second, the input layers of all
// shares — the largest layers, each a choose pass and a sequential dedup —
// are sampled at once from their recorded starts, on tensor.FanOut workers
// sized by the counted draws. So every draw keeps its place in the stream at
// any parallelism.
func (s *Sampler) SampleSharesInto(mbs []*MiniBatch, shares [][]int32, rng *tensor.RNG) error {
	if len(mbs) != len(shares) {
		return fmt.Errorf("sampler: %d mini-batches for %d shares", len(mbs), len(shares))
	}
	for _, targets := range shares {
		for _, v := range targets {
			if v < 0 || int(v) >= s.G.NumVertices {
				return fmt.Errorf("sampler: target %d out of range", v)
			}
		}
	}
	s.ensure(s.G.NumVertices)
	p := &s.input
	p.layers = p.layers[:0]
	draws := 0
	for i, targets := range shares {
		if len(targets) > 0 {
			draws += s.sampleAboveInput(mbs[i], targets, rng)
		}
	}
	width := 1 // the caller alone below the fan-out grain
	if n := len(p.layers); n > 1 {
		width = max(1, tensor.FanOut(n, draws*chooseWork/n))
	}
	for len(p.workers) < width-1 {
		p.workers = append(p.workers, layerScratch{})
	}
	p.next.Store(0)
	p.join.Add(width)
	for k := 0; k < width-1; k++ {
		go s.drainInputs(&p.workers[k])
	}
	s.drainInputs(&s.layerScratch)
	p.join.Wait()
	return nil
}

// sampleAboveInput is the first phase for one share: it rebuilds mb's
// targets and labels, samples its layers L−1…1 from rng, queues its input
// layer at rng's position, and moves rng past that layer's draws, which it
// returns.
func (s *Sampler) sampleAboveInput(mb *MiniBatch, targets []int32, rng *tensor.RNG) int {
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
	mb.Labels = mb.Labels[:0]
	if s.Labels != nil {
		for _, v := range mb.Targets {
			mb.Labels = append(mb.Labels, s.Labels[v])
		}
	}
	frontier := mb.Targets
	for l := L - 1; l >= 1; l-- {
		s.sampleLayerInto(s.G, mb.Blocks[l], frontier, s.Fanouts[l], rng)
		frontier = mb.Blocks[l].Src
	}
	s.input.layers = append(s.input.layers, inputLayer{blk: mb.Blocks[0], frontier: frontier, rng: *rng})
	f, draws := s.Fanouts[0], 0
	if f > 0 {
		for _, v := range frontier {
			if s.G.Degree(v) > f {
				draws += f
			}
		}
	}
	rng.Skip(uint64(draws))
	return draws
}

// drainInputs samples queued input layers in w until the cursor passes the
// last one, then marks its worker done.
func (s *Sampler) drainInputs(w *layerScratch) {
	p := &s.input
	defer p.join.Done()
	w.ensure(s.G.NumVertices)
	for {
		k := int(p.next.Add(1)) - 1
		if k >= len(p.layers) {
			return
		}
		in := &p.layers[k]
		w.sampleLayerInto(s.G, in.blk, in.frontier, s.Fanouts[0], &in.rng)
	}
}

// Reserve grows mb, and the sampler's choose buffers, so that SampleInto
// never reallocates them for up to n targets: a layer's destinations are the
// sources of the layer above, its sources at most its destinations ×
// (1 + fanout) and its edges (and picks) at most destinations × fanout.
// Layers under an exact (fanout 0) one have no such bound and keep growing
// on demand.
func (s *Sampler) Reserve(mb *MiniBatch, n int) {
	for len(mb.Blocks) < len(s.Fanouts) {
		mb.Blocks = append(mb.Blocks, &Block{})
	}
	mb.Targets = slices.Grow(mb.Targets[:0], n)
	if s.Labels != nil {
		mb.Labels = slices.Grow(mb.Labels[:0], n)
	}
	dst, drawn, picks := n, 0, 0
	for l := len(s.Fanouts) - 1; l >= 0 && s.Fanouts[l] > 0; l-- {
		b := mb.Blocks[l]
		b.RowPtr = slices.Grow(b.RowPtr[:0], dst+1)
		b.Col = slices.Grow(b.Col[:0], dst*s.Fanouts[l])
		drawn, picks = max(drawn, dst), max(picks, dst*s.Fanouts[l])
		dst *= 1 + s.Fanouts[l]
		b.Src = slices.Grow(b.Src[:0], dst)
	}
	s.drawn = slices.Grow(s.drawn[:0], drawn)
	s.picks = slices.Grow(s.picks[:0], picks)
}

// ensure lazily builds the O(|V|) lookup arrays of a graph with n vertices.
func (w *layerScratch) ensure(n int) {
	if w.visited == nil {
		w.visited = make([]uint32, n)
		w.local = make([]int32, n)
	}
}

// chooseWork is one Floyd draw in tensor.FanOut's float32
// element-operations, whose grain (2²¹) is ≈ 0.2 ms of single-core time,
// ≈ 10 operations per ns. On a 2-core Xeon a draw with its linear search of
// the positions already chosen (≈ 12 compares at fan-out 25) takes ≈ 15 ns
// with the neighbor list in cache and ≈ 21 ns over an RMAT graph's lists.
// Scanned on fpga-hot's training wall (3 runs each, rotated with the
// one-goroutine sampler this replaced): 50, 200 and 800 read +7.6, +9.0 and
// +5.9 %; 800 also splits the fan-out-10 layer, whose passes are ≈ 0.1 ms.
// A serving batch (≤ 32 targets at fan-outs 10 and 5) stays far below the
// grain.
const chooseWork = 200

// sampleLayerInto builds one block of g in reused storage in two passes. The
// choose pass draws the neighbors of every destination whose degree exceeds
// fanout into w.picks; above the fan-out grain it runs on
// tensor.ParallelRows workers, each starting at its first destination's
// offset in rng's stream, so the picks, and where rng is left, are those of
// one sequential loop at any parallelism. The dedup pass then walks frontier
// in order, mapping global to local indices through w's generation-stamped
// arrays (last write wins for duplicate destinations, first occurrence wins
// for shared sources).
func (w *layerScratch) sampleLayerInto(g *graph.Graph, blk *Block, frontier []int32, fanout int, rng *tensor.RNG) {
	nDst := len(frontier)
	if fanout > 0 {
		w.choose(g, frontier, fanout, rng)
	}
	blk.Graph = g
	blk.Src = append(blk.Src[:0], frontier...)
	w.gen++
	if w.gen == 0 { // stamp wrap: clear and restart at 1
		clear(w.visited)
		w.gen = 1
	}
	for i, v := range frontier {
		w.visited[v] = w.gen
		w.local[v] = int32(i)
	}
	blk.RowPtr = append(blk.RowPtr[:0], 0)
	blk.Col = blk.Col[:0]
	picks := w.picks
	for _, v := range frontier {
		chosen := g.Neighbors(v) // fanout 0 or degree ≤ fanout: take all
		if fanout > 0 && len(chosen) > fanout {
			chosen, picks = picks[:fanout], picks[fanout:]
		}
		for _, u := range chosen {
			li := w.local[u]
			if w.visited[u] != w.gen {
				li = int32(len(blk.Src))
				blk.Src = append(blk.Src, u)
				w.visited[u] = w.gen
				w.local[u] = li
			}
			blk.Col = append(blk.Col, li)
		}
		blk.RowPtr = append(blk.RowPtr, int32(len(blk.Col)))
	}
	// Src may have been reallocated by the appends above; derive the Dst
	// prefix only now that it is final.
	blk.Dst = blk.Src[:nDst]
}

// choose fills w.drawn and w.picks for frontier. Only a destination whose
// degree exceeds fanout draws: the k-th such destination reads draws
// [k·fanout, (k+1)·fanout) past rng, and rng ends len(w.drawn)·fanout draws
// past where it started. Splitting the drawing destinations, not the
// frontier, gives every worker the same number of draws: the frontier's
// first-seen sources are biased to high degree.
func (w *layerScratch) choose(g *graph.Graph, frontier []int32, fanout int, rng *tensor.RNG) {
	w.drawn = w.drawn[:0]
	for _, v := range frontier {
		if g.Degree(v) > fanout {
			w.drawn = append(w.drawn, v)
		}
	}
	n, work := len(w.drawn), fanout*chooseWork
	w.picks = slices.Grow(w.picks[:0], n*fanout)[:n*fanout]
	if tensor.FanOut(n, work) <= 1 {
		chooseRange(g, w.drawn, fanout, w.picks, rng)
		return
	}
	start := *rng
	tensor.ParallelRows(n, work, func(lo, hi int) {
		r := start
		r.Skip(uint64(lo * fanout))
		chooseRange(g, w.drawn[lo:hi], fanout, w.picks[lo*fanout:hi*fanout], &r)
	})
	rng.Skip(uint64(n * fanout))
}

// chooseRange draws the neighbors of each destination in drawn, in order,
// into its fanout-wide stride of picks.
func chooseRange(g *graph.Graph, drawn []int32, fanout int, picks []int32, rng *tensor.RNG) {
	for k, v := range drawn {
		sampleWithoutReplacement(g.Neighbors(v), picks[k*fanout:(k+1)*fanout], rng)
	}
}

// sampleWithoutReplacement returns nbrs itself, consuming no rng draws and
// writing nothing, when len(nbrs) ≤ k = len(out); otherwise it fills out with
// the neighbors at a uniform k-subset of nbrs's *positions*, drawn by Floyd's
// algorithm in exactly k rng draws and O(k²) compares whatever the degree (k
// is a fanout, ≤ 25 in this tree, so the chosen positions are searched
// linearly), and returns out. Positions, not values: a vertex listed m times
// (a multi-edge) is m times as likely to be drawn, and may be drawn more than
// once. out holds the positions first, then their neighbors.
func sampleWithoutReplacement(nbrs, out []int32, rng *tensor.RNG) []int32 {
	n, k := len(nbrs), len(out)
	if n <= k {
		return nbrs
	}
	for i := range out {
		// Position j = n−k+i enters the candidate range this round: draw t
		// from [0, j] and, if t is already chosen, take j instead.
		j := n - k + i
		t := int32(rng.Intn(j + 1))
		for _, p := range out[:i] {
			if p == t {
				t = int32(j)
				break
			}
		}
		out[i] = t
	}
	for i, p := range out {
		out[i] = nbrs[p]
	}
	return out
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

// NewBatcher creates a batcher over trainIdx with the given batch size. It
// keeps its own positive-batch-size guard: perfmodel.Workload.Validate states
// that rule for a training configuration, but perfmodel sits above this
// package, and the benchmark builds batchers directly.
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
// in MiniBatch.Blocks. vl has length L+1: vl[l] is |Src| of block l, which
// is |Dst| of block l−1, so vl[0] = |V0| (input nodes) and vl[L] = batchSize
// (the targets, block L−1's Dst); el[l] is |E| of block l.
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

package graph

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// Partition assigns every vertex to one of k parts. It is the substrate the
// multi-node extension (internal/cluster) rests on: the paper's §VII notes
// that partitioned training (DistDGL, P3) pays edge-cut communication, and
// the cluster model's CutFraction is exactly what EdgeCutFraction measures
// on a concrete partition.
type Partition struct {
	K      int
	Assign []int32 // vertex → part
	Sizes  []int64 // vertices per part
}

// PartitionGreedyBFS partitions the graph into k balanced parts by seeded
// BFS region growing (a standard METIS-like heuristic): parts grow from
// spread-out seeds, always expanding the currently-smallest part through
// the frontier of cross edges, which keeps parts connected-ish and the cut
// low on power-law graphs.
func PartitionGreedyBFS(g *Graph, k int) (*Partition, error) {
	if k <= 0 {
		return nil, fmt.Errorf("graph: partition into %d parts", k)
	}
	n := g.NumVertices
	if k > n {
		return nil, fmt.Errorf("graph: %d parts for %d vertices", k, n)
	}
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int64, k)
	// Undirected adjacency view: in-neighbors plus out-neighbors.
	rev := g.reverse()

	// A vertex pushes only neighbors that are still unassigned, so an edge
	// is pushed at most once, from whichever end is assigned first: the
	// frontiers together push at most |E|. Each starts at a quarter more
	// than an even share of that, so a frontier seldom regrows.
	frontierCap := int(g.NumEdges()/int64(k))*5/4 + 1
	frontiers := make([][]int32, k)
	for p := 0; p < k; p++ {
		seed := int32(p * (n / k))
		for assign[seed] != -1 { // seeds collide only for tiny graphs
			seed = (seed + 1) % int32(n)
		}
		assign[seed] = int32(p)
		sizes[p]++
		frontiers[p] = make([]int32, 1, frontierCap)
		frontiers[p][0] = seed
	}
	// Grow the smallest part first (min-heap by size). The heap holds one
	// entry per part, and only the popped part grows before it is pushed
	// back, so every entry is current.
	pq := make(partHeap, 0, k)
	for p := 0; p < k; p++ {
		pq.push(partEntry{part: p, size: sizes[p]})
	}
	assigned := int64(k)
	cursor := int32(0)
	for assigned < int64(n) {
		p := pq.pop().part
		v := popUnassigned(&frontiers[p], assign)
		if v == -1 {
			// Frontier exhausted: steal the next unassigned vertex.
			for assign[cursor] != -1 {
				cursor = (cursor + 1) % int32(n)
			}
			v = cursor
		}
		assign[v] = int32(p)
		sizes[p]++
		assigned++
		frontiers[p] = pushUnassigned(frontiers[p], assign, g.Neighbors(v), rev.Neighbors(v))
		pq.push(partEntry{part: p, size: sizes[p]})
	}
	return &Partition{K: k, Assign: assign, Sizes: sizes}, nil
}

// pushUnassigned appends to frontier, in order, the vertices of in and then
// of out that are still unassigned. Each is written past the frontier's end
// and kept by advancing the end by the sign bit of its assignment (−1 while
// unassigned), so no branch on the assignment is mispredicted.
func pushUnassigned(frontier, assign, in, out []int32) []int32 {
	frontier = slices.Grow(frontier, len(in)+len(out))
	n, buf := len(frontier), frontier[:cap(frontier)]
	for _, u := range in {
		buf[n] = u
		n += int(uint32(assign[u]) >> 31)
	}
	for _, u := range out {
		buf[n] = u
		n += int(uint32(assign[u]) >> 31)
	}
	return buf[:n]
}

// popUnassigned pops frontier entries until an unassigned vertex appears.
func popUnassigned(frontier *[]int32, assign []int32) int32 {
	f := *frontier
	for len(f) > 0 {
		v := f[len(f)-1]
		f = f[:len(f)-1]
		if assign[v] == -1 {
			*frontier = f
			return v
		}
	}
	*frontier = f
	return -1
}

// EdgeCutFraction returns the fraction of edges whose endpoints live in
// different parts — the CutFraction input of the cluster model. Edge ranges
// are counted on tensor.ParallelRows workers and the integer counts summed.
func (p *Partition) EdgeCutFraction(g *Graph) float64 {
	m := int(g.NumEdges())
	if m == 0 {
		return 0
	}
	chunks := max(1, tensor.FanOut(m, cutWork))
	cuts := make([]int64, chunks)
	eachChunk(m, chunks, func(c, lo, hi int) {
		var cut int64
		for dst, i := g.rowOf(lo), lo; i < hi; dst++ {
			pd := p.Assign[dst]
			for end := min(int(g.RowPtr[dst+1]), hi); i < end; i++ {
				if p.Assign[g.ColIdx[i]] != pd {
					cut++
				}
			}
		}
		cuts[c] = cut
	})
	var cut int64
	for _, c := range cuts {
		cut += c
	}
	return float64(cut) / float64(m)
}

// cutWork is one edge of EdgeCutFraction in tensor.FanOut's units: a
// random read of the source's part, ≈ 2 ns on a 2-core Sapphire Rapids Xeon.
const cutWork = 11

// Balance returns max(part size) / ideal size; 1.0 is perfectly balanced.
func (p *Partition) Balance() float64 {
	var max int64
	var total int64
	for _, s := range p.Sizes {
		total += s
		if s > max {
			max = s
		}
	}
	ideal := float64(total) / float64(p.K)
	return float64(max) / ideal
}

// validate checks the partition invariants.
func (p *Partition) validate() error {
	var total int64
	counts := make([]int64, p.K)
	for _, a := range p.Assign {
		if a < 0 || int(a) >= p.K {
			return fmt.Errorf("graph: vertex assigned to part %d of %d", a, p.K)
		}
		counts[a]++
	}
	for i, c := range counts {
		total += c
		if c != p.Sizes[i] {
			return fmt.Errorf("graph: part %d size %d, recorded %d", i, c, p.Sizes[i])
		}
	}
	if total != int64(len(p.Assign)) {
		return fmt.Errorf("graph: %d assigned of %d", total, len(p.Assign))
	}
	return nil
}

// partHeap is a min-heap of parts by current size. push and pop are
// container/heap's Push and Pop with its up and down sifts, typed, so ties
// fall as they do there and no entry is boxed.
type partEntry struct {
	part int
	size int64
}
type partHeap []partEntry

func (h *partHeap) push(e partEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *partHeap) pop() partEntry {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	h.down(0, n)
	*h = q[:n]
	return q[n]
}

func (h partHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].size < h[i].size) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h partHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].size < h[j1].size {
			j = j2 // right child
		}
		if !(h[j].size < h[i].size) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

package graph

import (
	"fmt"

	"container/heap"
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

	frontiers := make([][]int32, k)
	for p := 0; p < k; p++ {
		seed := int32(p * (n / k))
		for assign[seed] != -1 { // seeds collide only for tiny graphs
			seed = (seed + 1) % int32(n)
		}
		assign[seed] = int32(p)
		sizes[p]++
		frontiers[p] = []int32{seed}
	}
	// Grow the smallest part first (min-heap by size).
	pq := &partHeap{}
	for p := 0; p < k; p++ {
		heap.Push(pq, partEntry{part: p, size: sizes[p]})
	}
	assigned := int64(k)
	cursor := int32(0)
	for assigned < int64(n) {
		e := heap.Pop(pq).(partEntry)
		p := e.part
		if e.size != sizes[p] { // stale heap entry
			heap.Push(pq, partEntry{part: p, size: sizes[p]})
			continue
		}
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
		for _, u := range g.Neighbors(v) {
			if assign[u] == -1 {
				frontiers[p] = append(frontiers[p], u)
			}
		}
		for _, u := range rev.Neighbors(v) {
			if assign[u] == -1 {
				frontiers[p] = append(frontiers[p], u)
			}
		}
		heap.Push(pq, partEntry{part: p, size: sizes[p]})
	}
	return &Partition{K: k, Assign: assign, Sizes: sizes}, nil
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
// different parts — the CutFraction input of the cluster model.
func (p *Partition) EdgeCutFraction(g *Graph) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	var cut int64
	for dst := int32(0); int(dst) < g.NumVertices; dst++ {
		pd := p.Assign[dst]
		for _, src := range g.Neighbors(dst) {
			if p.Assign[src] != pd {
				cut++
			}
		}
	}
	return float64(cut) / float64(g.NumEdges())
}

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

// partHeap is a min-heap of parts by current size.
type partEntry struct {
	part int
	size int64
}
type partHeap []partEntry

func (h partHeap) Len() int            { return len(h) }
func (h partHeap) Less(i, j int) bool  { return h[i].size < h[j].size }
func (h partHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *partHeap) Push(x interface{}) { *h = append(*h, x.(partEntry)) }
func (h *partHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

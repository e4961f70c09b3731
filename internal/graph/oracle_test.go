package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// The sequential forms FromEdges, reverse and EdgeCutFraction had before
// they split across tensor.ParallelRows workers: the oracles the parallel
// forms are held to, bit for bit.

func fromEdgesSerial(numVertices int, edges []Edge) (*Graph, error) {
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

func reverseSerial(g *Graph) *Graph {
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

func edgeCutSerial(p *Partition, g *Graph) float64 {
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

func sameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.NumVertices != want.NumVertices || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("%s differs from the sequential oracle", what)
	}
}

// oracleCases are edge lists over vertex counts that exercise the chunk
// boundaries: RMAT above the fan-out grain (so every pass splits at 2 and 4),
// the same edges over extra isolated vertices, repeated edges, a hub that
// spans every chunk boundary, one edge, and none.
func oracleCases() []digestCase {
	cases := partitionDigestCases()
	hub := make([]Edge, 300_000)
	for i := range hub {
		hub[i] = Edge{Src: int32(i % 1000), Dst: 7}
	}
	return append(cases,
		digestCase{"hub", 1000, hub},
		digestCase{"one-edge", 3, []Edge{{2, 0}}},
		digestCase{"no-vertices", 0, nil})
}

// FromEdges, reverse and EdgeCutFraction equal their sequential forms at
// every fan-out bound.
func TestFromEdgesReverseEdgeCutMatchSerial(t *testing.T) {
	for _, c := range oracleCases() {
		want, err := fromEdgesSerial(c.n, c.edge)
		if err != nil {
			t.Fatal(err)
		}
		wantRev := reverseSerial(want)
		part := &Partition{K: 3, Assign: make([]int32, c.n), Sizes: make([]int64, 3)}
		rng := tensor.NewRNG(uint64(c.n))
		for v := range part.Assign {
			part.Assign[v] = int32(rng.Intn(3))
			part.Sizes[part.Assign[v]]++
		}
		wantCut := edgeCutSerial(part, want)
		for _, par := range []int{1, 2, 4} {
			prev := tensor.SetParallelism(par)
			t.Run(fmt.Sprintf("%s/par=%d", c.name, par), func(t *testing.T) {
				g, err := FromEdges(c.n, c.edge)
				if err != nil {
					t.Fatal(err)
				}
				sameGraph(t, "FromEdges", g, want)
				sameGraph(t, "reverse", g.reverse(), wantRev)
				if got := part.EdgeCutFraction(g); got != wantCut {
					t.Fatalf("EdgeCutFraction %v, oracle %v", got, wantCut)
				}
			})
			tensor.SetParallelism(prev)
		}
	}
}

// The error names the first out-of-range edge in edge order, whichever
// chunk holds it.
func TestFromEdgesReportsFirstBadEdge(t *testing.T) {
	edges := rmatEdges(15, 400_000, 23)
	for _, at := range []int{0, 123_457, 250_000, 399_999} {
		bad := slices.Clone(edges)
		bad[at] = Edge{Src: 1 << 15, Dst: 3}
		bad[min(at+100_001, len(bad)-1)] = Edge{Src: 5, Dst: -2} // a later bad edge, possibly in another chunk
		_, want := fromEdgesSerial(1<<15, bad)
		for _, par := range []int{1, 2, 4} {
			prev := tensor.SetParallelism(par)
			_, err := FromEdges(1<<15, bad)
			tensor.SetParallelism(prev)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("bad edge at %d, parallelism %d: error %v, want %v", at, par, err, want)
			}
		}
	}
}

// FuzzFromEdges holds FromEdges to its sequential form on arbitrary edge
// lists, in range or not, at parallelism 1 and 4 (the fuzzer's lists are
// below the fan-out grain, so the 4 leg checks the grain gate as well).
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 0, 2, 1, 2, 2, 0, 3, 2})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{0, 5})
	f.Add(uint8(2), []byte{1, 1, 1, 1, 0xff, 0})
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		edges := make([]Edge, len(raw)/2)
		for i := range edges {
			edges[i] = Edge{Src: int32(int8(raw[2*i])), Dst: int32(int8(raw[2*i+1]))}
		}
		want, wantErr := fromEdgesSerial(int(n), edges)
		for _, par := range []int{1, 4} {
			prev := tensor.SetParallelism(par)
			g, err := FromEdges(int(n), edges)
			tensor.SetParallelism(prev)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("parallelism %d: error %v, oracle %v", par, err, wantErr)
			}
			if err == nil {
				sameGraph(t, "FromEdges", g, want)
				sameGraph(t, "reverse", g.reverse(), reverseSerial(want))
			}
		}
	})
}

func BenchmarkFromEdges(b *testing.B) {
	edges := rmatEdges(16, 1_500_000, 24)
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			prev := tensor.SetParallelism(par)
			defer tensor.SetParallelism(prev)
			for i := 0; i < b.N; i++ {
				FromEdges(1<<16, edges)
			}
		})
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fromEdgesSerial(1<<16, edges)
		}
	})
}

func BenchmarkPartitionGreedyBFS(b *testing.B) {
	edges := rmatEdges(16, 1_500_000, 24)
	perm := tensor.NewRNG(25).Perm(1 << 16) // ids uncorrelated with degree, as datagen shuffles them
	for i, e := range edges {
		edges[i] = Edge{Src: perm[e.Src], Dst: perm[e.Dst]}
	}
	g, _ := FromEdges(1<<16, edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionGreedyBFS(g, 2)
	}
}

package datagen

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// generateRMATSerial is GenerateRMAT as one sequential loop: each round's
// attempts drawn in one fill call and packed one by one. It is the oracle
// the chunked rounds are held to.
func generateRMATSerial(numVertices, numEdges int, p RMATParams, rng *tensor.RNG) (*graph.Graph, error) {
	sum := p.A + p.B + p.C + p.D
	a, b, c := p.A/sum, p.B/sum, p.C/sum
	q := &rmatAttempt{
		t:           [3]uint64{rmatThreshold(a), rmatThreshold(a + b), rmatThreshold(a + b + c)},
		levels:      rmatLevels(numVertices),
		numVertices: int32(numVertices),
	}
	q.perm = rng.Perm(1 << q.levels)
	start := *rng
	edges := make([]graph.Edge, numEdges)
	kept, tried := 0, 0
	for kept < numEdges {
		need := numEdges - kept
		round := need
		if tried > 0 {
			round = min(need*tried/max(kept, 1), 16*need) + need/64 + 256
		}
		edges = slices.Grow(edges[:kept], round)[:kept+round]
		out := edges[kept:]
		q.fill(out, tried, start)
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

// ensureMinInDegreeSerial is EnsureMinInDegree drawing in vertex order on
// the caller.
func ensureMinInDegreeSerial(g *graph.Graph, min int, rng *tensor.RNG) *graph.Graph {
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
	return &graph.Graph{NumVertices: n, RowPtr: rowPtr, ColIdx: colIdx}
}

func sameGraph(a, b *graph.Graph) bool {
	return a.NumVertices == b.NumVertices && slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx)
}

// GenerateRMAT and EnsureMinInDegree equal their sequential forms (graph and
// RNG position) at every fan-out bound, on shapes whose first rounds split
// across workers: most attempts kept, a quarter kept (2^13+1 vertices),
// every attempt kept (a power of two), and a tiny graph below the grain.
func TestGenerateRMATAndEnsureMinInDegreeMatchSerial(t *testing.T) {
	cases := []struct {
		v, e, min int
		p         RMATParams
	}{
		{6000, 128_000, 1, DefaultRMAT},
		{1<<13 + 1, 100_000, 3, DefaultRMAT},
		{1 << 12, 120_000, 40, DefaultRMAT},
		{60_000, 150_000, 4, RMATParams{A: 0.25, B: 0.25, C: 0.25, D: 0.25}},
		{300, 1200, 2, DefaultRMAT},
		{1000, 0, 1, DefaultRMAT},
	}
	for _, c := range cases {
		rng := tensor.NewRNG(uint64(c.v))
		want, err := generateRMATSerial(c.v, c.e, c.p, rng)
		if err != nil {
			t.Fatal(err)
		}
		wantAfterGen := *rng
		wantMin := ensureMinInDegreeSerial(want, c.min, rng)
		wantAfterMin := *rng
		withParallelism(t, func(t *testing.T, par int) {
			if par > 1 && c.e >= 100_000 && tensor.FanOut(c.e, rmatLevels(c.v)*rmatLevelWork) < par {
				t.Fatalf("V=%d E=%d runs below the fan-out grain at parallelism %d", c.v, c.e, par)
			}
			if par > 1 && c.v == 60_000 && tensor.FanOut(c.v, 7*copyWork) < par {
				t.Fatalf("V=%d: EnsureMinInDegree runs below the fan-out grain at parallelism %d", c.v, par)
			}
			rng := tensor.NewRNG(uint64(c.v))
			g, err := GenerateRMAT(c.v, c.e, c.p, rng)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(g, want) || *rng != wantAfterGen {
				t.Fatalf("par %d, V=%d E=%d: GenerateRMAT differs from the sequential loop", par, c.v, c.e)
			}
			m, err := EnsureMinInDegree(g, c.min, rng)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(m, wantMin) || *rng != wantAfterMin {
				t.Fatalf("par %d, V=%d E=%d: EnsureMinInDegree differs from the sequential loop", par, c.v, c.e)
			}
		})
	}
}

// packSerial is pack's sequential loop: keepers copied one by one until dst
// is full.
func packSerial(dst, att []graph.Edge) (placed, used int) {
	for _, e := range att {
		if placed == len(dst) {
			break
		}
		used++
		if e != rejected {
			dst[placed] = e
			placed++
		}
	}
	return placed, used
}

// pack equals its sequential loop for every cut of the attempts into 1–9
// chunks and every destination size from 1 to past the keepers, so the
// last keeper may fall in any chunk (GenerateRMAT's rounds put it in the
// last chunk almost always).
func TestPackMatchesSerial(t *testing.T) {
	rng := tensor.NewRNG(3)
	att := make([]graph.Edge, 97)
	for i := range att {
		att[i] = graph.Edge{Src: int32(i), Dst: int32(rng.Intn(50))}
		if rng.Intn(3) == 0 {
			att[i] = rejected
		}
	}
	att[0], att[96] = rejected, rejected
	for chunks := 1; chunks <= 9; chunks++ {
		for size := 1; size <= 80; size++ {
			want := make([]graph.Edge, size)
			wantPlaced, wantUsed := packSerial(want, att)
			keep := make([]int, chunks)
			for c := range keep {
				for _, e := range att[c*len(att)/chunks : (c+1)*len(att)/chunks] {
					if e != rejected {
						keep[c]++
					}
				}
			}
			got := make([]graph.Edge, size)
			placed, used := pack(got, att, keep)
			if placed != wantPlaced || used != wantUsed || !slices.Equal(got, want) {
				t.Fatalf("%d chunks, %d slots: pack placed %d using %d attempts, want %d using %d (equal slots: %v)",
					chunks, size, placed, used, wantPlaced, wantUsed, slices.Equal(got, want))
			}
		}
	}
}

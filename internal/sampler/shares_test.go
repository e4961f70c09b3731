package sampler

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// shareCase is one generated SampleSharesInto input.
type shareCase struct {
	g       *graph.Graph
	labels  []int32
	fanouts []int
	shares  [][]int32
}

// randomShareGraph returns a graph of n vertices where about a fifth are
// isolated and the rest have up to maxDeg in-neighbours drawn with
// replacement, so repeated draws are multi-edges; every third vertex repeats
// its first edge once more.
func randomShareGraph(t *testing.T, rng *tensor.RNG, n, maxDeg int) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		if rng.Intn(5) == 0 {
			continue
		}
		d := rng.Intn(maxDeg + 1)
		for k := 0; k < d; k++ {
			edges = append(edges, graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(v)})
		}
		if d > 0 && v%3 == 0 {
			edges = append(edges, edges[len(edges)-d])
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomShareCase draws a case: small graphs (1–60 vertices, degree 0–8,
// fan-outs 0–6) that exercise the edge cases, and, when large, a 4 000-vertex
// graph with shares big enough that the input layers fan out at parallelism
// 2 and 4. 1–3 layers, a quarter of them exact; 1–6 shares, a quarter of
// them empty, with targets drawn with replacement, so a target can repeat
// within a share and across shares.
func randomShareCase(t *testing.T, rng *tensor.RNG, large bool) shareCase {
	t.Helper()
	n, maxDeg, maxFan, maxShare := 1+rng.Intn(60), 8, 6, 12
	if large {
		n, maxDeg, maxFan, maxShare = 4000, 40, 15, 1500
	}
	c := shareCase{g: randomShareGraph(t, rng, n, maxDeg), labels: make([]int32, n)}
	for v := range c.labels {
		c.labels[v] = int32(rng.Intn(7))
	}
	c.fanouts = make([]int, 1+rng.Intn(3))
	for l := range c.fanouts {
		if rng.Intn(4) > 0 {
			c.fanouts[l] = 1 + rng.Intn(maxFan)
		}
	}
	if large { // an exact layer under a large share would take every edge
		c.fanouts[0] = 5 + rng.Intn(maxFan-4)
	}
	c.shares = make([][]int32, 1+rng.Intn(6))
	for i := range c.shares {
		if rng.Intn(4) == 0 {
			continue
		}
		c.shares[i] = make([]int32, 1+rng.Intn(maxShare))
		for k := range c.shares[i] {
			c.shares[i][k] = int32(rng.Intn(n))
		}
	}
	return c
}

// inputWidth is the number of workers SampleSharesInto runs the input layers
// on, read off the sequential result: the shares' drawing input-layer
// destinations times Fanouts[0], split tensor.FanOut ways.
func inputWidth(s *Sampler, shares [][]int32, mbs []*MiniBatch) int {
	f, draws, n := s.Fanouts[0], 0, 0
	for i, targets := range shares {
		if len(targets) == 0 {
			continue
		}
		n++
		if f == 0 {
			continue
		}
		for _, v := range mbs[i].Blocks[0].Dst {
			if s.G.Degree(v) > f {
				draws += f
			}
		}
	}
	if n == 0 {
		return 0
	}
	return tensor.FanOut(n, draws*chooseWork/n)
}

// sentinel marks a mini-batch an empty share must leave alone.
func sentinel() *MiniBatch { return &MiniBatch{Targets: []int32{-7}} }

// TestSampleSharesIntoMatchesSequential pins SampleSharesInto, over generated
// cases at tensor parallelism 1, 2 and 4, to SampleInto over the non-empty
// shares in index order: every block, target and label bitwise, the rng's end
// state, and an empty share's mini-batch untouched. Each case samples twice
// into the same mini-batches and samplers, the second time with the shares
// reversed, so storage and stamps carry over. At parallelism 2 and 4 some
// large cases must run the input layers on more than one worker.
func TestSampleSharesIntoMatchesSequential(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	const cases = 48
	fanned := map[int]int{}
	gen := tensor.NewRNG(58)
	for c := 0; c < cases; c++ {
		large := c%4 == 0
		sc := randomShareCase(t, gen, large)
		for _, par := range []int{1, 2, 4} {
			tensor.SetParallelism(par)
			seq, err := New(sc.g, sc.fanouts, sc.labels)
			if err != nil {
				t.Fatal(err)
			}
			shared, _ := New(sc.g, sc.fanouts, sc.labels)
			want, got := make([]*MiniBatch, len(sc.shares)), make([]*MiniBatch, len(sc.shares))
			for i := range want {
				want[i], got[i] = &MiniBatch{}, &MiniBatch{}
			}
			wantRNG, gotRNG := tensor.NewRNG(uint64(c)), tensor.NewRNG(uint64(c))
			for round := 0; round < 2; round++ {
				shares := sc.shares
				if round == 1 { // reversed: each index's storage meets another size
					shares = make([][]int32, len(sc.shares))
					for i := range shares {
						shares[i] = sc.shares[len(sc.shares)-1-i]
					}
				}
				for i, targets := range shares {
					if len(targets) == 0 {
						got[i] = sentinel()
						continue
					}
					if err := seq.SampleInto(want[i], targets, wantRNG); err != nil {
						t.Fatal(err)
					}
				}
				if err := shared.SampleSharesInto(got, shares, gotRNG); err != nil {
					t.Fatal(err)
				}
				for i, targets := range shares {
					if len(targets) == 0 {
						if len(got[i].Targets) != 1 || got[i].Targets[0] != -7 || got[i].Blocks != nil {
							t.Fatalf("case %d par %d round %d: empty share %d's mini-batch was touched", c, par, round, i)
						}
						got[i] = &MiniBatch{}
						continue
					}
					for l, b := range got[i].Blocks {
						if err := b.Validate(); err != nil {
							t.Fatalf("case %d par %d round %d share %d block %d: %v", c, par, round, i, l, err)
						}
					}
					mbEqual(t, want[i], got[i])
				}
				if *gotRNG != *wantRNG {
					t.Fatalf("case %d par %d round %d: rng left at %v, sequential at %v", c, par, round, *gotRNG, *wantRNG)
				}
				if inputWidth(seq, shares, want) > 1 {
					fanned[par]++
				}
			}
		}
	}
	for _, par := range []int{2, 4} {
		if fanned[par] == 0 {
			t.Errorf("parallelism %d: no case ran its input layers on more than one worker", par)
		}
	}
}

// TestSampleSharesIntoRejectsBeforeDrawing: an out-of-range target in any
// share, or a mini-batch count unequal to the share count, is an error
// returned before the first draw: rng has not moved and no mini-batch was
// touched.
func TestSampleSharesIntoRejectsBeforeDrawing(t *testing.T) {
	g := testGraph(t, 200, 2000, 26)
	s, _ := New(g, []int{5, 3}, nil)
	for name, shares := range map[string][][]int32{
		"negative target in the last share": {{1, 2, 3}, nil, {4, -1}},
		"target past the last vertex":       {{1, 2, 3}, {200}},
	} {
		rng := tensor.NewRNG(4)
		before := *rng
		mbs := make([]*MiniBatch, len(shares))
		for i := range mbs {
			mbs[i] = sentinel()
		}
		if err := s.SampleSharesInto(mbs, shares, rng); err == nil {
			t.Fatalf("%s: no error", name)
		}
		if *rng != before {
			t.Fatalf("%s: rng moved", name)
		}
		for i, mb := range mbs {
			if len(mb.Targets) != 1 || mb.Targets[0] != -7 || mb.Blocks != nil {
				t.Fatalf("%s: mini-batch %d was touched", name, i)
			}
		}
	}
	if err := s.SampleSharesInto(make([]*MiniBatch, 1), make([][]int32, 2), tensor.NewRNG(4)); err == nil {
		t.Fatal("1 mini-batch for 2 shares: no error")
	}
}

// TestSampleSharesIntoAllocs: a warm call allocates nothing at parallelism
// 1, and at parallelism 2 and 4 no more than the workers it spawns, on a
// case whose input layers fan out across shares while no layer's choose
// pass is large enough to fan out on its own (20 000 vertices of in-degree
// 12, fan-outs (10, 4), four shares of 400 targets: at most 2 000 drawing
// input destinations a share).
func TestSampleSharesIntoAllocs(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	const n = 20000
	rng := tensor.NewRNG(27)
	edges := make([]graph.Edge, 0, 12*n)
	for v := 0; v < n; v++ {
		for k := 0; k < 12; k++ {
			edges = append(edges, graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(v)})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(g, []int{10, 4}, make([]int32, n))
	shares := make([][]int32, 4)
	mbs := make([]*MiniBatch, len(shares))
	for i := range shares {
		shares[i] = make([]int32, 400)
		for k := range shares[i] {
			shares[i][k] = int32(rng.Intn(n))
		}
		mbs[i] = &MiniBatch{}
	}
	for _, par := range []int{1, 2, 4} {
		tensor.SetParallelism(par)
		for i := 0; i < 3; i++ { // warm: storage, stamps and worker scratch
			if err := s.SampleSharesInto(mbs, shares, rng); err != nil {
				t.Fatal(err)
			}
		}
		width := inputWidth(s, shares, mbs)
		if par > 1 && width != par {
			t.Fatalf("parallelism %d: input layers split %d ways", par, width)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := s.SampleSharesInto(mbs, shares, rng); err != nil {
				t.Fatal(err)
			}
		})
		if spawns := max(0, width-1); allocs > float64(spawns) {
			t.Errorf("parallelism %d: %.1f allocations per call, want at most its %d spawns", par, allocs, spawns)
		}
	}
}

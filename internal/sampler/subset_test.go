package sampler

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// star returns a graph whose vertex 0 has the n in-neighbours 1..n and no
// other edges.
func star(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(i + 1), Dst: 0}
	}
	g, err := graph.FromEdges(n+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSampleDrawCount pins the sampler's cost model without a clock: drawing
// k of a destination's n neighbours advances the rng by exactly k outputs
// when n > k — at n = k+1 and at n = 100 000 alike — and by none when n ≤ k.
// A copy of the generator advanced by hand must land on the same next output
// as the one the sampler consumed. (Algorithm R, which this replaced, made
// n−k draws and fails every n > k row but n = 2k.)
func TestSampleDrawCount(t *testing.T) {
	for _, k := range []int{1, 10, 25} {
		for _, n := range []int{0, 1, k - 1, k, k + 1, 2 * k, 10 * k, 100000} {
			want := 0
			if n > k {
				want = k
			}
			s, err := New(star(t, n), []int{k}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, form := range []string{"Sample", "SampleInto"} {
				rng := tensor.NewRNG(uint64(31*n + k))
				twin := *rng
				mb := &MiniBatch{}
				if form == "Sample" {
					mb, err = s.Sample([]int32{0}, rng)
				} else {
					err = s.SampleInto(mb, []int32{0}, rng)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := mb.Blocks[0].NumEdges(); got != min(n, k) {
					t.Fatalf("%s k=%d n=%d: kept %d neighbours, want %d", form, k, n, got, min(n, k))
				}
				for i := 0; i < want; i++ {
					twin.Uint64()
				}
				if rng.Uint64() != twin.Uint64() {
					t.Fatalf("%s k=%d n=%d: sampler did not consume exactly %d rng draws", form, k, n, want)
				}
			}
		}
	}
}

// identity returns [0, 1, ..., n-1]: a neighbour list whose values are their
// own positions.
func identity(n int) []int32 {
	nbrs := make([]int32, n)
	for i := range nbrs {
		nbrs[i] = int32(i)
	}
	return nbrs
}

// TestSampleUniformSubsets holds the subset draw to the distribution it
// claims, deterministically (fixed seeds): every one of the C(12,3) = 220
// position-subsets equally likely by a χ² test, and, at the shapes the tree
// samples at (fanout just under, half of, and far below the degree), every
// position included with frequency k/n.
func TestSampleUniformSubsets(t *testing.T) {
	t.Run("chi2", func(t *testing.T) {
		const n, k, perCell = 12, 3, 2000
		// index maps a sorted position triple to its rank among the 220.
		index := map[[k]int32]int{}
		for a := int32(0); a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c := b + 1; c < n; c++ {
					index[[k]int32{a, b, c}] = len(index)
				}
			}
		}
		cells := len(index)
		counts := make([]int, cells)
		nbrs, out, rng := identity(n), make([]int32, k), tensor.NewRNG(12)
		for i := 0; i < cells*perCell; i++ {
			got := sampleWithoutReplacement(nbrs, out, rng)
			key := [k]int32{got[0], got[1], got[2]}
			slices.Sort(key[:])
			cell, ok := index[key]
			if !ok {
				t.Fatalf("draw %d: %v is not a 3-subset of 12 positions", i, got)
			}
			counts[cell]++
		}
		var chi2 float64
		for _, c := range counts {
			d := float64(c - perCell)
			chi2 += d * d / perCell
		}
		// 99.9 % quantile of χ² with 219 degrees of freedom (Wilson–Hilferty:
		// 219·(1 − 2/1971 + 3.0902·√(2/1971))³).
		const crit = 289.5
		if chi2 > crit {
			t.Fatalf("χ² = %.1f over %d subsets exceeds the 99.9 %% quantile %.1f", chi2, cells, crit)
		}
	})
	for _, sh := range []struct{ n, k, trials int }{
		{26, 25, 20000}, {50, 25, 20000}, {1000, 10, 200000},
	} {
		counts := make([]int, sh.n)
		nbrs, out, rng := identity(sh.n), make([]int32, sh.k), tensor.NewRNG(uint64(sh.n))
		for i := 0; i < sh.trials; i++ {
			for _, p := range sampleWithoutReplacement(nbrs, out, rng) {
				counts[p]++
			}
		}
		p := float64(sh.k) / float64(sh.n)
		mean := float64(sh.trials) * p
		sigma := math.Sqrt(float64(sh.trials) * p * (1 - p))
		for pos, c := range counts {
			if math.Abs(float64(c)-mean) > 4*sigma {
				t.Fatalf("n=%d k=%d: position %d included %d times, want %.0f ± %.0f (4σ)",
					sh.n, sh.k, pos, c, mean, 4*sigma)
			}
		}
	}
}

// TestSampleUniformByPositionNotValue: a neighbour list is a multiset — a
// multi-edge lists its source once per edge — and the draw is over its
// positions, so a vertex listed m times of n is drawn in proportion to m
// and can be drawn twice for one destination.
func TestSampleUniformByPositionNotValue(t *testing.T) {
	const n, k, trials = 12, 3, 100000
	nbrs := []int32{7, 7, 7, 7, 7, 7, 3, 3, 3, 9, 9, 5}
	mult := map[int32]int{7: 6, 3: 3, 9: 2, 5: 1}
	seen := map[int32]int{}
	repeated := false
	out, rng := make([]int32, k), tensor.NewRNG(5)
	for i := 0; i < trials; i++ {
		got := sampleWithoutReplacement(nbrs, out, rng)
		if len(got) != k {
			t.Fatalf("drew %d of %d, want %d", len(got), n, k)
		}
		for _, v := range got {
			seen[v]++
		}
		repeated = repeated || got[0] == got[1] || got[1] == got[2] || got[0] == got[2]
	}
	if !repeated {
		t.Fatal("no draw ever kept two edges of a multi-edge: sampling is by value, not position")
	}
	for v, m := range mult {
		// Occurrences of v in one draw are hypergeometric(n, m, k).
		f := float64(m) / n
		mean := trials * k * f
		sigma := math.Sqrt(trials * k * f * (1 - f) * float64(n-k) / float64(n-1))
		if math.Abs(float64(seen[v])-mean) > 4*sigma {
			t.Fatalf("vertex %d (listed %d× of %d): drawn %d times, want %.0f ± %.0f (4σ)",
				v, m, n, seen[v], mean, 4*sigma)
		}
	}
}

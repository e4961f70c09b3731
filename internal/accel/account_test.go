package accel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gnn"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// genMiniBatch builds a structurally valid mini-batch over the given layer
// sizes (sizes[0] input vertices down to sizes[L] targets; non-increasing so
// every Dst is a prefix of its Src). Destination degrees are drawn from
// [0, maxDeg] — zero-degree destinations included — and sources uniformly
// with replacement, so duplicate (src,dst) pairs occur; hub >= 0 instead
// routes every edge through that one source.
func genMiniBatch(rng *tensor.RNG, sizes []int, maxDeg, hub int) *sampler.MiniBatch {
	ids := make([]int32, sizes[0])
	for i := range ids {
		ids[i] = int32(1000 + 3*i)
	}
	mb := &sampler.MiniBatch{}
	for l := 0; l+1 < len(sizes); l++ {
		ns, nd := sizes[l], sizes[l+1]
		b := &sampler.Block{Src: ids[:ns], Dst: ids[:nd], RowPtr: make([]int32, nd+1)}
		for d := 0; d < nd; d++ {
			for k := rng.Intn(maxDeg + 1); k > 0; k-- {
				s := hub
				if hub < 0 {
					s = rng.Intn(ns)
				}
				b.Col = append(b.Col, int32(s))
			}
			b.RowPtr[d+1] = int32(len(b.Col))
		}
		mb.Blocks = append(mb.Blocks, b)
	}
	mb.Targets = ids[:sizes[len(sizes)-1]]
	return mb
}

type accountCase struct {
	name   string
	sizes  []int
	maxDeg int
	hub    int
}

// accountCases covers the shapes the split must agree on: 1–3 layers, an
// empty block, a batch with no targets, zero-degree destinations and
// duplicate pairs (any maxDeg > 0 case), and one source feeding everything.
func accountCases() []accountCase {
	return []accountCase{
		{"1-layer", []int{40, 9}, 6, -1},
		{"2-layer", []int{120, 30, 7}, 5, -1},
		{"3-layer", []int{200, 60, 20, 5}, 4, -1},
		{"dense-duplicates", []int{6, 5, 4}, 12, -1},
		{"no-edges", []int{30, 10, 3}, 0, -1},
		{"no-targets", []int{10, 0, 0}, 3, -1},
		{"single-vertex", []int{1, 1, 1}, 3, -1},
		{"one-source-hub", []int{50, 20, 8}, 5, 0},
		{"last-source-hub", []int{8, 8, 8}, 3, 7},
	}
}

var accountKinds = []gnn.Kind{gnn.GCN, gnn.SAGE, gnn.GIN}

// forEachAccountCase runs fn over kinds × shapes × seeds with a fresh model,
// mini-batch and feature matrix. Widths straddle the AVX2 lane count (8) so
// the vector bodies and their scalar tails both run.
func forEachAccountCase(t *testing.T, fn func(t *testing.T, m *gnn.Model, mb *sampler.MiniBatch, x *tensor.Matrix)) {
	widths := []int{19, 33, 9, 6}
	for _, kind := range accountKinds {
		for _, c := range accountCases() {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%v/%s/seed%d", kind, c.name, seed), func(t *testing.T) {
					rng := tensor.NewRNG(seed)
					dims := widths[:len(c.sizes)]
					m, err := gnn.NewModel(gnn.Config{Kind: kind, Dims: dims, GINEps: 0.3}, rng)
					if err != nil {
						t.Fatal(err)
					}
					mb := genMiniBatch(rng, c.sizes, c.maxDeg, c.hub)
					for _, b := range mb.Blocks {
						if err := b.Validate(); err != nil {
							t.Fatal(err)
						}
					}
					x := tensor.New(c.sizes[0], dims[0])
					tensor.NormalInit(x, 1, rng)
					fn(t, m, mb, x)
				})
			}
		}
	}
}

// Account is the whole of Forward's hardware accounting, computed from the
// blocks' structure alone: it must equal, field for field, both the stats
// Forward returns and the stats the pre-split Forward counted run by run
// over its sorted stream.
func TestAccountMatchesForwardStats(t *testing.T) {
	forEachAccountCase(t, func(t *testing.T, m *gnn.Model, mb *sampler.MiniBatch, x *tensor.Matrix) {
		bk := U250Backend(m.Cfg.Dims[0])
		bk.SG.NumPEs = 3 // make ceil(deg/NumPEs) bite on small degrees
		acct, err := bk.Account(m.Cfg, mb)
		if err != nil {
			t.Fatal(err)
		}
		got := *acct // Forward reuses the Backend's stats slot
		_, fwd, err := bk.Forward(m, mb, x)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := forwardOracle(&bk, m, mb, x)
		if err != nil {
			t.Fatal(err)
		}
		if got != *fwd {
			t.Errorf("Account %+v != Forward stats %+v", got, *fwd)
		}
		if got != want {
			t.Errorf("Account %+v != oracle stats %+v", got, want)
		}
	})
}

// Account validates what Forward validated: block count and both kernel
// configurations.
func TestAccountValidation(t *testing.T) {
	rng := tensor.NewRNG(5)
	cfg := gnn.Config{Kind: gnn.GCN, Dims: []int{8, 4}}
	mb := genMiniBatch(rng, []int{10, 4, 2}, 3, -1)
	bk := U250Backend(8)
	if _, err := bk.Account(cfg, mb); err == nil {
		t.Fatal("expected layer-count error")
	}
	mb = genMiniBatch(rng, []int{10, 4}, 3, -1)
	bad := U250Backend(8)
	bad.SG.NumPEs = 0
	if _, err := bad.Account(cfg, mb); err == nil {
		t.Fatal("expected scatter-gather config error")
	}
	bad = U250Backend(8)
	bad.Systolic.NumMACs = 0
	if _, err := bad.Account(cfg, mb); err == nil {
		t.Fatal("expected systolic config error")
	}
}

// Forward's logits are the reference inference's: at every SIMD level the
// CPU has, across two passes through one Backend (its arena reused), they
// must equal m.InferMiniBatchWS on a fresh arena bit for bit, and stay within
// float reassociation of the pre-split dataflow-order logits forwardOracle
// computes — the source-sorted scatter order the account charges changes no
// number beyond rounding.
func TestForwardOracleBitwise(t *testing.T) {
	for lvl := tensor.SIMDGeneric; lvl <= tensor.DetectedSIMDLevel(); lvl++ {
		t.Run(lvl.String(), func(t *testing.T) {
			prev, err := tensor.SetSIMDLevel(lvl)
			if err != nil {
				t.Fatal(err)
			}
			defer tensor.SetSIMDLevel(prev)
			shared := U250Backend(1)
			forEachAccountCase(t, func(t *testing.T, m *gnn.Model, mb *sampler.MiniBatch, x *tensor.Matrix) {
				want, err := m.InferMiniBatchWS(tensor.NewWorkspace(), mb, x)
				if err != nil {
					t.Fatal(err)
				}
				dataflow, _, err := forwardOracle(&shared, m, mb, x)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					got, _, err := shared.Forward(m, mb, x)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) || got.Rows != dataflow.Rows || got.Cols != dataflow.Cols {
						t.Fatalf("pass %d: logits differ from the reference inference", pass)
					}
					for i, v := range dataflow.Data {
						if d := math.Abs(float64(got.Data[i]) - float64(v)); d > 1e-5*(1+math.Abs(float64(v))) {
							t.Fatalf("pass %d: logit %d is %g, dataflow order gives %g", pass, i, got.Data[i], v)
						}
					}
				}
			})
		})
	}
}

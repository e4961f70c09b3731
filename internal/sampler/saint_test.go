package sampler

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/tensor"
)

func TestNewSaintValidation(t *testing.T) {
	g := testGraph(t, 100, 400, 30)
	if _, err := NewSaint(g, 0, 3, 2, nil); err == nil {
		t.Fatal("expected error for zero roots")
	}
	if _, err := NewSaint(g, 8, 0, 2, nil); err == nil {
		t.Fatal("expected error for zero walk length")
	}
	if _, err := NewSaint(g, 8, 3, 0, nil); err == nil {
		t.Fatal("expected error for zero layers")
	}
	if _, err := NewSaint(g, 8, 3, 2, make([]int32, 5)); err == nil {
		t.Fatal("expected error for label mismatch")
	}
}

func TestSaintSampleStructure(t *testing.T) {
	g := testGraph(t, 400, 3200, 31)
	labels := make([]int32, 400)
	for i := range labels {
		labels[i] = int32(i % 5)
	}
	s, err := NewSaint(g, 16, 4, 2, labels)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := s.SampleN(s.Roots, tensor.NewRNG(32))
	if err != nil {
		t.Fatal(err)
	}
	if len(mb.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(mb.Blocks))
	}
	for l, b := range mb.Blocks {
		if err := b.Validate(); err != nil {
			t.Fatalf("block %d: %v", l, err)
		}
		// SAINT blocks are square: Src == Dst.
		if len(b.Src) != len(b.Dst) {
			t.Fatalf("block %d not square", l)
		}
	}
	if len(mb.Targets) == 0 || len(mb.Targets) > 16*5 {
		t.Fatalf("subgraph size %d implausible for 16 roots x 4 steps", len(mb.Targets))
	}
	for i, v := range mb.Targets {
		if mb.Labels[i] != labels[v] {
			t.Fatal("labels wrong")
		}
	}
}

// Induced edges must be exactly the original edges among visited vertices.
func TestSaintInducedEdgesAreReal(t *testing.T) {
	g := testGraph(t, 300, 2400, 33)
	s, _ := NewSaint(g, 12, 3, 1, nil)
	mb, err := s.SampleN(s.Roots, tensor.NewRNG(34))
	if err != nil {
		t.Fatal(err)
	}
	b := mb.Blocks[0]
	inSub := map[int32]bool{}
	for _, v := range b.Src {
		inSub[v] = true
	}
	for d := 0; d < len(b.Dst); d++ {
		want := 0
		for _, u := range g.Neighbors(b.Dst[d]) {
			if inSub[u] {
				want++
			}
		}
		got := int(b.RowPtr[d+1] - b.RowPtr[d])
		if got != want {
			t.Fatalf("vertex %d: induced degree %d, want %d", b.Dst[d], got, want)
		}
		for _, c := range b.Col[b.RowPtr[d]:b.RowPtr[d+1]] {
			u := b.Src[c]
			found := false
			for _, real := range g.Neighbors(b.Dst[d]) {
				if real == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("induced edge (%d<-%d) not in the original graph", b.Dst[d], u)
			}
		}
	}
}

func TestSaintDeterministic(t *testing.T) {
	g := testGraph(t, 200, 1600, 35)
	s, _ := NewSaint(g, 8, 3, 2, nil)
	a, _ := s.SampleN(s.Roots, tensor.NewRNG(9))
	b, _ := s.SampleN(s.Roots, tensor.NewRNG(9))
	if len(a.Targets) != len(b.Targets) {
		t.Fatal("not deterministic")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatal("targets differ")
		}
	}
}

// A SAINT mini-batch must train end-to-end through the GNN stack.
func TestSaintTrainsEndToEnd(t *testing.T) {
	spec := datagen.Spec{Name: "saint", NumVertices: 400, NumEdges: 3200, FeatDims: []int{8, 8, 3}}
	ds, err := datagen.Materialize(spec, 1.0, tensor.NewRNG(38))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSaint(ds.Graph, 20, 3, 2, ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := s.SampleN(s.Roots, tensor.NewRNG(39))
	if err != nil {
		t.Fatal(err)
	}
	if mb.EdgesTraversed() == 0 {
		t.Skip("degenerate subgraph with no induced edges")
	}
	if len(mb.InputNodes()) != len(mb.Targets) {
		t.Fatal("SAINT input nodes should equal the subgraph")
	}
}

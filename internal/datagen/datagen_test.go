package datagen

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestGenerateRMATBasic(t *testing.T) {
	rng := tensor.NewRNG(1)
	g, err := GenerateRMAT(1000, 5000, DefaultRMAT, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 1000 {
		t.Fatalf("NumVertices = %d", g.NumVertices)
	}
	if g.NumEdges() != 5000 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateRMATRejectsBadInput(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, err := GenerateRMAT(0, 10, DefaultRMAT, rng); err == nil {
		t.Fatal("expected error for 0 vertices")
	}
	if _, err := GenerateRMAT(10, -1, DefaultRMAT, rng); err == nil {
		t.Fatal("expected error for negative edges")
	}
	if _, err := GenerateRMAT(10, 10, RMATParams{}, rng); err == nil {
		t.Fatal("expected error for zero probabilities")
	}
	if _, err := GenerateRMAT(10, 10, RMATParams{A: 0.8, B: -0.1, C: 0.2, D: 0.1}, rng); err == nil {
		t.Fatal("expected error for a negative probability")
	}
}

func TestGenerateRMATDeterministic(t *testing.T) {
	g1, _ := GenerateRMAT(256, 1024, DefaultRMAT, tensor.NewRNG(7))
	g2, _ := GenerateRMAT(256, 1024, DefaultRMAT, tensor.NewRNG(7))
	for i := range g1.ColIdx {
		if g1.ColIdx[i] != g2.ColIdx[i] {
			t.Fatal("RMAT not deterministic for fixed seed")
		}
	}
}

// The skewed RMAT parameterisation must produce a heavier-tailed in-degree
// distribution than uniform: top-1% vertices should hold well over 1% of
// edges.
func TestRMATIsSkewed(t *testing.T) {
	rng := tensor.NewRNG(3)
	g, err := GenerateRMAT(4096, 65536, DefaultRMAT, rng)
	if err != nil {
		t.Fatal(err)
	}
	deg := g.InDegrees()
	sorted := make([]int32, len(deg))
	copy(sorted, deg)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	top := int64(0)
	for _, d := range sorted[:41] { // top 1%
		top += int64(d)
	}
	frac := float64(top) / float64(g.NumEdges())
	if frac < 0.05 {
		t.Fatalf("top-1%% vertices hold only %.2f%% of edges; RMAT not skewed", frac*100)
	}
}

func TestEnsureMinInDegree(t *testing.T) {
	rng := tensor.NewRNG(4)
	g, err := GenerateRMAT(500, 600, DefaultRMAT, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref := *rng
	g2, err := EnsureMinInDegree(g, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range g2.InDegrees() {
		if d < 2 {
			t.Fatalf("vertex with in-degree %d after EnsureMinInDegree(2)", d)
		}
	}
	if g2.NumEdges() < g.NumEdges() {
		t.Fatal("EnsureMinInDegree dropped edges")
	}

	// The edge-list round trip it replaces: every edge in CSR order, the
	// drawn sources appended in vertex order, regrouped by destination.
	edges, in := g.EdgeList(), g.InDegrees()
	for v := 0; v < g.NumVertices; v++ {
		for d := int(in[v]); d < 2; d++ {
			edges = append(edges, graph.Edge{Src: int32(ref.Intn(g.NumVertices)), Dst: int32(v)})
		}
	}
	want, err := graph.FromEdges(g.NumVertices, edges)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g2.RowPtr, want.RowPtr) || !slices.Equal(g2.ColIdx, want.ColIdx) {
		t.Fatal("EnsureMinInDegree differs from the edge-list round trip")
	}
	if *rng != ref {
		t.Fatal("EnsureMinInDegree left the RNG at a different draw than the round trip")
	}
}

func TestPaperSpecsMatchTable3(t *testing.T) {
	cases := []struct {
		spec Spec
		v, e int64
		f    [3]int
	}{
		{OGBNProducts, 2_449_029, 61_859_140, [3]int{100, 256, 47}},
		{OGBNPapers100M, 111_059_956, 1_615_685_872, [3]int{128, 256, 172}},
		{MAG240MHomo, 121_751_666, 1_297_748_926, [3]int{756, 256, 153}},
	}
	for _, c := range cases {
		if c.spec.NumVertices != c.v || c.spec.NumEdges != c.e {
			t.Fatalf("%s: V=%d E=%d", c.spec.Name, c.spec.NumVertices, c.spec.NumEdges)
		}
		for i, f := range c.f {
			if c.spec.FeatDims[i] != f {
				t.Fatalf("%s: f%d = %d, want %d", c.spec.Name, i, c.spec.FeatDims[i], f)
			}
		}
		if c.spec.Layers() != 2 {
			t.Fatalf("%s: Layers = %d", c.spec.Name, c.spec.Layers())
		}
	}
}

func TestSpecByName(t *testing.T) {
	s, err := SpecByName("ogbn-products")
	if err != nil || s.NumVertices != OGBNProducts.NumVertices {
		t.Fatalf("SpecByName: %v %v", s, err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestScaled(t *testing.T) {
	s := OGBNPapers100M.Scaled(100_000)
	if s.NumVertices <= 0 || s.NumEdges < s.NumVertices {
		t.Fatalf("Scaled produced degenerate spec: %+v", s)
	}
	if s.NumClasses() != OGBNPapers100M.NumClasses() {
		t.Fatal("Scaled changed feature dims")
	}
	// Tiny scale clamps to the floor.
	tiny := OGBNProducts.Scaled(1 << 40)
	if tiny.NumVertices < 64 {
		t.Fatalf("Scaled floor broken: %+v", tiny)
	}
}

func TestMaterializeRefusesFullScale(t *testing.T) {
	if _, err := Materialize(OGBNPapers100M, 0.1, tensor.NewRNG(1)); err == nil {
		t.Fatal("expected refusal to materialise 111M vertices")
	}
}

func TestMaterializeSmall(t *testing.T) {
	spec := Spec{Name: "test", NumVertices: 300, NumEdges: 1200, FeatDims: []int{16, 8, 5}}
	ds, err := Materialize(spec, 0.5, tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Features.Rows != 300 || ds.Features.Cols != 16 {
		t.Fatalf("features %dx%d", ds.Features.Rows, ds.Features.Cols)
	}
	if len(ds.Labels) != 300 {
		t.Fatalf("labels %d", len(ds.Labels))
	}
	for _, l := range ds.Labels {
		if l < 0 || int(l) >= 5 {
			t.Fatalf("label %d out of range", l)
		}
	}
	if len(ds.TrainIdx) != 150 {
		t.Fatalf("train split %d, want 150", len(ds.TrainIdx))
	}
	seen := map[int32]bool{}
	for _, v := range ds.TrainIdx {
		if seen[v] {
			t.Fatal("duplicate train index")
		}
		seen[v] = true
	}
	for _, d := range ds.Graph.InDegrees() {
		if d < 1 {
			t.Fatal("materialised graph has isolated vertex")
		}
	}
}

func TestMaterializeRejectsBadFraction(t *testing.T) {
	spec := Spec{Name: "t", NumVertices: 100, NumEdges: 200, FeatDims: []int{4, 4, 2}}
	if _, err := Materialize(spec, 0, tensor.NewRNG(1)); err == nil {
		t.Fatal("expected error for trainFraction 0")
	}
	if _, err := Materialize(spec, 1.5, tensor.NewRNG(1)); err == nil {
		t.Fatal("expected error for trainFraction > 1")
	}
}

// Features must carry class signal: same-class pairs closer than cross-class.
func TestMaterializeFeaturesCarrySignal(t *testing.T) {
	spec := Spec{Name: "sig", NumVertices: 200, NumEdges: 400, FeatDims: []int{8, 8, 3}}
	ds, err := Materialize(spec, 1.0, tensor.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	dist := func(a, b []float32) float64 {
		var s float64
		for i := range a {
			d := float64(a[i] - b[i])
			s += d * d
		}
		return math.Sqrt(s)
	}
	var same, cross float64
	var nSame, nCross int
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			d := dist(ds.Features.Row(i), ds.Features.Row(j))
			if ds.Labels[i] == ds.Labels[j] {
				same += d
				nSame++
			} else {
				cross += d
				nCross++
			}
		}
	}
	if nSame == 0 || nCross == 0 {
		t.Skip("degenerate class split")
	}
	if same/float64(nSame) >= cross/float64(nCross) {
		t.Fatalf("same-class distance %.3f >= cross-class %.3f; no signal",
			same/float64(nSame), cross/float64(nCross))
	}
}

func TestScaledTrainNodes(t *testing.T) {
	s := OGBNPapers100M.Scaled(1000)
	if s.TrainNodes != OGBNPapers100M.TrainNodes/1000 {
		t.Fatalf("TrainNodes = %d", s.TrainNodes)
	}
	if s.TrainNodes > s.NumVertices {
		t.Fatal("train split exceeds vertex count")
	}
	tiny := OGBNProducts.Scaled(1 << 40)
	if tiny.TrainNodes < 1 || tiny.TrainNodes > tiny.NumVertices {
		t.Fatalf("tiny TrainNodes = %d of %d", tiny.TrainNodes, tiny.NumVertices)
	}
}

// Property: Scaled never increases counts and keeps invariant E >= V floor.
func TestScaledProperty(t *testing.T) {
	f := func(factorRaw uint32) bool {
		factor := int64(factorRaw%1_000_000) + 1
		s := MAG240MHomo.Scaled(factor)
		return s.NumVertices <= MAG240MHomo.NumVertices &&
			s.NumEdges <= MAG240MHomo.NumEdges &&
			s.NumVertices >= 64 && s.NumEdges >= s.NumVertices
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

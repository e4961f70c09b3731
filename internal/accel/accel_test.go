package accel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

func sgConfig() ScatterGatherConfig {
	return ScatterGatherConfig{NumPEs: 4, FeatWidth: 8, BytesPerCycle: 64, FetchLatency: 20}
}

func TestScatterGatherConfigValidate(t *testing.T) {
	if (ScatterGatherConfig{}).validate() == nil {
		t.Fatal("zero config should fail")
	}
	if sgConfig().validate() != nil {
		t.Fatal("valid config rejected")
	}
}

// blockEdges lists b's edges over block-local indices in CSR order
// (destination-major): the stream an engine without source sorting sees.
func blockEdges(b *sampler.Block) []graph.Edge {
	edges := make([]graph.Edge, 0, b.NumEdges())
	for d := 0; d+1 < len(b.RowPtr); d++ {
		for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
			edges = append(edges, graph.Edge{Src: b.Col[e], Dst: int32(d)})
		}
	}
	return edges
}

// chargeStream charges an edge stream as the scatter-gather engine executes
// it: one chargeRun per run of consecutive edges sharing a source. Account
// charges the source-sorted stream, whose runs are the sources' out-degrees.
func chargeStream(sg ScatterGatherConfig, edges []graph.Edge) sgAccount {
	var acc sgAccount
	run := 0
	for i, e := range edges {
		if i > 0 && e.Src != edges[i-1].Src {
			sg.chargeRun(&acc, run)
			run = 0
		}
		run++
	}
	if run > 0 {
		sg.chargeRun(&acc, run)
	}
	return acc
}

// distinctSources counts the sources b's edges read.
func distinctSources(b *sampler.Block) int {
	seen := map[int32]bool{}
	for _, s := range b.Col {
		seen[s] = true
	}
	return len(seen)
}

// sgBackend is the U250 design point with sgConfig's scatter-gather engine.
func sgBackend() Backend {
	bk := U250Backend(8)
	bk.SG = sgConfig()
	return bk
}

// The paper's traffic claim (§IV-C): Account charges the source-sorted
// stream, which fetches each distinct source once — traffic O(|V0|) — while
// the same block's edges in CSR order cost one fetch per source run, up to
// one per edge — traffic O(|E1|).
func TestScatterGatherTraffic(t *testing.T) {
	const nSrc = 10
	mb := genMiniBatch(tensor.NewRNG(2), []int{nSrc, nSrc}, 80, -1)
	b := mb.Blocks[0]
	if distinctSources(b) != nSrc {
		t.Fatalf("fixture reads %d of %d sources", distinctSources(b), nSrc)
	}
	bk := sgBackend()
	sorted, err := bk.Account(gnn.Config{Kind: gnn.GCN, Dims: []int{8, 4}}, mb)
	if err != nil {
		t.Fatal(err)
	}
	if sorted.FeatureFetches != nSrc {
		t.Fatalf("sorted fetches = %d, want %d distinct sources", sorted.FeatureFetches, nSrc)
	}
	if sorted.TrafficBytes != int64(nSrc)*8*4 {
		t.Fatalf("sorted traffic = %d bytes", sorted.TrafficBytes)
	}
	edges := blockEdges(b)
	unsorted := chargeStream(bk.SG, edges)
	if unsorted.fetches != graph.CountSourceRuns(edges) {
		t.Fatalf("unsorted fetches = %d, want %d source runs", unsorted.fetches, graph.CountSourceRuns(edges))
	}
	if unsorted.fetches <= 20*sorted.FeatureFetches {
		t.Fatalf("unsorted fetches %d should far exceed sorted %d over %d edges",
			unsorted.fetches, sorted.FeatureFetches, len(edges))
	}
	if unsorted.traffic != int64(unsorted.fetches)*8*4 {
		t.Fatalf("unsorted traffic = %d bytes for %d fetches", unsorted.traffic, unsorted.fetches)
	}
	if sorted.AggCycles >= unsorted.cycles {
		t.Fatalf("sorting should reduce cycles: sorted %d, unsorted %d", sorted.AggCycles, unsorted.cycles)
	}
}

// A batch without edges fetches nothing and keeps the aggregation engine
// idle; only the systolic array's fill is charged.
func TestScatterGatherEmpty(t *testing.T) {
	mb := genMiniBatch(tensor.NewRNG(4), []int{30, 10, 3}, 0, -1)
	bk := sgBackend()
	stats, err := bk.Account(gnn.Config{Kind: gnn.GCN, Dims: []int{8, 6, 4}}, mb)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FeatureFetches != 0 || stats.TrafficBytes != 0 || stats.AggCycles != 0 {
		t.Fatalf("edgeless batch: %+v", *stats)
	}
	if want := 2 * int64(bk.Systolic.FillCost); stats.UpdateCycles <= want {
		t.Fatalf("update cycles %d, want more than two fills (%d)", stats.UpdateCycles, want)
	}
	if acc := chargeStream(bk.SG, nil); acc != (sgAccount{}) {
		t.Fatalf("empty stream charged %+v", acc)
	}
}

// Property: on any batch, Account's per-layer charge is the source-sorted
// stream's, whose fetches are the distinct sources; the CSR-order stream
// fetches once per source run.
func TestScatterGatherFetchProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		sizes := []int{1 + rng.Intn(30)}
		dims := []int{1 + rng.Intn(40)}
		for l := rng.Intn(3); l >= 0; l-- {
			sizes = append(sizes, 1+rng.Intn(sizes[len(sizes)-1]))
			dims = append(dims, 1+rng.Intn(40))
		}
		mb := genMiniBatch(rng, sizes, rng.Intn(8), -1)
		bk := sgBackend()
		stats, err := bk.Account(gnn.Config{Kind: gnn.GCN, Dims: dims}, mb)
		if err != nil {
			return false
		}
		var want sgAccount
		var layer0Traffic int64
		for l, b := range mb.Blocks {
			sg := bk.SG
			sg.FeatWidth = dims[l]
			edges := blockEdges(b)
			s := chargeStream(sg, graph.SortEdgesBySource(edges))
			if s.fetches != distinctSources(b) || chargeStream(sg, edges).fetches != graph.CountSourceRuns(edges) {
				return false
			}
			want.fetches += s.fetches
			want.cycles += s.cycles
			if l == 0 {
				layer0Traffic = s.traffic
			}
		}
		return stats.FeatureFetches == want.fetches && stats.AggCycles == want.cycles &&
			stats.TrafficBytes == layer0Traffic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A systolic configuration without MACs, clock or with a negative fill is
// rejected, by validate and by Account.
func TestSystolicValidation(t *testing.T) {
	mb := genMiniBatch(tensor.NewRNG(3), []int{10, 4}, 3, -1)
	cfg := gnn.Config{Kind: gnn.GCN, Dims: []int{8, 4}}
	for _, bad := range []SystolicConfig{{}, {NumMACs: 64, FillCost: 10}, {NumMACs: 64, FreqGHz: 0.3, FillCost: -1}} {
		if bad.validate() == nil {
			t.Fatalf("%+v should fail validation", bad)
		}
		bk := sgBackend()
		bk.Systolic = bad
		if _, err := bk.Account(cfg, mb); err == nil {
			t.Fatalf("Account accepted systolic config %+v", bad)
		}
	}
}

// Table IV: the paper's (8, 2048) design point on the U250 reports
// 72% LUT, 90% DSP, 48% URAM, 40% BRAM.
func TestTable4Utilization(t *testing.T) {
	u, err := EstimateUtilization(KernelParallelism{N: 8, M: 2048}, U250Resources())
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, want, tol float64) {
		if math.Abs(got-want) > tol {
			t.Errorf("%s utilization = %.1f%%, paper %.0f%%", name, got*100, want*100)
		}
	}
	check("LUT", u.LUT, 0.72, 0.02)
	check("DSP", u.DSP, 0.90, 0.02)
	check("URAM", u.URAM, 0.48, 0.02)
	check("BRAM", u.BRAM, 0.40, 0.02)
	if u.LUT > 1 || u.DSP > 1 || u.URAM > 1 || u.BRAM > 1 {
		t.Fatal("published design point must fit")
	}
}

func TestEstimateUtilizationValidation(t *testing.T) {
	if _, err := EstimateUtilization(KernelParallelism{N: 0, M: 2048}, U250Resources()); err == nil {
		t.Fatal("expected error for n=0")
	}
}

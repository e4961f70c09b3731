package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// BenchmarkTrainStepFootprint runs one trainer's step on the largest share
// the fpga-hot benchmark workload hands a device — GraphSAGE [100, 256, 47]
// over ogbn-products at scale 40 (RMAT, train fraction 0.2), fanouts (25, 10),
// 962 targets — in a reused arena, the way a trainer-pool worker does, and
// reports the arena the step leaves retained (arena_MB), one step's demand
// on it (demand_MB; both in MiB, the unit of the benchmark's live_heap_mb),
// the sampled sizes |V0| and |V1|, and the time per step. It sizes a step's memory without
// the whole benchmark:
//
//	go test -run '^$' -bench TrainStepFootprint -benchtime 20x ./internal/core/
//
// On a 2-core Xeon with AVX-512 (|V0| = 14 905, |V1| = 3 614) it reads
// arena_MB 8.72 and demand_MB 7.75: z0 (|V1|×256, 3.53 MiB) is the largest
// buffer, then the two aggregates (|V1|×100 and |Dst|×256; SAGE's self half
// is read in place, never copied beside them) and dMean (|Dst|×256).
func BenchmarkTrainStepFootprint(b *testing.B) {
	const targets = 962
	spec := datagen.OGBNProducts.Scaled(40)
	spec.TrainNodes = int64(float64(spec.NumVertices) * 0.2)
	ds, err := datagen.Materialize(spec, 0.2, tensor.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	s, err := sampler.New(ds.Graph, []int{25, 10}, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	mb, err := s.Sample(ds.TrainIdx[:targets], rng)
	if err != nil {
		b.Fatal(err)
	}
	m, err := gnn.NewModel(gnn.Config{Kind: gnn.SAGE, Dims: spec.FeatDims}, rng)
	if err != nil {
		b.Fatal(err)
	}
	grads := gnn.NewGradients(m.Params)
	ws, st := tensor.NewWorkspace(), &gnn.ForwardState{}
	var demand tensor.Demand
	step := func() {
		if _, _, err := m.TrainStepRowsWS(ws, st, mb, ds.Features, mb.InputNodes(), grads); err != nil {
			b.Fatal(err)
		}
		demand = ws.Demand()
		ws.Reset()
	}
	step() // the first step sizes the arena
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	const mib = 1 << 20 // the unit of the benchmark's live_heap_mb
	b.ReportMetric(float64(ws.Bytes())/mib, "arena_MB")
	b.ReportMetric(float64(4*(demand.F32+demand.I32))/mib, "demand_MB")
	b.ReportMetric(float64(len(mb.Blocks[0].Src)), "V0")
	b.ReportMetric(float64(len(mb.Blocks[1].Src)), "V1")
}

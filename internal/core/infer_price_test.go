package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/accel"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// runBatchPriceOracle is the pricing block of InferencePipeline.RunBatch as
// it stood on commit 9094743, before the serving price list moved behind
// perfmodel.ServingStageFor — verbatim, except that the FPGA forward's
// measured seconds are read from the batch's result instead of the live
// kernel call and the one-hot row vector is local instead of retained.
func runBatchPriceOracle(p *InferencePipeline, mb *sampler.MiniBatch, fpga *accel.ForwardStats) perfmodel.StageTimes {
	sz := sizesInto(&perfmodel.Sizes{}, mb)
	st := perfmodel.StageTimes{
		SampCPU: p.pm.SampleTimeCPUEdges(float64(mb.EdgesTraversed()), p.cfg.SampThreads),
	}
	if p.cfg.Device > 0 {
		rows := make([]float64, len(p.cfg.Plat.Accels))
		rows[p.cfg.Device-1] = sz.VL[0]
		st.Load = p.pm.LoadTimeForDeviceRows(rows, p.cfg.LoadThreads)
		st.Trans = p.pm.TransferTimeDev(p.cfg.Device-1, sz)
		if p.backend != nil {
			st.TrainAcc = perfmodel.ServingOverheads(p.dev, fpga.Sec)
		} else {
			st.TrainAcc = perfmodel.ServingOverheads(p.dev, p.pm.PropForwardFor(p.dev, sz, 1))
		}
	} else {
		st.Load = p.pm.LoadTimeForRows(sz.VL[0], p.cfg.LoadThreads)
		cores := p.cfg.Plat.TotalCPUCores()
		share := float64(cores-p.cfg.SampThreads-p.cfg.LoadThreads) / float64(cores)
		if share <= 0 {
			share = 0.5
		}
		st.TrainCPU = perfmodel.ServingOverheads(p.dev, p.pm.PropForwardFor(p.dev, sz, share))
	}
	return st
}

// The price a worker charges for a sampled batch is the one perfmodel serving
// price list; it must equal, bit for bit, what RunBatch's own pricing block
// computed before the fold — on a CPU peer (with and without the
// thread-starved share fallback), a framework-loaded GPU and a native-loaded
// FPGA on their own host links, with and without int8 transfer.
func TestRunBatchPriceMatchesPreFoldOracle(t *testing.T) {
	hetero, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 3)
	model, err := gnn.NewModel(gnn.Config{Kind: gnn.SAGE, Dims: []int{16, 16, 5}}, tensor.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	starved := smallPlatform().TotalCPUCores() // Samp+Load threads ≥ cores: share ≤ 0
	cases := []struct {
		name    string
		plat    hw.Platform
		device  int
		threads int
	}{
		{"cpu-peer", smallPlatform(), 0, 0},
		{"cpu-peer-starved", smallPlatform(), 0, starved},
		{"fpga", smallPlatform(), 1, 0},
		{"gpu", hetero, 1, 0},
		{"fpga-own-link", hetero, 2, 0},
	}
	rng := tensor.NewRNG(11)
	for _, c := range cases {
		for _, quantize := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/quantize=%v", c.name, quantize), func(t *testing.T) {
				p, err := NewInferencePipeline(InferConfig{
					Plat: c.plat, Data: ds, Model: model, Fanouts: []int{5, 5},
					Device: c.device, SampThreads: c.threads, LoadThreads: c.threads,
					QuantizeTransfer: quantize, Seed: 9,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{1, 2, 5, 16, 32, 3} {
					targets := make([]int32, n)
					for i := range targets {
						targets[i] = int32(rng.Intn(ds.Graph.NumVertices))
					}
					res, err := p.RunBatch(targets)
					if err != nil {
						t.Fatal(err)
					}
					if (res.FPGA != nil) != (p.Device().Kind == hw.FPGA) {
						t.Fatalf("kernel accounting present=%v on a %v worker", res.FPGA != nil, p.Device().Kind)
					}
					want := runBatchPriceOracle(p, &p.slotOf(res).mb, res.FPGA)
					got := res.Stage
					for _, f := range []struct {
						name      string
						got, want float64
					}{
						{"SampCPU", got.SampCPU, want.SampCPU}, {"SampAccel", got.SampAccel, want.SampAccel},
						{"Load", got.Load, want.Load}, {"Trans", got.Trans, want.Trans},
						{"TrainCPU", got.TrainCPU, want.TrainCPU}, {"TrainAcc", got.TrainAcc, want.TrainAcc},
						{"Sync", got.Sync, want.Sync}, {"NetFetch", got.NetFetch, want.NetFetch},
						{"NetSync", got.NetSync, want.NetSync},
					} {
						if math.Float64bits(f.got) != math.Float64bits(f.want) {
							t.Fatalf("%d targets: %s = %x, pre-fold oracle %x", n, f.name, f.got, f.want)
						}
					}
					if perfmodel.ServingServiceSec(got) <= 0 || len(got.PerAccel) != 0 {
						t.Fatalf("%d targets: malformed stage vector %+v", n, got)
					}
				}
			})
		}
	}
}

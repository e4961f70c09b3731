package accel

import "repro/internal/gnn"

// EstimateForwardSec predicts the seconds Account would charge for a
// mini-batch of the given expected layer sizes — the analytic mirror of the
// dataflow's cycle account that lets the serving performance model price an
// FPGA worker the same way the worker charges itself.
//
// vl and el follow the perfmodel Sizes convention: vl[l] is the expected
// node count of layer l (index 0 input-most, length L+1), el[l] the expected
// edge count aggregated into layer l+1. Per layer the scatter-gather engine
// fetches each distinct source feature once (sorted-edge reuse, §IV-C) —
// ~vl[l] fetches of fetchCycles each — and retires edges NumPEs per cycle;
// the systolic array streams |V_{l+1}|·f_in·f_out MACs at NumMACs per cycle
// plus its fill cost. Like Account, the two engines are pipelined, so the
// estimate is the max of the two cycle totals at the systolic clock. Unlike
// Account, it charges the fetch latency once per batch, not once per layer.
func (bk Backend) EstimateForwardSec(cfg gnn.Config, vl, el []float64) float64 {
	L := cfg.Layers()
	if len(vl) < L+1 || len(el) < L {
		return 0
	}
	var aggCycles, updCycles float64
	aggCycles = float64(bk.SG.FetchLatency) // first fetch's latency; the rest overlap
	for l := 0; l < L; l++ {
		sg := bk.SG
		sg.FeatWidth = cfg.Dims[l]
		aggCycles += vl[l]*float64(sg.fetchCycles()) + el[l]/float64(bk.SG.NumPEs)

		fin := float64(cfg.Dims[l])
		if cfg.Kind == gnn.SAGE {
			fin *= 2 // concatenation doubles the dense-update input
		}
		macs := vl[l+1] * fin * float64(cfg.Dims[l+1])
		updCycles += macs/float64(bk.Systolic.NumMACs) + float64(bk.Systolic.FillCost)
	}
	freq := bk.Systolic.FreqGHz * 1e9
	agg := aggCycles / freq
	upd := updCycles / freq
	if agg > upd {
		return agg
	}
	return upd
}

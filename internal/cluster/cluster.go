// Package cluster extends HyScale-GNN to a multi-node platform — the
// paper's §VIII future work ("define a more general protocol for training
// GNN models on distributed and heterogeneous architectures"). The paper
// stops at one node because its protocol has no inter-node story; this
// package adds the two costs that story must pay, with the same analytic
// style as the rest of the repository:
//
//  1. remote feature fetches — the graph is partitioned across nodes
//     (METIS-style edge cut), so a fraction of every mini-batch's input
//     vertices live on other nodes and their features cross the network;
//  2. global gradient synchronization — the per-node all-reduce of paper
//     Eq. 13 gains a ring all-reduce across nodes.
//
// The model reproduces the trade-off the paper's §VII uses to justify
// single-node training: with realistic edge cuts, inter-node communication
// erodes most of the added compute, which is DistDGL's observed behaviour.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/perfmodel"
)

// Config describes a homogeneous cluster of HyScale nodes.
type Config struct {
	Nodes int
	Plat  hw.Platform        // per-node platform
	Work  perfmodel.Workload // global workload
	Net   hw.Link            // inter-node link (per-node NIC)
	// CutFraction is the fraction of a mini-batch's input vertices whose
	// features live on a remote partition. 0 on a single node; 0.2–0.4 is
	// typical for METIS partitions of power-law graphs.
	CutFraction float64
}

// validate checks the configuration.
func (c Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: %d nodes", c.Nodes)
	}
	if c.CutFraction < 0 || c.CutFraction > 1 {
		return fmt.Errorf("cluster: cut fraction %v outside [0,1]", c.CutFraction)
	}
	if c.Nodes > 1 && c.Net.EffGBs() <= 0 {
		return fmt.Errorf("cluster: multi-node needs a network link")
	}
	return c.Plat.Validate()
}

// Breakdown reports the per-iteration cost components.
type Breakdown struct {
	RemoteFetch float64 // cut-edge feature traffic over the NIC
	GlobalSync  float64 // ring all-reduce across nodes
	IterTime    float64
	EpochSec    float64
}

// EpochTime evaluates one epoch on the cluster.
func EpochTime(cfg Config) (*Breakdown, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m, err := perfmodel.New(cfg.Plat, cfg.Work)
	if err != nil {
		return nil, err
	}
	assign := m.InitialAssignment(true)
	st := m.Stages(assign)

	// Remote features: cut × (1 − 1/nodes) of every node's per-iteration
	// input rows cross its NIC (both requests in and responses out share it;
	// charge the response volume).
	if cfg.Nodes > 1 {
		var rows float64
		if assign.CPUBatch > 0 {
			rows += m.Work.SizesFor(assign.CPUBatch).VL[0]
		}
		for _, b := range assign.AccelBatch {
			if b > 0 {
				rows += m.Work.SizesFor(b).VL[0]
			}
		}
		frac := cfg.CutFraction * (1 - 1/float64(cfg.Nodes))
		// The NIC carries the same float32 rows as PCIe.
		st.NetFetch = perfmodel.RemoteFetchSec(cfg.Net, rows*frac, cfg.Work.Spec.FeatDims[0])
	}

	// Global sync: ring all-reduce moves 2×(n−1)/n of the model per node.
	st.NetSync = perfmodel.RingAllReduceSec(cfg.Net, cfg.Work.ModelBytes(), cfg.Nodes)

	// Remote fetches are one more overlapped stage, the all-reduce a serial
	// tail: Eq. 6 with the network charges filled in.
	iter := st.Bottleneck()
	totalBatch := float64(assign.TotalBatch() * cfg.Nodes)
	iters := int(math.Ceil(float64(cfg.Work.Spec.TrainNodes) / totalBatch))
	return &Breakdown{
		RemoteFetch: st.NetFetch, GlobalSync: st.NetSync,
		IterTime: iter, EpochSec: float64(iters) * iter,
	}, nil
}

// PredictedSlowdown converts an analytic Breakdown into the multi-node
// slowdown it implies over a given single-node per-iteration time: remote
// fetches overlap the local pipeline (Eq. 6 extended by one stage) and the
// global all-reduce is serial. The local baseline is supplied by the caller
// because the analytic local model deliberately excludes the runtime
// overheads (framework, kernel launch, flush) the executing engine charges —
// the §VI-C error sources — while the *network* components are directly
// comparable between prediction and execution.
func PredictedSlowdown(b *Breakdown, localIterSec float64) float64 {
	if localIterSec <= 0 {
		return math.NaN()
	}
	// The measured local iteration stands in as the one local stage.
	st := perfmodel.StageTimes{TrainCPU: localIterSec, NetFetch: b.RemoteFetch, NetSync: b.GlobalSync}
	return st.Bottleneck() / localIterSec
}

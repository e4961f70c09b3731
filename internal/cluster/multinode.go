package cluster

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/perfmodel"
)

// MultiNode executes the multi-node protocol the analytic Config only
// prices: the graph is partitioned across nodes (internal/graph's greedy
// METIS-style partitioner), each node runs a full core.Engine replica over
// its shard's training vertices — with its own DRM instance, replica fleet
// and virtual pipeline clock — and the nodes exchange real gradients every
// iteration through a chunked ring all-reduce. Remote feature rows (input
// vertices owned by other shards) and the all-reduce are charged on each
// node's virtual clock via the same perfmodel network primitives the
// analytic model uses, so EpochTime's predictions can be validated against
// executed runs.
type MultiNode struct {
	cfg        MultiNodeConfig
	part       *graph.Partition
	cut        float64
	engines    []*core.Engine
	syncs      []*nodeSync
	ring       *ring
	shardTrain int // training vertices per node after drop-last equalisation
	epoch      int
	// dead marks nodes that fail-stopped (scripted): they are skipped in
	// later epochs and contribute nothing to aggregated stats.
	dead []bool
}

// MultiNodeConfig describes an executed multi-node run.
type MultiNodeConfig struct {
	Nodes int
	Net   hw.Link // inter-node link (per-node NIC)
	// Node is the per-node engine template. Data must hold the FULL dataset;
	// the coordinator partitions its training vertices across nodes. Sync
	// and Locator must be nil — the coordinator owns that wiring. All nodes
	// share Node.Seed so their replicas initialise identically (synchronous
	// SGD keeps the whole fleet in lock-step from there).
	Node core.Config
	// Plats, when non-empty, gives each node its own platform (len must be
	// Nodes): a heterogeneous cluster of heterogeneous nodes — e.g. one
	// CPU+GPU node next to a CPU+FPGA node. Empty means every node runs the
	// template's Node.Plat. The synchronous-SGD protocol is platform-blind
	// (platforms change only the virtual clock), so mixed fleets stay in
	// lock-step.
	Plats []hw.Platform
	// Faults scripts deterministic node failures and link degradation on the
	// training plane, keyed by cumulative ring round (see fault.Parse):
	// "fail,node=R,at=iter:K" leaves the ring gracefully before round K and
	// the survivors re-ring and continue; "crash,node=R,at=iter:K" aborts
	// the whole fleet; "degrade,link,..." scales the inter-node link over a
	// round window. Nil or a schedule with no cluster events is the fault-free
	// run: the same ring, with a membership view that never shrinks.
	Faults *fault.Schedule
}

// Validate checks the configuration.
func (c MultiNodeConfig) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: %d nodes", c.Nodes)
	}
	if c.Node.Data == nil {
		return fmt.Errorf("cluster: nil dataset")
	}
	if c.Nodes > 1 && c.Net.EffGBs() <= 0 {
		return fmt.Errorf("cluster: multi-node needs a network link")
	}
	if c.Node.Sync != nil || c.Node.Locator != nil {
		return fmt.Errorf("cluster: Node.Sync/Locator are owned by the coordinator")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if mx := c.Faults.MaxNode(); mx >= c.Nodes {
		return fmt.Errorf("cluster: fault schedule targets node %d, fleet has %d nodes", mx, c.Nodes)
	}
	if len(c.Plats) != 0 {
		if len(c.Plats) != c.Nodes {
			return fmt.Errorf("cluster: %d per-node platforms for %d nodes", len(c.Plats), c.Nodes)
		}
		// The ring all-reduce runs in lock-step, so every node must execute
		// the same number of iterations per epoch — which the engine derives
		// from its accelerator count (global batch = BatchSize × trainers).
		for i, p := range c.Plats[1:] {
			if len(p.Accels) != len(c.Plats[0].Accels) {
				return fmt.Errorf("cluster: node %d has %d accelerators, node 0 has %d — "+
					"unequal fleets would desynchronise the ring", i+1, len(p.Accels), len(c.Plats[0].Accels))
			}
		}
	}
	return nil
}

// shardLocator is the core.FeatureLocator of one shard: rows whose vertices
// are assigned to another partition cross the NIC.
type shardLocator struct {
	rank     int32
	assign   []int32
	link     hw.Link
	featDim  int
	featByte float64
}

func (l *shardLocator) RemoteRows(nodes []int32) int {
	n := 0
	for _, v := range nodes {
		if l.assign[v] != l.rank {
			n++
		}
	}
	return n
}

func (l *shardLocator) FetchSec(n int) float64 {
	return perfmodel.RemoteFetchSec(l.link, float64(n), l.featDim, l.featByte)
}

// NewMultiNode partitions the dataset and builds one engine per node.
//
// Shards are equalised to the smallest partition's training-vertex count
// (DistDGL's drop-last semantics) so every node runs the same number of
// iterations per epoch — the ring all-reduce requires all nodes to
// participate in every round.
func NewMultiNode(cfg MultiNodeConfig) (*MultiNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	data := cfg.Node.Data
	part, err := graph.PartitionGreedyBFS(data.Graph, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	cut := part.EdgeCutFraction(data.Graph)

	shards := make([][]int32, cfg.Nodes)
	for _, v := range data.TrainIdx {
		p := part.Assign[v]
		shards[p] = append(shards[p], v)
	}
	minSize := len(data.TrainIdx)
	for i, s := range shards {
		if len(s) < minSize {
			minSize = len(s)
		}
		if len(s) == 0 {
			return nil, fmt.Errorf("cluster: partition %d holds no training vertices (%d total, %d nodes)",
				i, len(data.TrainIdx), cfg.Nodes)
		}
	}

	rg := newRing(cfg.Nodes, cfg.Net, cfg.Faults)
	engines := make([]*core.Engine, cfg.Nodes)
	syncs := make([]*nodeSync, cfg.Nodes)
	for i := range engines {
		nodeCfg := cfg.Node
		if len(cfg.Plats) > 0 {
			nodeCfg.Plat = cfg.Plats[i]
		}
		nodeCfg.Data = &datagen.Dataset{
			Spec: data.Spec, Graph: data.Graph,
			Features: data.Features, Labels: data.Labels,
			TrainIdx: shards[i][:minSize],
		}
		sync := &nodeSync{rank: i, ring: rg,
			failIter: cfg.Faults.NodeFailIter(i), crashIter: cfg.Faults.NodeCrashIter(i)}
		syncs[i] = sync
		nodeCfg.Sync = sync
		featByte := 4.0
		if cfg.Node.QuantizeTransfer {
			featByte = 1
		}
		nodeCfg.Locator = &shardLocator{
			rank: int32(i), assign: part.Assign, link: cfg.Net,
			featDim: data.Spec.FeatDims[0], featByte: featByte,
		}
		eng, err := core.NewEngine(nodeCfg)
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	return &MultiNode{cfg: cfg, part: part, cut: cut, engines: engines,
		syncs: syncs, ring: rg, shardTrain: minSize,
		dead: make([]bool, cfg.Nodes)}, nil
}

// TrainPerNode returns each shard's training-vertex count (equalised across
// nodes so the ring stays in lock-step).
func (m *MultiNode) TrainPerNode() int { return m.shardTrain }

// Nodes returns the node count.
func (m *MultiNode) Nodes() int { return m.cfg.Nodes }

// EdgeCut returns the measured edge-cut fraction of the partition — the
// executed counterpart of the analytic Config.CutFraction input.
func (m *MultiNode) EdgeCut() float64 { return m.cut }

// Partition exposes the vertex→node assignment.
func (m *MultiNode) Partition() *graph.Partition { return m.part }

// Node returns node i's engine (for per-shard inspection).
func (m *MultiNode) Node(i int) *core.Engine { return m.engines[i] }

// MultiNodeStats aggregates one epoch across the fleet.
type MultiNodeStats struct {
	Epoch      int
	Loss       float64 // mean across nodes (equal shard sizes → equal weights)
	Accuracy   float64
	VirtualSec float64 // slowest node's virtual epoch time
	MTEPS      float64 // fleet-wide traversed edges over the slowest clock
	Iterations int     // per node

	NetFetchSec float64 // mean per-node remote-fetch seconds
	NetSyncSec  float64 // mean per-node all-reduce seconds
	RemoteRows  int     // total feature rows fetched across the NIC

	// FailedNodes is the cumulative count of nodes that fail-stopped (this
	// epoch or earlier). PerNode entries of dead nodes are nil — a node that
	// departs mid-epoch contributes nothing to that epoch's aggregates.
	FailedNodes int

	PerNode []*core.EpochStats
}

// RunEpoch trains one epoch on every surviving node concurrently. Nodes
// proceed in lock-step: the ring all-reduce synchronises them every
// iteration, exactly as a real cluster's gradient exchange would. A node
// whose scripted fail-stop fires mid-epoch leaves the ring at a round
// boundary; the survivors re-ring, rescale the gradient mean to their own
// count, and finish the epoch — only a crash (or a real error) aborts the
// run.
func (m *MultiNode) RunEpoch() (*MultiNodeStats, error) {
	m.epoch++
	type result struct {
		i   int
		st  *core.EpochStats
		err error
	}
	ch := make(chan result, len(m.engines))
	launched := 0
	for i, e := range m.engines {
		if m.dead[i] {
			continue
		}
		launched++
		go func(i int, e *core.Engine) {
			st, err := e.RunEpoch()
			if err != nil && !errors.Is(err, errNodeFailStop) {
				// Abort the ring so surviving nodes do not wait forever for
				// this node's next gradient exchange. A scripted fail-stop
				// already left the membership cleanly — the ring survives.
				m.ring.fail()
			}
			ch <- result{i, st, err}
		}(i, e)
	}
	if launched == 0 {
		return nil, fmt.Errorf("cluster: no surviving nodes (all %d fail-stopped)", len(m.engines))
	}
	perNode := make([]*core.EpochStats, len(m.engines))
	var firstErr error
	for k := 0; k < launched; k++ {
		r := <-ch
		if r.err != nil {
			if errors.Is(r.err, errNodeFailStop) {
				m.dead[r.i] = true
				continue
			}
			// Prefer the root cause over the aborted-ring errors the
			// survivors report as collateral.
			if firstErr == nil || errors.Is(firstErr, errRingAborted) {
				firstErr = fmt.Errorf("cluster: node %d: %w", r.i, r.err)
			}
		}
		perNode[r.i] = r.st
	}
	if firstErr != nil {
		return nil, firstErr
	}

	out := &MultiNodeStats{Epoch: m.epoch, PerNode: perNode}
	var edges float64
	live := 0
	for _, st := range perNode {
		if st == nil {
			continue
		}
		live++
		out.Iterations = st.Iterations
		out.Loss += st.Loss
		out.Accuracy += st.Accuracy
		out.NetFetchSec += st.NetFetchSec
		out.NetSyncSec += st.NetSyncSec
		out.RemoteRows += st.RemoteRows
		edges += st.MTEPS * st.VirtualSec * 1e6
		out.VirtualSec = math.Max(out.VirtualSec, st.VirtualSec)
	}
	if live == 0 {
		return nil, fmt.Errorf("cluster: epoch %d finished with no surviving nodes", m.epoch)
	}
	for _, d := range m.dead {
		if d {
			out.FailedNodes++
		}
	}
	n := float64(live)
	out.Loss /= n
	out.Accuracy /= n
	out.NetFetchSec /= n
	out.NetSyncSec /= n
	if out.VirtualSec > 0 {
		out.MTEPS = edges / out.VirtualSec / 1e6
	}
	return out, nil
}

// DeadNodes reports which ranks have fail-stopped so far.
func (m *MultiNode) DeadNodes() []bool { return m.dead }

// ReplicasInSync reports the worst parameter divergence anywhere in the
// surviving fleet: within each node's replica set and across nodes. Zero
// means the two-level synchronous-SGD protocol (local rank-order fold + cross-node
// ring) is working. Fail-stopped nodes are excluded — their parameters froze
// at the round they departed and no longer participate in the protocol.
func (m *MultiNode) ReplicasInSync() float64 {
	var worst float64
	var ref *gnn.Parameters
	for i, e := range m.engines {
		if m.dead[i] {
			continue
		}
		if d := e.ReplicasInSync(); d > worst {
			worst = d
		}
		p := e.Params()
		if ref == nil {
			ref = p
			continue
		}
		for l := range ref.Weights {
			if d := ref.Weights[l].MaxAbsDiff(p.Weights[l]); d > worst {
				worst = d
			}
			if d := ref.Biases[l].MaxAbsDiff(p.Biases[l]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Analytic returns the analytic cluster configuration matching this executed
// run — same platform, workload and interconnect, with the partitioner's
// measured edge cut as CutFraction — so EpochTime's predictions can be
// compared against executed virtual-clock readings. Heterogeneous fleets
// (MultiNodeConfig.Plats) are priced with the template Node.Plat; a
// per-node-platform analytic model is an open item.
func (m *MultiNode) Analytic() Config {
	// The engine clamps each node's global batch to its shard size; mirror
	// that so the analytic assignment prices the batches actually executed.
	nTrainers := max(1, len(m.cfg.Node.Plat.Accels))
	total := m.cfg.Node.BatchSize * nTrainers
	if total > m.shardTrain {
		total = m.shardTrain
	}
	work := perfmodel.Workload{
		Spec:      m.cfg.Node.Data.Spec,
		Model:     m.cfg.Node.Model.Kind,
		BatchSize: max(1, total/nTrainers),
		Fanouts:   m.cfg.Node.Fanouts,
	}
	if m.cfg.Node.QuantizeTransfer {
		work.TransferBytesPerFeat = 1
	}
	return Config{
		Nodes: m.cfg.Nodes, Plat: m.cfg.Node.Plat, Work: work,
		Net: m.cfg.Net, CutFraction: m.cut,
	}
}

// Package core is HyScale-GNN itself: the hybrid training runtime of paper
// §III. It couples
//
//   - real numeric execution — every trainer (the CPU trainer and each
//     simulated accelerator trainer) runs the actual GNN forward/backward
//     (internal/gnn) over its share of the batch, on a pool of
//     min(GOMAXPROCS, trainers) host workers that own the step arenas;
//     paper Listing 1's DONE/ACK round is the pool's join followed by a
//     rank-order weighted fold (optim.WeightedMean) and one SGD step on the
//     engine's one parameter set — the accelerators are clock charges, so
//     Listing 1's per-trainer replicas would be bit-identical copies — and
//     losses, accuracies and the synchronous-SGD equivalence are real,
//     measured properties; with
//
//   - a virtual clock — each pipeline stage is charged the duration the
//     device models (internal/hw, via internal/perfmodel's primitives) assign
//     to the actually-sampled mini-batches. Every stage, propagation
//     included, is priced in prepare from the sampled-set sizes and the
//     task mapping (paper §V: none of it depends on the weights),
//     and perfmodel.Pipeline — the max-plus pipeline recurrence the paper's
//     Fig. 7 depicts, stated once for the runtime, the simulator and the
//     serving price list — composes them. Epoch times and MTEPS reported by
//     the engine are virtual-clock readings.
//
// The Dynamic Resource Management engine (internal/drm) observes the
// virtual stage times each iteration and re-balances work and threads,
// exactly as in paper Algorithm 1. It reacts where its input is produced —
// right after an iteration's prepare, before the next one is issued — so the
// task mapping has one writer, never moves under a prepare, and whether a
// prepare runs on the prefetch worker or inline changes no number.
//
// The runtime is layered so one engine can drive one node or one shard of a
// multi-node fleet (internal/cluster.MultiNode):
//
//   - engine.go — construction, validation, the model, accessors;
//   - stages.go — the stageExecutor interface and the hybrid pipeline
//     executor: prepare (sampling, loading/transfer, the iteration's whole
//     stage vector) and compute (the trainer pool's round and the
//     rank-order fold — numerics only);
//   - trainers.go — what a trainer is: the trainer pool that steps its
//     share, and propSec, the one per-device-kind propagation price;
//   - sync.go — the GradientSync boundary between the local all-reduce and
//     the globally applied gradient, and the FeatureLocator that prices
//     remote feature rows;
//   - epoch.go — epoch orchestration tying the layers together: the one
//     iteration loop, prepare → Adjust → issue next → compute → consume;
//   - pipeline.go — the prefetch worker that loop hands prepares to
//     whenever GOMAXPROCS > 1 (paper Fig. 4/5's pipelined execution).
package core

import (
	"repro/internal/accel"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/perfmodel"
)

// Config assembles a training run.
type Config struct {
	Plat  hw.Platform
	Data  *datagen.Dataset
	Model gnn.Config
	LR    float32 // a finite positive number

	BatchSize int   // per-trainer mini-batch targets (paper: 1024)
	Fanouts   []int // neighbor fanouts (paper: 25, 10)

	Hybrid bool // CPU trainer participates
	TFP    bool // two-stage feature prefetching
	DRM    bool // dynamic resource management

	// Pipeline is vestigial: there is one schedule, the paper's Fig. 4/5
	// pipelined execution, in which prepare(i+1) overlaps compute(i) on a
	// prefetch worker whenever GOMAXPROCS > 1 (epoch.go). The field accepts
	// only PipelineSerial and PipelinePrefetch (anything else is an error)
	// and changes nothing. It stays until a benchmark PR drops the lines of
	// benchmark/ that set and read it.
	Pipeline PipelineMode

	Seed uint64

	// Sync bridges the locally averaged gradient to the globally applied
	// one. Nil selects the single-node identity sync; the multi-node
	// coordinator injects a cross-node ring all-reduce here.
	Sync GradientSync
	// Locator tells the runtime which input feature rows are remote and
	// what fetching them costs on the virtual clock. Nil means every
	// feature is local (single-node operation).
	Locator FeatureLocator
}

// networked reports whether the engine drives one shard of a multi-node run
// and therefore carries network stages on its pipeline clock.
func (c Config) networked() bool { return c.Sync != nil || c.Locator != nil }

// EpochStats reports one epoch of training.
type EpochStats struct {
	Epoch      int
	Loss       float64 // target-weighted mean loss
	Accuracy   float64 // target-weighted training accuracy
	VirtualSec float64 // virtual-clock epoch time
	MTEPS      float64 // Eq. 5 on the virtual clock
	Iterations int
	Assignment perfmodel.Assignment

	// Multi-node network charges accumulated over the epoch (zero on a
	// single node): remote-feature-fetch and inter-node all-reduce virtual
	// seconds, and the number of feature rows that crossed the NIC.
	NetFetchSec float64
	NetSyncSec  float64
	RemoteRows  int

	// FPGA aggregates the dataflow trainers' hardware accounting over the
	// epoch: scatter-gather and systolic cycles, external feature traffic,
	// and kernel seconds. All zero when no FPGA trainer executed.
	FPGA accel.ForwardStats
}

// effectiveTotalBatch is the global batch per iteration, clamped to the
// training-set size (scaled datasets can be smaller than 1024×n).
func effectiveTotalBatch(cfg Config) int {
	n := len(cfg.Plat.Accels)
	if n == 0 {
		n = 1
	}
	total := cfg.BatchSize * n
	if total > len(cfg.Data.TrainIdx) {
		total = len(cfg.Data.TrainIdx)
	}
	return total
}

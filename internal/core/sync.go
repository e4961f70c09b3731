package core

import "repro/internal/gnn"

// GradientSync is the boundary between the engine's local all-reduce (the
// trainer pool's rank-order fold over its own trainers) and the gradient the
// engine finally applies. On a single node they are the same thing; in a
// multi-node run the coordinator injects an implementation that exchanges
// the local average with the other shards (a ring all-reduce) and reports
// the virtual network seconds the exchange cost.
type GradientSync interface {
	// Reduce takes the locally averaged gradient and returns the globally
	// averaged one plus the virtual seconds of network time charged for the
	// exchange. Implementations must not retain or mutate local after
	// returning; the returned gradient may alias local.
	Reduce(local *gnn.Gradients) (global *gnn.Gradients, netSec float64, err error)
}

// localSync is the single-node GradientSync: the local average is already
// global, and no network time is charged.
type localSync struct{}

func (localSync) Reduce(local *gnn.Gradients) (*gnn.Gradients, float64, error) {
	return local, 0, nil
}

// FeatureLocator tells the runtime where input feature rows live. A shard of
// a partitioned graph owns only its partition's features; rows owned by
// other shards cross the network and are charged on the virtual clock. Nil
// (single node) means every row is local and free.
type FeatureLocator interface {
	// RemoteRows returns how many of the given input vertices' feature rows
	// live on a remote shard.
	RemoteRows(nodes []int32) int
	// FetchSec returns the virtual seconds to pull n remote feature rows
	// over the interconnect.
	FetchSec(n int) float64
}

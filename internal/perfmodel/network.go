package perfmodel

import "repro/internal/hw"

// Inter-node network primitives for the multi-node extension (paper §VIII
// future work). They price the two communication patterns distributed GNN
// training pays — remote feature fetches across the partition edge cut and
// the global gradient all-reduce — in the same analytic style as the
// intra-node equations (§V). The analytic cluster model
// (internal/cluster.EpochTime) prices both through these functions. The
// executing multi-node coordinator (internal/cluster.MultiNode) charges its
// remote fetches through RemoteFetchSec; its ring charges each chunk a rank
// sends through hw.Link.TransferSec, a sum whose equal-chunk closed form is
// RingAllReduceSec. That shared law is what makes the two comparable.

// RingAllReduceSec returns the time for a ring all-reduce of `bytes` payload
// across n nodes over the given link: 2·(n−1) steps, each moving a 1/n chunk
// and paying the link's setup latency. For n ≤ 1 there is nothing to reduce.
func RingAllReduceSec(link hw.Link, bytes float64, n int) float64 {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	chunk := bytes / float64(n)
	return float64(2*(n-1)) * link.TransferSec(chunk)
}

// RemoteFetchSec returns the time to pull `rows` remote feature rows of
// width featDim over the link, 4 bytes (float32, the paper's Sfeat) a
// feature.
func RemoteFetchSec(link hw.Link, rows float64, featDim int) float64 {
	if rows <= 0 || featDim <= 0 {
		return 0
	}
	return link.TransferSec(rows * float64(featDim) * 4)
}

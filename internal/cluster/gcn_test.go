package cluster

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gnn"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// TestGCNRunsEq3AtEveryEntryPoint: every program path that runs a GCN — an
// engine's training step, a serving InferencePipeline, full-graph Evaluate
// and the shards of a 2-node MultiNode — resolves each block's coefficients
// as the paper's Eq. 3 over the full graph's degrees, bit for bit, with no
// degrees configured anywhere: a block carries the graph it was sampled
// from, and a shard samples the full graph. Edge (u → v) must weigh
// 1/√((D(v)+1)(D(u)+1)) and v's self loop 1/(D(v)+1), each the float32
// product of the two ends' factors float32(1/√(D+1)).
func TestGCNRunsEq3AtEveryEntryPoint(t *testing.T) {
	ds := multiDataset(t, 11)
	cfg := multiConfig(t, 2, ds)
	cfg.Node.Model = gnn.Config{Kind: gnn.GCN, Dims: []int{16, 16, 5}}
	g := ds.Graph
	norm := func(v int32) float32 { return float32(1 / math.Sqrt(float64(g.Degree(v))+1)) }

	var mu sync.Mutex
	var blocks, fullGraph int
	var bad string
	gnn.WeightsTap = func(b *sampler.Block, edgeW, selfW []float32) {
		mu.Lock()
		defer mu.Unlock()
		blocks++
		if len(b.Dst) == g.NumVertices {
			fullGraph++
		}
		for d, v := range b.Dst {
			nv := norm(v)
			if math.Float32bits(selfW[d]) != math.Float32bits(nv*nv) && bad == "" {
				bad = fmt.Sprintf("self weight of vertex %d is %v, Eq. 3 gives %v", v, selfW[d], nv*nv)
			}
			for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
				u := b.Src[b.Col[e]]
				if want := nv * norm(u); math.Float32bits(edgeW[e]) != math.Float32bits(want) && bad == "" {
					bad = fmt.Sprintf("edge %d→%d weighs %v, Eq. 3 gives %v", u, v, edgeW[e], want)
				}
			}
		}
	}
	defer func() { gnn.WeightsTap = nil }()
	// entry runs one entry point and returns how many full-graph blocks it
	// resolved.
	entry := func(name string, run func() error) int {
		t.Helper()
		blocks, fullGraph, bad = 0, 0, ""
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if bad != "" {
			t.Fatalf("%s: %s", name, bad)
		}
		if blocks == 0 {
			t.Fatalf("%s resolved no block's coefficients", name)
		}
		return fullGraph
	}

	var e *core.Engine
	entry("engine training step", func() error {
		var err error
		if e, err = core.NewEngine(cfg.Node); err != nil {
			return err
		}
		_, err = e.RunEpoch()
		return err
	})
	entry("serving pipeline", func() error {
		model, err := gnn.NewModel(cfg.Node.Model, tensor.NewRNG(3))
		if err != nil {
			return err
		}
		p, err := core.NewInferencePipeline(core.InferConfig{
			Plat: cfg.Node.Plat, Data: ds, Model: model, Fanouts: cfg.Node.Fanouts, Device: 1, Seed: 3,
		})
		if err != nil {
			return err
		}
		_, err = p.RunBatch([]int32{1, 5, 9, 200, 2999})
		return err
	})
	if n := entry("full-graph Evaluate", func() error { _, err := e.Evaluate(nil); return err }); n == 0 {
		t.Fatal("full-graph Evaluate resolved no full-graph block")
	}
	entry("2-node MultiNode shards", func() error {
		m, err := NewMultiNode(cfg)
		if err != nil {
			return err
		}
		_, err = m.RunEpoch()
		return err
	})
}

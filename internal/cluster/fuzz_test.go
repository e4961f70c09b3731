package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fault"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// fuzzDataset is core's 300-vertex fuzz dataset (FuzzCoreConfig's).
func fuzzDataset(tb testing.TB) (datagen.Spec, *datagen.Dataset) {
	spec := datagen.Spec{Name: "fuzz", NumVertices: 300, NumEdges: 1500, FeatDims: []int{8, 8, 4}}
	ds, err := datagen.Materialize(spec, 0.25, tensor.NewRNG(5))
	if err != nil {
		tb.Fatal(err)
	}
	return spec, ds
}

// partitionRules are the rejections NewMultiNode may make after validate
// accepts: each needs the partition, so none can be judged before the
// partitioner runs.
var partitionRules = []string{
	"holds no training vertices", // a partition that owns no training vertex has no shard to train
}

// runOutcomes are the errors one epoch of a fleet that builds may return.
var runOutcomes = []string{
	"training diverged (non-finite loss)", // core's divergence error
	"(scripted fault)",                    // a scripted crash
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// FuzzMultiNodeConfig generates multi-node configurations from bounded
// inputs on core's 300-vertex fuzz dataset: a node count from 0 to 4, the
// per-node engine template drawn as FuzzCoreConfig draws it (any learning
// rate bits, a batch size from an int8, zero to three fan-outs in −2…25, the
// three feature switches, a pipeline mode from an int8, one of three
// fleets), up to four fail, crash and link-degrade events at ring rounds 0–3
// (targets up to node 4, so some lie outside the fleet, and a node may die
// twice), and a healthy or a zero link. It checks validate's contract with
// NewMultiNode and one epoch: a configuration validate rejects fails
// NewMultiNode with that exact error; one it accepts either builds or fails a
// rule in partitionRules; a fleet that builds runs one RunEpoch that returns
// nil or an error in runOutcomes, and after a nil epoch the surviving
// replicas agree bit for bit.
func FuzzMultiNodeConfig(f *testing.F) {
	spec, ds := fuzzDataset(f)
	hetero, err := hw.HeteroPlatform(hw.GPU, hw.FPGA)
	if err != nil {
		f.Fatal(err)
	}
	plats := []hw.Platform{hw.CPUFPGAPlatform(), hw.CPUGPUPlatform(), hetero}
	lr := math.Float32bits(0.3)
	// A fan-out byte b decodes to b mod 28 − 2, so enc(v) = v + 2. An event
	// is three bytes: kind (fail, crash, degrade) mod 3, node mod 5, round
	// mod 4; a degrade window runs from the round for 1 + node mod 3 rounds
	// at factor 1 + node mod 4.
	f.Add(uint8(2), lr, int8(8), []byte{7, 7}, true, true, true, int8(0), uint8(0), []byte{}, true)
	f.Add(uint8(0), lr, int8(8), []byte{7, 7}, true, true, true, int8(0), uint8(0), []byte{}, true)
	f.Add(uint8(2), lr, int8(8), []byte{7, 7}, true, true, true, int8(0), uint8(0), []byte{}, false)
	f.Add(uint8(1), lr, int8(8), []byte{7, 7}, true, true, true, int8(1), uint8(1), []byte{}, false)
	f.Add(uint8(3), uint32(0), int8(8), []byte{7, 7}, true, true, true, int8(0), uint8(0), []byte{}, true)
	f.Add(uint8(3), lr, int8(4), []byte{7, 7}, true, false, true, int8(1), uint8(2), []byte{0, 2, 1, 2, 0, 0}, true)
	f.Add(uint8(4), lr, int8(2), []byte{7, 7}, false, true, true, int8(0), uint8(0), []byte{1, 1, 0}, true)
	f.Add(uint8(2), lr, int8(8), []byte{7, 7}, true, true, true, int8(0), uint8(0), []byte{0, 3, 0}, true)
	f.Add(uint8(2), lr, int8(8), []byte{7, 7}, true, true, true, int8(0), uint8(0), []byte{0, 1, 0, 1, 1, 0}, true)
	// fail,node=0,at=iter:0;fail,node=1,at=iter:0: no survivor, rejected.
	f.Add(uint8(2), lr, int8(2), []byte{7, 7}, true, true, true, int8(0), uint8(0), []byte{0, 0, 0, 0, 1, 0}, true)
	f.Add(uint8(2), math.Float32bits(math.MaxFloat32), int8(8), []byte{7, 7}, true, true, true, int8(0), uint8(0), []byte{}, true)
	f.Add(uint8(4), lr, int8(16), []byte{7, 7}, true, true, true, int8(0), uint8(2), []byte{2, 2, 1}, true)
	f.Fuzz(func(t *testing.T, nodes uint8, lrBits uint32, batch int8, fan []byte, hybrid, tfp, drm bool, pipeline int8, plat uint8, events []byte, healthyLink bool) {
		fanouts := make([]int, min(len(fan), 3))
		for i := range fanouts {
			fanouts[i] = int(fan[i]%28) - 2
		}
		cfg := MultiNodeConfig{
			Nodes: int(nodes % 5),
			Node: core.Config{
				Plat: plats[int(plat)%len(plats)], Data: ds,
				Model: gnn.Config{Kind: gnn.SAGE, Dims: spec.FeatDims},
				LR:    math.Float32frombits(lrBits), BatchSize: int(batch), Fanouts: fanouts,
				Hybrid: hybrid, TFP: tfp, DRM: drm, Pipeline: core.PipelineMode(pipeline), Seed: 3,
			},
		}
		if healthyLink {
			cfg.Net = hw.Ethernet100G()
		}
		for i := 0; i+3 <= len(events) && i < 12; i += 3 {
			node, round := int(events[i+1]%5), int(events[i+2]%4)
			entry := [...]string{
				fmt.Sprintf("fail,node=%d,at=iter:%d", node, round),
				fmt.Sprintf("crash,node=%d,at=iter:%d", node, round),
				fmt.Sprintf("degrade,link,from=iter:%d,to=iter:%d,factor=%d", round, round+1+node%3, 1+node%4),
			}[events[i]%3]
			ev, err := fault.Parse(entry)
			if err != nil {
				t.Fatalf("generated event %q: %v", entry, err)
			}
			if cfg.Faults == nil {
				cfg.Faults = &fault.Schedule{}
			}
			cfg.Faults.Events = append(cfg.Faults.Events, ev.Events...)
		}

		verr := cfg.validate()
		m, err := NewMultiNode(cfg)
		if verr != nil {
			if err == nil || err.Error() != verr.Error() {
				t.Fatalf("validate rejected %d nodes, faults %q with %v, NewMultiNode with %v", cfg.Nodes, cfg.Faults, verr, err)
			}
			return
		}
		if err != nil {
			if !containsAny(err.Error(), partitionRules) {
				t.Fatalf("validate accepted, NewMultiNode failed a rule it could have checked: %v", err)
			}
			return
		}
		if _, err := m.RunEpoch(); err != nil {
			if !containsAny(err.Error(), runOutcomes) {
				t.Fatalf("%d nodes, faults %q: the epoch failed: %v", cfg.Nodes, cfg.Faults, err)
			}
			return
		}
		if d := m.ReplicasInSync(); d != 0 {
			t.Fatalf("%d nodes, faults %q: the replicas differ by %v after a clean epoch", cfg.Nodes, cfg.Faults, d)
		}
	})
}

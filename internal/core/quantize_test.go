package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/gnn"
)

// paramsHash is an FNV-1a digest of every parameter's little-endian bits.
func paramsHash(p *gnn.Parameters) uint64 {
	h := fnv.New64a()
	for l := range p.Weights {
		binary.Write(h, binary.LittleEndian, p.Weights[l].Data)
		binary.Write(h, binary.LittleEndian, p.Biases[l].Data)
	}
	return h.Sum64()
}

// quantizedSig runs two epochs of baseConfig with QuantizeTransfer on under
// the given schedule and renders per-epoch loss, accuracy and virtual time as
// hex floats, then replica 0's parameter digest.
func quantizedSig(t *testing.T, mode PipelineMode) string {
	t.Helper()
	cfg := baseConfig(t)
	cfg.QuantizeTransfer = true
	cfg.Pipeline = mode
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := e.RunEpoch
	if mode == PipelinePrefetch {
		run = e.runEpochAsync
	}
	var b strings.Builder
	for ep := 1; ep <= 2; ep++ {
		st, err := run()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "epoch%d loss=%s acc=%s vsec=%s\n", ep, hexf(st.Loss), hexf(st.Accuracy), hexf(st.VirtualSec))
	}
	fmt.Fprintf(&b, "params=%016x\n", paramsHash(e.Params()))
	return b.String()
}

// goldenQuantized pins a QuantizeTransfer run, the one configuration whose
// accelerator shares train on different bytes than the feature table holds
// (the int8 round trip of their staged block). Recorded on the commit before
// unquantized shares stopped staging their features, and held across it.
const goldenQuantized = "epoch1 loss=0x1.56e20ae950bdfp+00 acc=0x1.d3a06d3a06d3ap-02 vsec=0x1.ca0ebdfd8ccbfp-08\n" +
	"epoch2 loss=0x1.1456a2e9cd57dp-01 acc=0x1.c0da740da740ep-01 vsec=0x1.b14dfa7ba7d89p-08\n" +
	"params=793264240d7b1f62\n"

func TestQuantizedTrajectoryGolden(t *testing.T) {
	for _, mode := range []PipelineMode{PipelineSerial, PipelinePrefetch} {
		if got := quantizedSig(t, mode); got != goldenQuantized {
			t.Errorf("%v: quantized run drifted from the recorded golden:\ngot:\n%swant:\n%s", mode, got, goldenQuantized)
		}
	}
}

package cluster

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

func baseCfg() Config {
	return Config{
		Nodes:       1,
		Plat:        hw.CPUFPGAPlatform(),
		Work:        perfmodel.DefaultWorkload(datagen.OGBNPapers100M, gnn.GCN),
		Net:         hw.Ethernet100G(),
		CutFraction: 0.25,
	}
}

func TestValidate(t *testing.T) {
	c := baseCfg()
	c.Nodes = 0
	if c.validate() == nil {
		t.Fatal("expected error for 0 nodes")
	}
	c = baseCfg()
	c.CutFraction = 1.5
	if c.validate() == nil {
		t.Fatal("expected error for cut > 1")
	}
	c = baseCfg()
	c.Nodes = 4
	c.Net = hw.Link{}
	if c.validate() == nil {
		t.Fatal("expected error for missing network")
	}
}

func TestSingleNodeHasNoNetworkCost(t *testing.T) {
	c := baseCfg()
	c.CutFraction = 0
	b, err := EpochTime(c)
	if err != nil {
		t.Fatal(err)
	}
	if b.RemoteFetch != 0 || b.GlobalSync != 0 {
		t.Fatalf("single node paid network costs: %+v", b)
	}
	if b.EpochSec <= 0 || b.IterTime <= 0 {
		t.Fatalf("degenerate breakdown: %+v", b)
	}
}

func TestMultiNodePaysCommunication(t *testing.T) {
	c := baseCfg()
	c.Nodes = 4
	b, err := EpochTime(c)
	if err != nil {
		t.Fatal(err)
	}
	if b.RemoteFetch <= 0 || b.GlobalSync <= 0 {
		t.Fatalf("4 nodes should pay network costs: %+v", b)
	}
}

// Strong scaling: more nodes reduce epoch time, but sub-linearly — the
// communication erosion that justifies the paper's single-node thesis.
func TestScalingSublinear(t *testing.T) {
	counts := []int{1, 2, 4, 8}
	var res []*Breakdown
	for _, n := range counts {
		c := baseCfg()
		c.Nodes = n
		b, err := EpochTime(c)
		if err != nil {
			t.Fatal(err)
		}
		res = append(res, b)
	}
	for i := 1; i < len(res); i++ {
		if res[i].EpochSec >= res[i-1].EpochSec {
			t.Fatalf("no speedup from %d to %d nodes: %v vs %v",
				counts[i-1], counts[i], res[i-1].EpochSec, res[i].EpochSec)
		}
	}
	// Efficiency at 8 nodes must be clearly below 100%.
	speedup := res[0].EpochSec / res[3].EpochSec
	if speedup >= 7.5 {
		t.Fatalf("8-node speedup %v suspiciously linear despite the edge cut", speedup)
	}
	if speedup < 1.5 {
		t.Fatalf("8-node speedup %v — communication model too punishing", speedup)
	}
}

// A worse partition (higher cut) must never be faster.
func TestCutFractionMonotone(t *testing.T) {
	var prev float64
	for i, cut := range []float64{0.1, 0.3, 0.6, 0.9} {
		c := baseCfg()
		c.Nodes = 4
		c.CutFraction = cut
		b, err := EpochTime(c)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && b.EpochSec < prev {
			t.Fatalf("cut %v faster than smaller cut: %v < %v", cut, b.EpochSec, prev)
		}
		prev = b.EpochSec
	}
}

// Ground the model's CutFraction in a real partition: partition a scaled
// papers100M-shaped RMAT graph with the greedy partitioner and feed the
// *measured* cut into the cluster model.
func TestMeasuredCutDrivesModel(t *testing.T) {
	rng := tensor.NewRNG(8)
	g, err := datagen.GenerateRMAT(4000, 48000, datagen.DefaultRMAT, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := graph.PartitionGreedyBFS(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cut := p.EdgeCutFraction(g)
	if cut <= 0 || cut >= 1 {
		t.Fatalf("measured cut %v degenerate", cut)
	}
	c := baseCfg()
	c.Nodes = 4
	c.CutFraction = cut
	b, err := EpochTime(c)
	if err != nil {
		t.Fatal(err)
	}
	if b.EpochSec <= 0 || b.RemoteFetch <= 0 {
		t.Fatalf("cluster model rejected measured cut: %+v", b)
	}
	t.Logf("measured 4-way edge cut on RMAT: %.2f (model default 0.25)", cut)
}

// MAG240M's wide features make remote fetches brutal — the per-iteration
// network share must exceed papers100M's.
func TestWideFeaturesHurtMore(t *testing.T) {
	frac := func(spec datagen.Spec) float64 {
		c := baseCfg()
		c.Nodes = 4
		c.Work = perfmodel.DefaultWorkload(spec, gnn.GCN)
		b, err := EpochTime(c)
		if err != nil {
			t.Fatal(err)
		}
		return b.RemoteFetch / b.IterTime
	}
	if frac(datagen.MAG240MHomo) <= frac(datagen.OGBNPapers100M) {
		t.Fatal("756-dim features should stress the network more than 128-dim")
	}
}

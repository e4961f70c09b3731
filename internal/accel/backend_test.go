package accel

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

type backendFixture struct {
	ds *datagen.Dataset
	mb *sampler.MiniBatch
	x  *tensor.Matrix
}

func makeBackendFixture(t *testing.T, dims []int, seed uint64) *backendFixture {
	t.Helper()
	rng := tensor.NewRNG(seed)
	spec := datagen.Spec{Name: "bk", NumVertices: 500, NumEdges: 3500, FeatDims: dims}
	ds, err := datagen.Materialize(spec, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	fanouts := make([]int, len(dims)-1)
	for i := range fanouts {
		fanouts[i] = 6
	}
	s, err := sampler.New(ds.Graph, fanouts, ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := s.Sample([]int32{3, 7, 11, 19, 23}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(len(mb.InputNodes()), dims[0])
	tensor.GatherRows(x, ds.Features, mb.InputNodes())
	return &backendFixture{ds: ds, mb: mb, x: x}
}

// Forward's logits are the reference GNN implementation's, bit for bit, for
// every supported architecture: the Backend accounts the dataflow and runs
// the one numeric forward.
func TestBackendMatchesReference(t *testing.T) {
	for _, kind := range []gnn.Kind{gnn.GCN, gnn.SAGE} {
		t.Run(kind.String(), func(t *testing.T) {
			dims := []int{12, 10, 4}
			fx := makeBackendFixture(t, dims, 11)
			m, err := gnn.NewModel(gnn.Config{Kind: kind, Dims: dims}, tensor.NewRNG(12))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := m.InferMiniBatchWS(tensor.NewWorkspace(), fx.mb, fx.x)
			if err != nil {
				t.Fatal(err)
			}
			bk := U250Backend(dims[0])
			logits, stats, err := bk.Forward(m, fx.mb, fx.x)
			if err != nil {
				t.Fatal(err)
			}
			if !logits.Equal(ref) {
				t.Fatalf("backend logits differ from reference by %g", logits.MaxAbsDiff(ref))
			}
			if stats.AggCycles <= 0 || stats.UpdateCycles <= 0 || stats.Sec <= 0 {
				t.Fatalf("missing hardware accounting: %+v", stats)
			}
		})
	}
}

// The §IV-C writeback claim: only the final result leaves the device, so
// OutputBytes is |targets|×fL×4 no matter how many layers ran.
func TestBackendOnChipIntermediates(t *testing.T) {
	dims := []int{12, 10, 4}
	fx := makeBackendFixture(t, dims, 13)
	m, _ := gnn.NewModel(gnn.Config{Kind: gnn.GCN, Dims: dims}, tensor.NewRNG(14))
	bk := U250Backend(dims[0])
	_, stats, err := bk.Forward(m, fx.mb, fx.x)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(fx.mb.Targets)) * 4 * 4
	if stats.OutputBytes != want {
		t.Fatalf("OutputBytes = %d, want %d (final layer only)", stats.OutputBytes, want)
	}
	// External feature reads: at most one fetch per distinct input vertex
	// for layer 0 (sorted-edge reuse).
	if stats.TrafficBytes > int64(len(fx.mb.InputNodes()))*int64(dims[0])*4 {
		t.Fatalf("layer-0 traffic %d exceeds one read per input vertex", stats.TrafficBytes)
	}
}

func TestBackendValidation(t *testing.T) {
	dims := []int{12, 10, 4}
	fx := makeBackendFixture(t, dims, 15)
	m, _ := gnn.NewModel(gnn.Config{Kind: gnn.GCN, Dims: []int{12, 4}}, tensor.NewRNG(16))
	bk := U250Backend(12)
	if _, _, err := bk.Forward(m, fx.mb, fx.x); err == nil {
		t.Fatal("expected layer-count error")
	}
	m2, _ := gnn.NewModel(gnn.Config{Kind: gnn.GCN, Dims: dims}, tensor.NewRNG(17))
	bad := tensor.New(fx.x.Rows, 5)
	if _, _, err := bk.Forward(m2, fx.mb, bad); err == nil {
		t.Fatal("expected feature-width error")
	}
}

// Bigger systolic arrays must reduce update cycles (Eq. 12 scaling).
func TestBackendSystolicScaling(t *testing.T) {
	dims := []int{12, 10, 4}
	fx := makeBackendFixture(t, dims, 18)
	m, _ := gnn.NewModel(gnn.Config{Kind: gnn.GCN, Dims: dims}, tensor.NewRNG(19))
	small := U250Backend(dims[0])
	small.Systolic.NumMACs = 64
	big := U250Backend(dims[0])
	big.Systolic.NumMACs = 4096
	_, sSmall, err := small.Forward(m, fx.mb, fx.x)
	if err != nil {
		t.Fatal(err)
	}
	_, sBig, err := big.Forward(m, fx.mb, fx.x)
	if err != nil {
		t.Fatal(err)
	}
	if sBig.UpdateCycles >= sSmall.UpdateCycles {
		t.Fatalf("4096 MACs (%d cycles) not faster than 64 (%d)", sBig.UpdateCycles, sSmall.UpdateCycles)
	}
}

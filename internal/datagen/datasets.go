package datagen

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Spec describes a dataset's shape: everything the paper's performance model
// (§V) needs, independent of whether the actual graph is materialised.
// FeatDims is {f0, f1, ..., fL}: f0 = input feature length, fL = #classes.
type Spec struct {
	Name        string
	NumVertices int64
	NumEdges    int64
	FeatDims    []int
	// TrainNodes is the size of the training split (OGB standard splits for
	// the paper datasets); it determines iterations per epoch.
	TrainNodes int64
}

// NumClasses returns the output dimension (last layer width).
func (s Spec) NumClasses() int { return s.FeatDims[len(s.FeatDims)-1] }

// Layers returns the number of GNN layers L implied by FeatDims.
func (s Spec) Layers() int { return len(s.FeatDims) - 1 }

// The paper's Table III, verbatim. These full-scale specs drive the analytic
// timing models; they are never materialised in memory.
var (
	// OGBNProducts is the medium-scale dataset (61.8M edges, f=(100,256,47)).
	OGBNProducts = Spec{Name: "ogbn-products", NumVertices: 2_449_029, NumEdges: 61_859_140, FeatDims: []int{100, 256, 47}, TrainNodes: 196_615}
	// OGBNPapers100M is the first large-scale dataset (1.6B edges, f=(128,256,172)).
	OGBNPapers100M = Spec{Name: "ogbn-papers100M", NumVertices: 111_059_956, NumEdges: 1_615_685_872, FeatDims: []int{128, 256, 172}, TrainNodes: 1_207_179}
	// MAG240MHomo is the homogeneous MAG240M (1.3B edges, f=(756,256,153)).
	MAG240MHomo = Spec{Name: "MAG240M(homo)", NumVertices: 121_751_666, NumEdges: 1_297_748_926, FeatDims: []int{756, 256, 153}, TrainNodes: 1_112_392}
)

// PaperSpecs lists the three evaluation datasets in Table III order.
func PaperSpecs() []Spec { return []Spec{OGBNProducts, OGBNPapers100M, MAG240MHomo} }

// SpecByName looks up a paper spec by name.
func SpecByName(name string) (Spec, error) {
	for _, s := range PaperSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datagen: unknown dataset %q", name)
}

// Scaled returns a spec with vertex and edge counts divided by factor
// (feature dims unchanged — GNN numerics depend on dims, not graph size).
// The name records the scaling for reports.
func (s Spec) Scaled(factor int64) Spec {
	if factor <= 0 {
		panic("datagen: non-positive scale factor")
	}
	out := s
	out.Name = fmt.Sprintf("%s/%d", s.Name, factor)
	out.NumVertices = s.NumVertices / factor
	if out.NumVertices < 64 {
		out.NumVertices = 64
	}
	out.NumEdges = s.NumEdges / factor
	if out.NumEdges < out.NumVertices {
		out.NumEdges = out.NumVertices
	}
	out.TrainNodes = s.TrainNodes / factor
	if out.TrainNodes < 1 {
		out.TrainNodes = 1
	}
	if out.TrainNodes > out.NumVertices {
		out.TrainNodes = out.NumVertices
	}
	return out
}

// Dataset is a materialised dataset: graph + features + labels + train split.
type Dataset struct {
	Spec     Spec
	Graph    *graph.Graph
	Features *tensor.Matrix // NumVertices × f0
	Labels   []int32        // NumVertices, in [0, NumClasses)
	TrainIdx []int32        // vertices used as mini-batch targets
}

// Materialize generates a concrete dataset for spec using RMAT topology and
// a planted-cluster feature/label model: each vertex is assigned a class and
// its features are the class centroid plus Gaussian noise, so GNN training
// has real signal to learn (loss decreases, accuracy rises above chance).
// trainFraction of vertices (at least 1) become training targets.
//
// The draws, in order: GenerateRMAT, EnsureMinInDegree(1), the centroids,
// per vertex a class and f0 normal variates, then the train split's
// permutation. The RMAT attempts and the feature rows are generated on up
// to tensor.Parallelism() workers, each at its offset in rng's stream, so
// the dataset and where rng is left are those of drawing in that order, at
// any parallelism. Every check runs before the first draw: a rejected call
// leaves rng untouched. Nothing is kept between calls.
func Materialize(spec Spec, trainFraction float64, rng *tensor.RNG) (*Dataset, error) {
	if spec.NumVertices > 10_000_000 {
		return nil, fmt.Errorf("datagen: refusing to materialise %s (%d vertices); use Scaled", spec.Name, spec.NumVertices)
	}
	if spec.NumVertices <= 0 || spec.NumEdges < 0 {
		return nil, fmt.Errorf("datagen: %s: bad sizes V=%d E=%d", spec.Name, spec.NumVertices, spec.NumEdges)
	}
	if len(spec.FeatDims) < 2 || spec.FeatDims[0] < 1 || spec.NumClasses() < 1 {
		return nil, fmt.Errorf("datagen: %s: FeatDims %v needs an input width and a class count ≥ 1", spec.Name, spec.FeatDims)
	}
	if !(trainFraction > 0 && trainFraction <= 1) {
		return nil, fmt.Errorf("datagen: trainFraction %v outside (0,1]", trainFraction)
	}
	n := int(spec.NumVertices)
	g, err := GenerateRMAT(n, int(spec.NumEdges), DefaultRMAT, rng)
	if err != nil {
		return nil, err
	}
	g, err = EnsureMinInDegree(g, 1, rng)
	if err != nil {
		return nil, err
	}

	centroids := tensor.New(spec.NumClasses(), spec.FeatDims[0])
	tensor.NormalInit(centroids, 1.0, rng)
	labels := make([]int32, n)
	features := tensor.New(n, spec.FeatDims[0])
	drawFeatures(features, centroids, labels, rng)

	numTrain := int(float64(n) * trainFraction)
	if numTrain < 1 {
		numTrain = 1
	}
	perm := rng.Perm(n)
	trainIdx := make([]int32, numTrain)
	copy(trainIdx, perm[:numTrain])

	return &Dataset{Spec: spec, Graph: g, Features: features, Labels: labels, TrainIdx: trainIdx}, nil
}

// drawFeatures fills labels and features one vertex at a time from rng: a
// class draw, then one normal variate around the class centroid per column
// (RNG.FillNormal, eight variates at a time where the CPU allows).
// Vertex v's draws start v·(1+2·f0) past rng unless an earlier vertex's
// Box–Muller u1 came out exactly 0 and was drawn again; row ranges run on
// workers at those offsets, a worker that sees a vertex overrun its draws
// stops there, and the vertices from the first overrun on are drawn again in
// order. rng is left where drawing every vertex in order leaves it.
func drawFeatures(features, centroids *tensor.Matrix, labels []int32, rng *tensor.RNG) {
	n, stride := features.Rows, uint64(1+2*features.Cols)
	vertex := func(v int, r *tensor.RNG) {
		cls := r.Intn(centroids.Rows)
		labels[v] = int32(cls)
		r.FillNormal(features.Row(v), centroids.Row(cls), 0.5)
	}
	start := *rng
	var mu sync.Mutex
	redrawn := n // the first vertex whose draws overran its stride
	tensor.ParallelRows(n, features.Cols*normalWork, func(lo, hi int) {
		r := start
		r.Skip(uint64(lo) * stride)
		for v := lo; v < hi; v++ {
			want := r
			want.Skip(stride)
			vertex(v, &r)
			if r != want {
				mu.Lock()
				redrawn = min(redrawn, v)
				mu.Unlock()
				return
			}
		}
	})
	*rng = start
	rng.Skip(uint64(redrawn) * stride)
	for v := redrawn; v < n; v++ {
		vertex(v, rng)
	}
}

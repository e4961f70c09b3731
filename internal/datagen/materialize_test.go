package datagen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// digest is FNV-1a over the little-endian bytes of a sequence of words.
type digest struct{ buf []byte }

func (d *digest) add(x uint64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, x) }

func (d *digest) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.buf)
	return h.Sum64()
}

func (d *digest) graph(g *graph.Graph) {
	for _, p := range g.RowPtr {
		d.add(uint64(p))
	}
	for _, c := range g.ColIdx {
		d.add(uint64(c))
	}
}

// datasetDigest folds RowPtr, ColIdx, the feature bits, Labels, TrainIdx and
// the generator's next draw into one value.
func datasetDigest(ds *Dataset, rng *tensor.RNG) uint64 {
	var d digest
	d.graph(ds.Graph)
	for _, f := range ds.Features.Data {
		d.add(uint64(math.Float32bits(f)))
	}
	for _, l := range ds.Labels {
		d.add(uint64(l))
	}
	for _, v := range ds.TrainIdx {
		d.add(uint64(v))
	}
	d.add(rng.Uint64())
	return d.sum()
}

// graphDigest folds RowPtr, ColIdx and the generator's next draw.
func graphDigest(g *graph.Graph, rng *tensor.RNG) uint64 {
	var d digest
	d.graph(g)
	d.add(rng.Uint64())
	return d.sum()
}

// withParallelism runs fn at each kernel fan-out bound in turn.
func withParallelism(t *testing.T, fn func(t *testing.T, par int)) {
	for _, par := range []int{1, 2, 4} {
		prev := tensor.SetParallelism(par)
		fn(t, par)
		tensor.SetParallelism(prev)
	}
}

// The generator's output and where it leaves the caller's RNG are pinned to
// the digests the sequential generator produced, at every fan-out bound: a
// spec small enough to run on the caller, one asserted above the fan-out
// grain in both stages (so its RMAT attempts and feature rows split across
// workers), and GenerateRMAT alone at one vertex (no draw per attempt) and at
// a power of two (every attempt accepted).
func TestMaterializeDigest(t *testing.T) {
	tiny := Spec{Name: "tiny", NumVertices: 300, NumEdges: 1200, FeatDims: []int{16, 8, 5}}
	grain := Spec{Name: "grain", NumVertices: 6000, NumEdges: 128000, FeatDims: []int{64, 16, 7}}
	datasets := []struct {
		spec Spec
		frac float64
		seed uint64
		want uint64
	}{
		{tiny, 0.5, 5, 0x989643d18765b954},
		{grain, 0.2, 11, 0xf468938054efc116},
	}
	graphs := []struct {
		v, e int
		seed uint64
		want uint64
	}{
		{1, 50, 3, 0x4535f580adb5239d},
		{4096, 120000, 9, 0xa5351b724a16e4fb},
	}
	withParallelism(t, func(t *testing.T, par int) {
		if par > 1 {
			n, e := int(grain.NumVertices), int(grain.NumEdges)
			if tensor.FanOut(n, grain.FeatDims[0]*normalWork) < par || tensor.FanOut(e, rmatLevels(n)*rmatLevelWork) < par {
				t.Fatalf("grain spec runs below the fan-out grain at parallelism %d", par)
			}
			if tensor.FanOut(120000, rmatLevels(4096)*rmatLevelWork) < par {
				t.Fatalf("power-of-two graph runs below the fan-out grain at parallelism %d", par)
			}
		}
		for _, c := range datasets {
			rng := tensor.NewRNG(c.seed)
			ds, err := Materialize(c.spec, c.frac, rng)
			if err != nil {
				t.Fatal(err)
			}
			if got := datasetDigest(ds, rng); got != c.want {
				t.Errorf("par %d: %s digest %#x, want %#x", par, c.spec.Name, got, c.want)
			}
		}
		for _, c := range graphs {
			rng := tensor.NewRNG(c.seed)
			g, err := GenerateRMAT(c.v, c.e, DefaultRMAT, rng)
			if err != nil {
				t.Fatal(err)
			}
			if got := graphDigest(g, rng); got != c.want {
				t.Errorf("par %d: RMAT V=%d E=%d digest %#x, want %#x", par, c.v, c.e, got, c.want)
			}
		}
	})
}

// A rejected call draws nothing: the caller's RNG yields the same next value
// it would have without the call.
func TestMaterializeRejectsBeforeDrawing(t *testing.T) {
	ok := Spec{Name: "ok", NumVertices: 100, NumEdges: 200, FeatDims: []int{4, 4, 2}}
	with := func(edit func(*Spec)) Spec {
		s := ok
		s.FeatDims = append([]int(nil), ok.FeatDims...)
		edit(&s)
		return s
	}
	cases := []struct {
		name string
		spec Spec
		frac float64
	}{
		{"trainFraction 0", ok, 0},
		{"trainFraction 1.5", ok, 1.5},
		{"trainFraction NaN", ok, math.NaN()},
		{"no vertices", with(func(s *Spec) { s.NumVertices = 0 }), 0.5},
		{"negative edges", with(func(s *Spec) { s.NumEdges = -1 }), 0.5},
		{"one feature dim", with(func(s *Spec) { s.FeatDims = []int{4} }), 0.5},
		{"no classes", with(func(s *Spec) { s.FeatDims[2] = 0 }), 0.5},
		{"no input features", with(func(s *Spec) { s.FeatDims[0] = 0 }), 0.5},
		{"full scale", OGBNPapers100M, 0.1},
	}
	for _, c := range cases {
		rng := tensor.NewRNG(9)
		if _, err := Materialize(c.spec, c.frac, rng); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if got, want := rng.Uint64(), tensor.NewRNG(9).Uint64(); got != want {
			t.Errorf("%s: rejected call moved the RNG (next draw %#x, want %#x)", c.name, got, want)
		}
	}
}

// seqFeatures is the sequential feature loop the parallel one must match
// bit for bit: one class draw, then f0 normal variates, per vertex in order.
func seqFeatures(features, centroids *tensor.Matrix, labels []int32, rng *tensor.RNG) {
	for v := 0; v < features.Rows; v++ {
		cls := rng.Intn(centroids.Rows)
		labels[v] = int32(cls)
		row := features.Row(v)
		cen := centroids.Row(cls)
		for j := range row {
			row[j] = cen[j] + float32(rng.NormFloat64()*0.5)
		}
	}
}

// unmixSplitMix64 inverts SplitMix64's output finalizer: the state whose
// draw is z.
func unmixSplitMix64(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := s; i < 64; i += s {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(c uint64) uint64 { // Newton's iteration: each step doubles the correct low bits
		x := c
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z = unshift(z, 31)
	z *= inverse(0x94D049BB133111EB)
	z = unshift(z, 27)
	z *= inverse(0xBF58476D1CE4E5B9)
	return unshift(z, 30)
}

// A Box–Muller u1 of exactly 0 is redrawn, which shifts every later vertex's
// stream by one draw. Seeds built by inverting the finalizer put that draw in
// the first vertex, in a middle one and in the last worker's range; the
// parallel loop must still equal the sequential reference bitwise and leave
// the RNG where it does.
func TestFeatureRedrawMatchesSequential(t *testing.T) {
	const n, f0, classes = 8000, 32, 6
	const gamma = 0x9E3779B97F4A7C15
	stride := 1 + 2*f0
	centroids := tensor.New(classes, f0)
	tensor.NormalInit(centroids, 1.0, tensor.NewRNG(1))
	withParallelism(t, func(t *testing.T, par int) {
		if par > 1 && tensor.FanOut(n, f0*normalWork) < par {
			t.Fatalf("%d×%d features run below the fan-out grain at parallelism %d", n, f0, par)
		}
		for _, at := range []struct{ v, j int }{{0, 0}, {n / 2, 7}, {n - 2, f0 - 1}} {
			// Draw k (1-based) of NewRNG(seed) runs at state seed + (k+1)·γ;
			// vertex v's j-th u1 is draw v·stride + 2 + 2j. Its bits are
			// 0x3ff, so u1 = 0x3ff>>11 / 2⁵³ = 0.
			k := uint64(at.v*stride + 2 + 2*at.j)
			seed := unmixSplitMix64(0x3ff) - (k+1)*gamma
			probe := tensor.NewRNG(seed)
			probe.Skip(k - 1)
			if probe.Float64() != 0 {
				t.Fatalf("seed %#x: draw %d is not a zero u1", seed, k)
			}

			wantF, wantL, wantRNG := tensor.New(n, f0), make([]int32, n), tensor.NewRNG(seed)
			seqFeatures(wantF, centroids, wantL, wantRNG)
			end := tensor.NewRNG(seed)
			end.Skip(uint64(n*stride + 1))
			if *end != *wantRNG {
				t.Fatalf("seed %#x: the reference drew no extra u1", seed)
			}
			gotF, gotL, gotRNG := tensor.New(n, f0), make([]int32, n), tensor.NewRNG(seed)
			drawFeatures(gotF, centroids, gotL, gotRNG)
			for i, w := range wantF.Data {
				if math.Float32bits(gotF.Data[i]) != math.Float32bits(w) {
					t.Fatalf("par %d, redraw at vertex %d: feature %d = %v, want %v", par, at.v, i, gotF.Data[i], w)
				}
			}
			for v, l := range wantL {
				if gotL[v] != l {
					t.Fatalf("par %d, redraw at vertex %d: label %d = %d, want %d", par, at.v, v, gotL[v], l)
				}
			}
			if *gotRNG != *wantRNG {
				t.Fatalf("par %d, redraw at vertex %d: RNG left at a different draw", par, at.v)
			}
		}
	})
}

package bench

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/perfmodel"
)

func TestCacheHitRate(t *testing.T) {
	if cacheHitRate(10, 10) != 1 || cacheHitRate(20, 10) != 1 {
		t.Fatal("full cache should hit always")
	}
	if cacheHitRate(0, 10) != 0 {
		t.Fatal("empty cache should never hit")
	}
	// Zipf skew: caching 25% of rows captures 50% of accesses at s=0.5.
	if got := cacheHitRate(25, 100); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
	// Monotone in cache size.
	if cacheHitRate(30, 100) <= cacheHitRate(20, 100) {
		t.Fatal("hit rate not monotone")
	}
}

func TestPyGMultiGPUBasic(t *testing.T) {
	e, err := pygMultiGPU(hw.CPUGPUPlatform(), perfmodel.DefaultWorkload(datagen.OGBNProducts, gnn.GCN))
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Fatal("non-positive epoch")
	}
	// No accelerators → error.
	bare := hw.CPUGPUPlatform()
	bare.Accels = nil
	if _, err := pygMultiGPU(bare, perfmodel.DefaultWorkload(datagen.OGBNProducts, gnn.GCN)); err == nil {
		t.Fatal("expected error without accelerators")
	}
}

func TestPyGScalesWithDataset(t *testing.T) {
	small, _ := pygMultiGPU(hw.CPUGPUPlatform(), perfmodel.DefaultWorkload(datagen.OGBNProducts, gnn.GCN))
	big, _ := pygMultiGPU(hw.CPUGPUPlatform(), perfmodel.DefaultWorkload(datagen.MAG240MHomo, gnn.GCN))
	if big <= small {
		t.Fatalf("MAG240M (%v) should cost more than products (%v)", big, small)
	}
}

func TestComparatorWorkload(t *testing.T) {
	w, err := comparatorWorkload(datagen.OGBNPapers100M, gnn.GCN, []int{25, 10}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if w.Spec.FeatDims[1] != 32 || w.Spec.FeatDims[0] != 128 || w.Spec.FeatDims[2] != 172 {
		t.Fatalf("dims = %v", w.Spec.FeatDims)
	}
	// 3-layer DistDGL config.
	w3, err := comparatorWorkload(datagen.OGBNProducts, gnn.SAGE, []int{15, 10, 5}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(w3.Spec.FeatDims) != 4 || w3.Spec.FeatDims[2] != 256 {
		t.Fatalf("3-layer dims = %v", w3.Spec.FeatDims)
	}
	if err := w3.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := comparatorWorkload(datagen.OGBNProducts, gnn.GCN, nil, 256); err == nil {
		t.Fatal("expected error for empty fanouts")
	}
	if _, err := comparatorWorkload(datagen.OGBNProducts, gnn.GCN, []int{5}, 0); err == nil {
		t.Fatal("expected error for zero hidden")
	}
}

// PaGraph's weakness per §VI-E2: on graphs whose features exceed the cache,
// misses make it slower per unit work than on cacheable graphs.
func TestPaGraphCacheDegradation(t *testing.T) {
	// Isolate the cache effect: the same graph shape at 1/20 scale has
	// 2.8 GB of features (fits the 10 GB cache entirely) while full-scale
	// papers100M has 57 GB (mostly missing). Average degree and batch sizes
	// are identical, so any per-iteration difference is miss traffic.
	wBig := perfmodel.DefaultWorkload(datagen.OGBNPapers100M, gnn.GCN)
	wSmall := wBig
	wSmall.Spec = datagen.OGBNPapers100M.Scaled(20)
	big, err := paGraph(wBig)
	if err != nil {
		t.Fatal(err)
	}
	small, err := paGraph(wSmall)
	if err != nil {
		t.Fatal(err)
	}
	perIterBig := big / math.Ceil(float64(wBig.Spec.TrainNodes)/8192)
	perIterSmall := small / math.Ceil(float64(wSmall.Spec.TrainNodes)/8192)
	if perIterBig <= perIterSmall*1.05 {
		t.Fatalf("full-scale per-iteration %v should clearly exceed cache-resident %v",
			perIterBig, perIterSmall)
	}
}

func TestDistDGLOnlyConfigValid(t *testing.T) {
	w, err := comparatorWorkload(datagen.OGBNPapers100M, gnn.SAGE, []int{15, 10, 5}, 256)
	if err != nil {
		t.Fatal(err)
	}
	e, err := distDGLv2(w)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Fatal("non-positive epoch")
	}
}

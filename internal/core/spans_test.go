package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/hw"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// spanLine is one line of a span file; the last line carries only Dropped.
type spanLine struct {
	Lane    int    `json:"lane"`
	Kind    string `json:"kind"`
	Index   int    `json:"index"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Dropped int    `json:"dropped"`
}

// recordSpans runs fn under a span recording and returns the spans it wrote,
// failing the test if a lane dropped one.
func recordSpans(t *testing.T, fn func() error) []spanLine {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := trace.WithSpans(path, fn); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []spanLine
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s spanLine
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		spans = append(spans, s)
	}
	if last := spans[len(spans)-1]; last.Kind != "" || last.Dropped != 0 {
		t.Fatalf("span file ends with %+v, want {\"dropped\":0}", last)
	}
	return spans[:len(spans)-1]
}

// Spans read no state the run writes, so a recorded run is the golden run
// bit for bit.
func TestFPGAGoldenUnderSpans(t *testing.T) {
	var got string
	spans := recordSpans(t, func() error {
		got = fpgaEpochSig(t, smallPlatform())
		return nil
	})
	if got != goldenFPGASmall {
		t.Errorf("recorded FPGA run drifted from the golden:\ngot:\n%s\nwant:\n%s", got, goldenFPGASmall)
	}
	kinds := map[string]int{}
	for _, s := range spans {
		kinds[s.Kind]++
	}
	for _, k := range []string{"epoch", "batch", "prepare", "sample", "price", "drm", "compute", "step",
		"aggregate", "update", "loss", "backward", "fold", "reduce", "optimizer"} {
		if kinds[k] == 0 {
			t.Errorf("no %q span in the recorded run (kinds: %v)", k, kinds)
		}
	}
}

// Above one proc every prepare runs on the prefetch worker's lane and every
// compute on the epoch goroutine's, one of each per iteration of each epoch.
func TestSpansPrepareOnPrefetchLane(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	var e *Engine
	spans := recordSpans(t, func() error {
		var err error
		if e, err = NewEngine(baseConfig(t)); err != nil {
			return err
		}
		for ep := 0; ep < 2; ep++ {
			if _, err := e.RunEpoch(); err != nil {
				return err
			}
		}
		return nil
	})
	if e.lane == 0 {
		t.Fatal("an engine built inside a recording reserved no lanes")
	}
	iters := e.batcher.BatchesPerEpoch()
	seen := map[string][]int{}
	for _, s := range spans {
		want := map[string]int{"prepare": e.laneAt(lanePrefetch), "compute": e.lane, "wait": e.lane}[s.Kind]
		if want == 0 {
			continue
		}
		if s.Lane != want {
			t.Fatalf("%s span of iteration %d on lane %d, want lane %d", s.Kind, s.Index, s.Lane, want)
		}
		seen[s.Kind] = append(seen[s.Kind], s.Index)
	}
	for _, kind := range []string{"prepare", "compute", "wait"} {
		if len(seen[kind]) != 2*iters {
			t.Fatalf("%d %s spans over two epochs of %d iterations", len(seen[kind]), kind, iters)
		}
		for i, it := range seen[kind] {
			if it != i%iters {
				t.Fatalf("%s span %d is iteration %d, want %d", kind, i, it, i%iters)
			}
		}
	}
}

// An engine reserves lanes for the pool it runs, not for every trainer: at
// GOMAXPROCS 2 a five-trainer fleet gets the epoch lane, the prefetch lane
// and one pool worker's lane, and each of the three records spans.
func TestSpanLanesSizedToPool(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	cfg := baseConfig(t)
	cfg.Plat = hw.CPUFPGAPlatform() // five trainers
	cfg.Data = lanesDataset(t)
	var e *Engine
	spans := recordSpans(t, func() error {
		var err error
		if e, err = NewEngine(cfg); err != nil {
			return err
		}
		for ep := 0; ep < 2; ep++ {
			if _, err := e.RunEpoch(); err != nil {
				return err
			}
		}
		return nil
	})
	if got := len(e.pool.workers); got != 5 {
		t.Fatalf("%d pool workers, want one per trainer (5)", got)
	}
	const reserved = 3 // epoch, prefetch, pool worker 1
	perLane := map[int]int{}
	for _, s := range spans {
		if s.Lane < e.lane || s.Lane >= e.lane+reserved {
			t.Fatalf("%s span on lane %d, outside the engine's lanes [%d, %d)", s.Kind, s.Lane, e.lane, e.lane+reserved)
		}
		perLane[s.Lane]++
	}
	for k := 0; k < reserved; k++ {
		if perLane[e.lane+k] == 0 {
			t.Errorf("reserved lane %d (offset %d) holds no span", e.lane+k, k)
		}
	}
	for k, w := range e.pool.workers[2:] {
		if w.st.Lane != 0 {
			t.Errorf("pool worker %d has lane %d past the reserved ones, want 0 (off)", k+2, w.st.Lane)
		}
	}
}

func lanesDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	spec := datagen.Spec{Name: "lanes", NumVertices: 20000, NumEdges: 200000,
		FeatDims: []int{16, 16, 5}, TrainNodes: 8000}
	ds, err := datagen.Materialize(spec, 0.4, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

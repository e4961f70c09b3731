package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
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

// recordSpans runs fn under a span recording and returns the spans it wrote
// and the wall time the recording spanned at most, failing the test if a
// lane dropped a span.
func recordSpans(t *testing.T, fn func() error) ([]spanLine, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	begin := time.Now()
	if err := trace.WithSpans(path, fn); err != nil {
		t.Fatal(err)
	}
	wall := int64(time.Since(begin))
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
	return spans[:len(spans)-1], wall
}

// checkNesting fails unless, on every lane, any two spans are disjoint or
// nested, every span lies inside the recording, and the lane's outermost
// spans sum to at most wall.
func checkNesting(t *testing.T, spans []spanLine, wall int64) {
	t.Helper()
	lanes := map[int][]spanLine{}
	for _, s := range spans {
		if s.Start < 0 || s.End < s.Start || s.End > wall {
			t.Fatalf("span %+v outside the recording's [0, %d] ns", s, wall)
		}
		lanes[s.Lane] = append(lanes[s.Lane], s)
	}
	for lane, ss := range lanes {
		// Outer before inner: by start, the longer first at equal starts.
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].End > ss[j].End
		})
		var open []spanLine // the chain of spans enclosing the current one
		var outer int64
		for _, s := range ss {
			for len(open) > 0 && open[len(open)-1].End <= s.Start {
				open = open[:len(open)-1]
			}
			if len(open) == 0 {
				outer += s.End - s.Start
			} else if top := open[len(open)-1]; s.End > top.End {
				t.Fatalf("lane %d: %s %d [%d, %d] overlaps %s %d [%d, %d] without nesting",
					lane, s.Kind, s.Index, s.Start, s.End, top.Kind, top.Index, top.Start, top.End)
			}
			open = append(open, s)
		}
		if outer > wall {
			t.Fatalf("lane %d: outermost spans sum to %d ns, past the recording's %d", lane, outer, wall)
		}
	}
}

// Generated over 1–4 trainers, one and two nodes and GOMAXPROCS 1, 2 and 4:
// a recorded epoch's spans are disjoint or nested on every lane, and every
// iteration has exactly one prepare and one compute.
func TestSpansNestOnEveryLane(t *testing.T) {
	ds := multiDataset(t, 7)
	for _, procs := range []int{1, 2, 4} {
		for trainers := 1; trainers <= 4; trainers++ {
			for _, nodes := range []int{1, 2} {
				t.Run(fmt.Sprintf("GOMAXPROCS=%d/trainers=%d/nodes=%d", procs, trainers, nodes), func(t *testing.T) {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					cfg := multiConfig(t, nodes, ds)
					cfg.Node.Plat.Accels = hw.CPUFPGAPlatform().Accels[:trainers-1]
					iters := 0
					spans, wall := recordSpans(t, func() error {
						if nodes == 1 {
							e, err := core.NewEngine(cfg.Node)
							if err != nil {
								return err
							}
							st, err := e.RunEpoch()
							if st != nil {
								iters = st.Iterations
							}
							return err
						}
						m, err := NewMultiNode(cfg)
						if err != nil {
							return err
						}
						st, err := m.RunEpoch()
						if st != nil {
							iters = nodes * st.Iterations
						}
						return err
					})
					checkNesting(t, spans, wall)
					count := map[string]int{}
					for _, s := range spans {
						count[s.Kind]++
					}
					if iters == 0 || count["prepare"] != iters || count["compute"] != iters || count["epoch"] != nodes {
						t.Fatalf("%d iterations over %d node(s), spans %v: want one prepare and one compute each, one epoch per node",
							iters, nodes, count)
					}
				})
			}
		}
	}
}

// A recorded 4-node run is the golden run bit for bit.
func TestGoldenTrainSigUnderSpans(t *testing.T) {
	var got string
	spans, _ := recordSpans(t, func() error {
		m, err := NewMultiNode(multiConfig(t, 4, multiDataset(t, 7)))
		if err != nil {
			return err
		}
		got = trainSig(t, m, 2)
		return nil
	})
	if got != goldenTrainSig {
		t.Fatalf("recorded run diverged from the golden:\ngot:\n%swant:\n%s", got, goldenTrainSig)
	}
	if len(spans) == 0 {
		t.Fatal("the recorded run wrote no span")
	}
}

package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

// spanLine is one line of a span file; the last line carries only Dropped.
type spanLine struct {
	Lane    int    `json:"lane"`
	Kind    string `json:"kind"`
	Index   int    `json:"index"`
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

// A recorded run is the golden run bit for bit, at one proc and above it, and
// its loop records per batch: one dispatch span per batch, one propagate span
// per computed batch — on an executor's lane when an executor ran the
// forward, on the loop's as propagate/claimed when the loop took a queued
// one and as propagate/no-executor at one proc — and one finish.
func TestServeSpansPerBatch(t *testing.T) {
	ds, m := testSetup(t)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			var s *server
			var st *Stats
			spans := recordSpans(t, func() error {
				var err error
				if s, err = newServer(goldenServeConfig(ds, m)); err != nil {
					return err
				}
				st, err = s.run()
				return err
			})
			if got := serveSig(st); got != goldenServeSig {
				t.Fatalf("recorded run drifted from the golden:\ngot:\n%s\nwant:\n%s", got, goldenServeSig)
			}
			count := map[string]int{}
			for _, sp := range spans {
				onLoop := sp.Lane == s.lane
				if (sp.Kind == "propagate") == onLoop {
					t.Fatalf("%s span of batch %d on lane %d; the loop's is %d", sp.Kind, sp.Index, sp.Lane, s.lane)
				}
				count[sp.Kind]++
			}
			claimed, inline := count["propagate/claimed"], count["propagate/no-executor"]
			switch {
			case count["dispatch"] != st.Batches:
				t.Fatalf("%d dispatch spans for %d batches", count["dispatch"], st.Batches)
			case count["propagate"]+claimed != s.handoffs:
				t.Fatalf("%d executor propagate spans and %d claimed by the loop for %d hand-offs", count["propagate"], claimed, s.handoffs)
			case count["propagate"]+claimed+inline != len(st.Routes):
				t.Fatalf("%d propagate spans for %d computed batches (%v)", count["propagate"]+claimed+inline, len(st.Routes), count)
			case count["finish"] != 1:
				t.Fatalf("%d finish spans", count["finish"])
			case (count["propagate/no-executor"] > 0) != (procs == 1):
				t.Fatalf("at GOMAXPROCS=%d, %d forwards ran inline for want of an executor", procs, count["propagate/no-executor"])
			}
		})
	}
}

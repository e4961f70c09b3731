package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call, recorded by the benchmark around a call into a
// layer's public function. Parent is the id of the span that caused it (0 =
// none); spans of one replayed iteration or batch share Iter.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// maxSpans bounds a trace file; spans past it are counted, not kept (the
// per-layer metrics are accumulated separately and lose nothing).
const maxSpans = 40000

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	dropped  int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(), spans: make([]span, 0, maxSpans)}
}

// begin opens a span and returns its id (0 once the trace is full).
func (t *tracer) begin(parent int, name string, iter int) int {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		Iter: iter, StartNS: time.Since(t.origin).Nanoseconds()})
	return id
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.origin).Nanoseconds()
	return float64(s.EndNS-s.StartNS) * 1e-9
}

// timed runs f under a span and returns how long it took. The duration is
// measured even when the trace is full.
func (t *tracer) timed(parent int, name string, iter int, f func()) float64 {
	id := t.begin(parent, name, iter)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	t.end(id)
	return d
}

// selfMS sums, per span name, each span's duration minus the durations of
// its children — the time spent in the layer itself. Children that re-run a
// parent's inner kernels after the parent returned (the GEMM and aggregate
// replays under a train step) are subtracted the same way.
func (t *tracer) selfMS() map[string]float64 {
	childNS := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		childNS[s.Parent] += s.EndNS - s.StartNS
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.EndNS-s.StartNS-childNS[s.ID]) * 1e-6
	}
	return out
}

// traceFile is what a traced run leaves on disk.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Dropped  int                `json:"dropped_spans"`
	SelfMS   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	raw, err := json.Marshal(traceFile{Workload: t.workload, Seed: seed, Dropped: t.dropped,
		SelfMS: t.selfMS(), Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// tracedEpochs and the single traced replay keep a traced run short: it is
// there for attribution, the end-to-end figures come from the untraced run.
const tracedEpochs = 2

// traceWorkload is one traced run. Each half is run twice at the short
// length — once bare, once under root spans — so the overhead of tracing and
// the identity of every virtual and count figure are checked inside the
// run; then the layers are replayed one public call at a time.
func traceWorkload(w workload, sz sizes, seed uint64, dir string) (*document, error) {
	doc := &document{Workload: w.Name, Train: w.Train.Name, Serve: w.Serve.Name,
		Seed: seed, Traced: true, Env: readEnv(), Notes: loopNotes,
		Timings: map[string]timing{}, Samples: map[string]int{}}
	ps, err := setupPair(w, sz, seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	tr := newTracer(w.Name)
	m := newMetricSet(perLayer)
	m.set("datagen.materialize_s", ps.MaterializeSec)

	trainChecks, err := traceTrain(tr, ps.Train, seed, m, doc)
	if err != nil {
		return nil, err
	}
	serveChecks, err := traceServe(tr, ps.Serve, m, doc)
	if err != nil {
		return nil, err
	}
	if err := m.complete(); err != nil {
		return nil, err
	}
	doc.Metrics = m.vals
	if doc.TraceFile, err = tr.write(dir, seed); err != nil {
		return nil, err
	}
	doc.finish(append(trainChecks, serveChecks...))
	return doc, nil
}

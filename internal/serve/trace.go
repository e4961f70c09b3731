package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Trace is a materialized arrival stream: every request of a run, in
// arrival order, with full bit-exact timestamps. Recording a workload once
// and replaying the trace pins the arrival process completely, so two
// replays produce byte-identical Stats and a formation/policy comparison
// sees exactly the same offered load.
type Trace struct {
	Requests []Request
}

// traceHeader tags the on-disk format; v1 is one request per line:
// "id vertex arrivalHex class cohort" with the arrival in Go's hex float
// syntax, which round-trips float64 exactly.
const traceHeader = "hyscale-serve-trace v1"

// GenerateTrace materializes cfg's arrival stream (Workload, or the single
// RatePerSec/ZipfExponent stream) into a trace of NumRequests arrivals. A
// run of cfg serves exactly these requests — it calls the same
// generateArrivals — so serving cfg directly and replaying its generated
// trace are the same run.
func GenerateTrace(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Replay != nil {
		return nil, fmt.Errorf("serve: GenerateTrace on a replay config")
	}
	reqs, err := generateArrivals(cfg)
	if err != nil {
		return nil, err
	}
	return &Trace{Requests: reqs}, nil
}

// generateArrivals draws cfg's NumRequests arrivals from its configured
// stream: the multi-cohort workload when Workload is set, the single Poisson
// stream otherwise.
func generateArrivals(cfg Config) ([]Request, error) {
	var w *workloadStream
	var err error
	numVertices, rng := cfg.Data.Graph.NumVertices, streamRNG(cfg)
	if cfg.Workload != nil {
		w, err = newWorkloadStream(cfg.Workload, numVertices, rng)
	} else {
		w, err = newPoissonStream(numVertices, cfg.RatePerSec, cfg.ZipfExponent, rng)
	}
	if err != nil {
		return nil, err
	}
	reqs := make([]Request, cfg.NumRequests)
	for i := range reqs {
		reqs[i] = w.next()
	}
	return reqs, nil
}

// WriteTrace serializes a trace; the encoding is deterministic, so equal
// traces serialize to equal bytes.
func WriteTrace(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s n=%d\n", traceHeader, len(t.Requests))
	for _, r := range t.Requests {
		fmt.Fprintf(bw, "%d %d %s %d %d\n",
			r.ID, r.Vertex, strconv.FormatFloat(r.Arrival, 'x', -1, 64), r.Class, r.Cohort)
	}
	return bw.Flush()
}

// ReadTrace parses a serialized trace, validating the header's count, that
// arrivals are finite, non-negative and non-decreasing, and the class range,
// so a replayed trace upholds the stream contracts. (Vertices are checked
// against the graph they are served on, in Run.)
func ReadTrace(rd io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("serve: empty trace")
	}
	var n int
	if _, err := fmt.Sscanf(sc.Text(), traceHeader+" n=%d", &n); err != nil || n < 0 {
		return nil, fmt.Errorf("serve: bad trace header %q", sc.Text())
	}
	// Reserve on the header's word only up to a point; a longer trace grows.
	t := &Trace{Requests: make([]Request, 0, min(n, 1<<16))}
	prev := 0.0
	for sc.Scan() {
		var r Request
		var arrival string
		var class, cohort int
		if _, err := fmt.Sscanf(sc.Text(), "%d %d %s %d %d",
			&r.ID, &r.Vertex, &arrival, &class, &cohort); err != nil {
			return nil, fmt.Errorf("serve: bad trace line %q: %v", sc.Text(), err)
		}
		a, err := strconv.ParseFloat(arrival, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: bad arrival %q: %v", arrival, err)
		}
		if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
			return nil, fmt.Errorf("serve: request %d: arrival %v is not a finite, non-negative time", r.ID, a)
		}
		if a < prev {
			return nil, fmt.Errorf("serve: trace arrivals out of order at request %d", r.ID)
		}
		prev = a
		if class < 0 || class >= NumClasses {
			return nil, fmt.Errorf("serve: request %d: class %d out of range", r.ID, class)
		}
		if cohort < 0 || cohort > 255 {
			return nil, fmt.Errorf("serve: request %d: cohort %d out of range", r.ID, cohort)
		}
		r.Arrival, r.Class, r.Cohort = a, SLOClass(class), uint8(cohort)
		t.Requests = append(t.Requests, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.Requests) != n {
		return nil, fmt.Errorf("serve: trace header promises %d requests, found %d", n, len(t.Requests))
	}
	return t, nil
}

// Package trace holds the commands' run telemetry: a process-wide wall-clock
// span recorder that the training engine and the serving loop write as they
// run — WithSpans, behind the commands' -trace flag — and the CPU and heap
// profile helpers (profile.go).
//
// A recording is active while WithSpans runs its function. A constructor
// reserves lanes with Lanes, one per goroutine that writes spans: core's
// engine reserves its epoch goroutine (also trainer-pool worker 0), its
// prefetch worker and pool workers 1..P−1; a serving run reserves its event
// loop and each executor. A lane is a preallocated buffer with one writer at
// a time, so Begin and End take no lock and allocate nothing. Lane 0 is off:
// Lanes returns it when nothing records, and Begin and End return at once on
// it, so code constructed outside a recording pays one branch per span.
//
// A span is (lane, kind, index, start, end): kind names the step ("prepare",
// "compute", "propagate", …), index is the iteration, trainer, layer or batch
// the kind says, and start and end are wall-clock nanoseconds since WithSpans
// began. The spans of one lane are disjoint or nested, because a lane's
// writer ends its spans in the reverse order it began them.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// laneCap is how many spans one lane keeps; the spans a lane ends past
	// it are counted as dropped.
	laneCap = 1 << 15
	// maxLanes bounds the lanes one recording hands out; a reservation past
	// it gets lane 0.
	maxLanes = 1024
)

// span is one recorded step.
type span struct {
	kind       string
	index      int
	start, end int64
}

// buffer is one lane's spans, preallocated; n counts every span the lane
// ended, the dropped ones included.
type buffer struct {
	spans []span
	n     int
}

// recording is the state of one WithSpans call. Its lanes have the ids
// first, first+1, …; lanes[i] is set once, by the reservation of id first+i.
type recording struct {
	base  time.Time
	first int
	used  int // lanes reserved; guarded by mu
	lanes [maxLanes]atomic.Pointer[buffer]
}

var (
	// mu guards the reservations and nextLane.
	mu sync.Mutex
	// nextLane is the id of the next lane a recording hands out. Ids are
	// never reused, so a lane reserved under an earlier recording is off
	// under a later one.
	nextLane = 1
	// active is the running recording, nil when none runs.
	active atomic.Pointer[recording]
)

// WithSpans runs fn under a span recording and then writes the recorded spans
// to the file at path as JSON lines — the -trace flag of hyscale — one line
// per span, lane by lane in the order each lane ended them:
//
//	{"lane":1,"kind":"prepare","index":0,"start":81234,"end":392001}
//
// and a last line {"dropped":N} counting the spans full lanes could not keep.
// The file is created before fn runs, so an unwritable path fails the run at
// its start. Only lanes reserved while fn runs record. It returns fn's error,
// or else the file's. An empty path means no recording: nothing is created
// and fn just runs.
func WithSpans(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	rec, err := startRecording()
	if err != nil {
		f.Close() // nothing was written; the start error is the one to report
		return err
	}
	used := 0
	func() {
		defer func() { used = stopRecording() }() // on a panic or Goexit too
		err = fn()
	}()
	if werr := rec.write(f, used); werr != nil && err == nil {
		err = fmt.Errorf("-trace %s: %w", path, werr)
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("-trace %s: %w", path, cerr)
	}
	return err
}

// startRecording makes a new recording the active one.
func startRecording() (*recording, error) {
	mu.Lock()
	defer mu.Unlock()
	if active.Load() != nil {
		return nil, errors.New("-trace: a span recording is already running")
	}
	rec := &recording{base: time.Now(), first: nextLane}
	active.Store(rec)
	return rec, nil
}

// stopRecording ends the active recording and returns how many lanes it
// reserved.
func stopRecording() int {
	mu.Lock()
	defer mu.Unlock()
	rec := active.Swap(nil)
	return rec.used
}

// Lanes reserves n lanes of the active recording, with consecutive ids, and
// returns the first; with no recording active (or n < 1, or no room) it
// returns 0, off, and allocates nothing. Each lane must have one writer at a
// time.
func Lanes(n int) int {
	rec := active.Load()
	if rec == nil || n < 1 {
		return 0
	}
	mu.Lock()
	defer mu.Unlock()
	if active.Load() != rec || rec.used+n > maxLanes {
		return 0
	}
	id := rec.first + rec.used
	for i := 0; i < n; i++ {
		rec.lanes[rec.used+i].Store(&buffer{spans: make([]span, laneCap)})
	}
	rec.used += n
	nextLane = id + n
	return id
}

// Begin returns the start of a span on lane: the wall-clock nanoseconds since
// the recording began, or 0 on lane 0 or with no recording active.
func Begin(lane int) int64 {
	if lane == 0 {
		return 0
	}
	return now()
}

// End records the span of kind and index on lane that began at start (what
// Begin returned) and ends now. It is a no-op on lane 0 and on a lane the
// active recording did not reserve.
func End(lane int, kind string, index int, start int64) {
	if lane != 0 {
		record(lane, kind, index, start)
	}
}

// now is the active recording's clock, 0 with none running.
func now() int64 {
	if rec := active.Load(); rec != nil {
		return int64(time.Since(rec.base))
	}
	return 0
}

// record appends one span to lane id's buffer, or counts it as dropped when
// the buffer is full.
func record(id int, kind string, index int, start int64) {
	rec := active.Load()
	if rec == nil {
		return
	}
	i := id - rec.first
	if i < 0 || i >= maxLanes {
		return
	}
	b := rec.lanes[i].Load()
	if b == nil {
		return
	}
	if b.n < len(b.spans) {
		b.spans[b.n] = span{kind: kind, index: index, start: start, end: int64(time.Since(rec.base))}
	}
	b.n++
}

// write renders the first used lanes of rec as JSON lines.
func (rec *recording) write(w io.Writer, used int) error {
	bw := bufio.NewWriter(w)
	var line []byte
	dropped := 0
	for i := 0; i < used; i++ {
		b := rec.lanes[i].Load()
		kept := min(b.n, len(b.spans))
		dropped += b.n - kept
		for _, s := range b.spans[:kept] {
			line = append(line[:0], `{"lane":`...)
			line = strconv.AppendInt(line, int64(rec.first+i), 10)
			line = append(line, `,"kind":`...)
			line = strconv.AppendQuote(line, s.kind)
			line = append(line, `,"index":`...)
			line = strconv.AppendInt(line, int64(s.index), 10)
			line = append(line, `,"start":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, "}\n"...)
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "{\"dropped\":%d}\n", dropped); err != nil {
		return err
	}
	return bw.Flush()
}

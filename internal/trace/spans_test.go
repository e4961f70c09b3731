package trace

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Outside a recording Lanes hands out lane 0 and allocates nothing, and
// Begin/End on lane 0 are free.
func TestLanesOffAllocatesNothing(t *testing.T) {
	if id := Lanes(3); id != 0 {
		t.Fatalf("Lanes(3) outside a recording = %d, want 0", id)
	}
	a := testing.AllocsPerRun(100, func() {
		lane := Lanes(4)
		End(lane, "step", 1, Begin(lane))
	})
	if a != 0 {
		t.Fatalf("Lanes + Begin/End off allocated %.1f times, want 0", a)
	}
}

// A recording writes each lane's spans in the order they ended, with the
// ids Lanes handed out, then the dropped count; recording a span allocates
// nothing; a full lane drops its later spans; and a lane reserved under an
// earlier recording records nothing in a later one.
func TestWithSpansWritesLanes(t *testing.T) {
	dir := t.TempDir()
	var first, stale int
	path := filepath.Join(dir, "a.jsonl")
	err := WithSpans(path, func() error {
		first = Lanes(2)
		if first == 0 {
			t.Fatal("Lanes(2) inside a recording returned 0")
		}
		if n := Lanes(0); n != 0 {
			t.Fatalf("Lanes(0) = %d, want 0", n)
		}
		outer := Begin(first)
		End(first, "inner", 7, Begin(first))
		End(first, "outer", 0, outer)
		for i := 0; i < laneCap+3; i++ {
			End(first+1, "fill", i, Begin(first+1))
		}
		a := testing.AllocsPerRun(10, func() { End(first, "alloc", 0, Begin(first)) })
		if a != 0 {
			t.Fatalf("Begin/End on a live lane allocated %.1f times, want 0", a)
		}
		stale = first
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if want := 2 + 11 + laneCap + 1; len(lines) != want { // inner, outer, the 11 alloc runs, a full lane, dropped
		t.Fatalf("%d lines, want %d", len(lines), want)
	}
	id := func(lane int) string { return `{"lane":` + strconv.Itoa(lane) + `,` }
	if !strings.HasPrefix(lines[0], id(first)+`"kind":"inner","index":7,`) ||
		!strings.HasPrefix(lines[1], id(first)+`"kind":"outer","index":0,`) ||
		!strings.HasPrefix(lines[13], id(first+1)+`"kind":"fill","index":0,`) {
		t.Fatalf("unexpected spans:\n%s\n%s\n%s", lines[0], lines[1], lines[13])
	}
	if last := lines[len(lines)-1]; last != `{"dropped":3}` {
		t.Fatalf("last line %q, want the 3 spans the full lane dropped", last)
	}

	path = filepath.Join(dir, "b.jsonl")
	err = WithSpans(path, func() error {
		End(stale, "stale", 0, Begin(stale))
		if next := Lanes(1); next <= stale+1 {
			t.Fatalf("a later recording reused lane %d (earlier lanes went up to %d)", next, stale+1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "{\"dropped\":0}\n" {
		t.Fatalf("a stale lane recorded into a later recording:\n%s", data)
	}
}

// An unwritable path fails before fn runs, naming the flag; a recording
// cannot start inside another; and fn's error comes back with the file still
// written.
func TestWithSpansErrors(t *testing.T) {
	dir := t.TempDir()
	ran := false
	err := WithSpans(filepath.Join(dir, "missing", "s.jsonl"), func() error { ran = true; return nil })
	if err == nil || ran || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("unwritable path: err = %v, fn ran = %v; want an error naming -trace and no run", err, ran)
	}
	path := filepath.Join(dir, "s.jsonl")
	boom := os.ErrInvalid
	err = WithSpans(path, func() error {
		if err := WithSpans(filepath.Join(dir, "nested.jsonl"), func() error { return nil }); err == nil {
			t.Error("a recording started inside another")
		}
		return boom
	})
	if err != boom {
		t.Fatalf("WithSpans returned %v, want fn's error", err)
	}
	if data, _ := os.ReadFile(path); !strings.HasSuffix(string(data), "{\"dropped\":0}\n") {
		t.Fatalf("a failed run's spans were not written:\n%s", data)
	}
	if id := Lanes(1); id != 0 {
		t.Fatalf("the recording outlived WithSpans: Lanes(1) = %d", id)
	}
}

// Lanes written from their own goroutines at once record every span (the
// race detector checks the single-writer discipline).
func TestLanesConcurrentWriters(t *testing.T) {
	const writers, spans = 4, 1000
	path := filepath.Join(t.TempDir(), "s.jsonl")
	err := WithSpans(path, func() error {
		first := Lanes(writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for i := 0; i < spans; i++ {
					End(lane, "w", i, Begin(lane))
				}
			}(first + w)
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"kind":"w"`); n != writers*spans {
		t.Fatalf("%d spans recorded, want %d", n, writers*spans)
	}
}

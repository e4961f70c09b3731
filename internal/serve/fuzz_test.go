package serve

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// driveBatcher replays a random Add/CloseExpired/Flush schedule against a
// DynamicBatcher under the package contract (arrivals non-decreasing,
// CloseExpired drained before every Add) and checks the batching invariants:
//
//   - conservation: every added request comes back in exactly one batch,
//     never dropped, never duplicated;
//   - the size cap: no batch exceeds maxBatch;
//   - deadline monotonicity: close times never move backwards;
//   - close-time sanity: a batch never closes before its first request.
func driveBatcher(t *testing.T, maxBatch int, window float64, ops []byte) {
	t.Helper()
	b, err := NewDynamicBatcher(maxBatch, window)
	if err != nil {
		t.Skip("invalid knobs")
	}
	seen := make(map[int]int)
	added := 0
	now := 0.0
	lastClose := -1.0
	pending := 0
	consume := func(batch []Request, closeAt float64, how string) {
		if batch == nil {
			return
		}
		if len(batch) == 0 {
			t.Fatalf("%s: closed an empty batch", how)
		}
		if len(batch) > maxBatch {
			t.Fatalf("%s: batch of %d exceeds cap %d", how, len(batch), maxBatch)
		}
		if closeAt < lastClose {
			t.Fatalf("%s: close time %v before previous %v — deadlines not monotone",
				how, closeAt, lastClose)
		}
		if closeAt < batch[0].Arrival {
			t.Fatalf("%s: batch closed at %v before its first arrival %v",
				how, closeAt, batch[0].Arrival)
		}
		lastClose = closeAt
		pending -= len(batch)
		for _, r := range batch {
			seen[r.ID]++
		}
	}
	for _, op := range ops {
		switch op % 3 {
		case 0, 1: // advance time and add (the contract: drain first)
			now += float64(op%7) * window / 5
			for {
				batch, closeAt := b.CloseExpired(now)
				if batch == nil {
					break
				}
				consume(batch, closeAt, "expire")
			}
			batch, closeAt := b.Add(Request{ID: added, Arrival: now})
			added++
			pending++
			consume(batch, closeAt, "size")
		case 2: // deadline sweep without adding
			now += window
			for {
				batch, closeAt := b.CloseExpired(now)
				if batch == nil {
					break
				}
				consume(batch, closeAt, "expire")
			}
		}
		if b.Pending() != pending {
			t.Fatalf("pending drifted: batcher says %d, ledger says %d", b.Pending(), pending)
		}
	}
	batch, closeAt := b.Flush()
	consume(batch, closeAt, "flush")
	if b.Pending() != 0 || pending != 0 {
		t.Fatalf("flush left %d requests pending", b.Pending())
	}
	if len(seen) != added {
		t.Fatalf("lost requests: added %d, got back %d", added, len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("request %d emitted %d times", id, n)
		}
	}
}

// FuzzDynamicBatcher feeds arbitrary op schedules to driveBatcher. The seed
// corpus covers the regimes the serving loop exercises: size-closed,
// deadline-closed, zero-window, and interleaved sweeps.
func FuzzDynamicBatcher(f *testing.F) {
	f.Add(uint8(4), float64(1e-3), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(1), float64(0), []byte{0, 1, 2, 0, 1, 2})
	f.Add(uint8(32), float64(5e-3), []byte{2, 2, 0, 0, 2, 1, 1, 1, 2})
	f.Add(uint8(3), float64(1e-6), []byte{1, 0, 2, 1, 0, 2, 1, 0})
	f.Fuzz(func(t *testing.T, maxBatch uint8, window float64, ops []byte) {
		if maxBatch == 0 || window < 0 || window > 10 || len(ops) > 4096 {
			t.Skip()
		}
		driveBatcher(t, int(maxBatch), window, ops)
	})
}

// TestBatcherInvariantsRandomized runs the same invariant harness over a
// deterministic spread of knobs and schedules on every plain `go test` (the
// fuzz engine only replays its corpus there).
func TestBatcherInvariantsRandomized(t *testing.T) {
	rng := tensor.NewRNG(99)
	for trial := 0; trial < 200; trial++ {
		maxBatch := 1 + rng.Intn(40)
		window := float64(rng.Intn(4)) * 0.5e-3 // includes zero-window
		ops := make([]byte, 1+rng.Intn(300))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		driveBatcher(t, maxBatch, window, ops)
	}
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Whatever ParseWorkloadSpec accepts validates and carries only finite
// numbers; whatever it rejects, it rejects with an error, not a panic. Seeds:
// the doc-comment example and the inputs the parser used to accept.
func FuzzParseWorkloadSpec(f *testing.F) {
	for _, seed := range []string{
		"web,rate=4000,class=interactive,zipf=1.1,phases=0.3s@2x+0.3s@0.5x;etl,rate=1500,dist=weibull,shape=0.7,class=bulk",
		"api,rate=2000,dist=gamma,shape=0.5; ;",
		"web,rate=NaN", "web,rate=+Inf", "web,rate=100,shape=NaN", "web,rate=100,zipf=NaN",
		"web,rate=100,phases=NaNs@1x", "web,rate=10,rate=20", "web,rate=1e308,phases=1e-320@1e308",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseWorkloadSpec(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseWorkloadSpec(%q) accepted a spec Validate rejects: %v", s, err)
		}
		for _, c := range spec.Cohorts {
			ok := finite(c.RatePerSec, c.Shape, c.Zipf)
			for _, p := range c.Phases {
				ok = ok && finite(p.DurationSec, p.Mult)
			}
			if !ok {
				t.Fatalf("ParseWorkloadSpec(%q) accepted a non-finite number: %+v", s, c)
			}
		}
	})
}

// Whatever ParseSLOTargets accepts is what newServer accepts: in-range
// classes, each once, with finite positive targets.
func FuzzParseSLOTargets(f *testing.F) {
	for _, seed := range []string{
		"interactive=2,standard=10,bulk=50", " bulk = 5 ", "",
		"interactive=2abc", "interactive=NaN", "interactive=+Inf", "bulk=5e-324",
		"interactive=2,interactive=3", "standard=1e308",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		targets, err := ParseSLOTargets(s)
		if err != nil {
			return
		}
		var seen [NumClasses]bool
		for _, tg := range targets {
			if tg.Class >= NumClasses || seen[tg.Class] {
				t.Fatalf("ParseSLOTargets(%q) accepted class %d out of range or twice: %+v", s, tg.Class, targets)
			}
			seen[tg.Class] = true
			if !finite(tg.TargetSec) || tg.TargetSec <= 0 {
				t.Fatalf("ParseSLOTargets(%q) accepted target %v", s, tg.TargetSec)
			}
		}
	})
}

// Whatever ReadTrace accepts is a stream the server can trust — every arrival
// finite, non-negative and in order, every class in range — and it is a fixed
// point of the encoding: written out and read back, it writes the same bytes.
// Whatever it rejects, it rejects with an error, not a panic or an
// allocation sized by the header. Seeds: a valid trace and the inputs the
// reader used to mishandle.
func FuzzReadTrace(f *testing.F) {
	for _, seed := range []string{
		" n=2\n0 1 0x1p-10 0 0\n1 7 0x1.8p-9 2 3\n", " n=0\n",
		" n=-1\n", " n=4611686018427387904\n0 1 0x1p-10 0 0\n",
		" n=1\n0 1 NaN 0 0\n", " n=1\n0 1 +Inf 0 0\n", " n=1\n0 1 -0x1p-1 0 0\n",
		" n=3\n0 1 0x1p-3 0 0\n1 1 NaN 0 0\n2 1 -0x1p-1 0 0\n",
		" n=1\n0 1073741824 0x1p-10 0 0\n", " n=1\n0 1 0x1p-10 7 0\n", " n=1\n0 1 0x1p-10 0 256\n",
	} {
		f.Add(traceHeader + seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ReadTrace(strings.NewReader(s))
		if err != nil {
			return
		}
		prev := 0.0
		for _, r := range tr.Requests {
			if !finite(r.Arrival) || r.Arrival < prev || r.Class >= NumClasses {
				t.Fatalf("ReadTrace accepted request %+v after arrival %v", r, prev)
			}
			prev = r.Arrival
		}
		var first, second bytes.Buffer
		if err := WriteTrace(&first, tr); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace rejected WriteTrace's output: %v\n%s", err, first.Bytes())
		}
		if err := WriteTrace(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trace did not round-trip byte for byte:\n%s\nbecame\n%s", first.Bytes(), second.Bytes())
		}
	})
}

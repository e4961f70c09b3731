package serve

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// legacyBatcher is the pre-formation DynamicBatcher, reproduced verbatim as
// the oracle for the FCFS pin: the default formation must be byte-identical
// to it — same batches, same order, same close times — on any schedule.
type legacyBatcher struct {
	maxBatch int
	window   float64
	pending  []Request
	spare    []Request
}

func (b *legacyBatcher) deadline() (float64, bool) {
	if len(b.pending) == 0 {
		return 0, false
	}
	return b.pending[0].Arrival + b.window, true
}

func (b *legacyBatcher) add(r Request) ([]Request, float64) {
	b.pending = append(b.pending, r)
	if len(b.pending) >= b.maxBatch {
		return b.take(), r.Arrival
	}
	return nil, 0
}

func (b *legacyBatcher) closeExpired(now float64) ([]Request, float64) {
	dl, open := b.deadline()
	if !open || dl > now {
		return nil, 0
	}
	return b.take(), dl
}

func (b *legacyBatcher) flush() ([]Request, float64) {
	dl, open := b.deadline()
	if !open {
		return nil, 0
	}
	return b.take(), dl
}

func (b *legacyBatcher) take() []Request {
	batch := b.pending
	b.pending = b.spare[:0]
	b.spare = batch
	return batch
}

func sameBatch(a, b []Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFormationFCFSByteIdentical drives the new batcher (default formation)
// and the legacy oracle over randomized schedules — mixed classes included,
// which FCFS must ignore — and requires every closed batch to match request
// for request with the identical close time.
func TestFormationFCFSByteIdentical(t *testing.T) {
	rng := tensor.NewRNG(41)
	for trial := 0; trial < 100; trial++ {
		maxBatch := 1 + rng.Intn(16)
		window := float64(rng.Intn(4)) * 0.5e-3
		nb, err := NewSplitBatcher(maxBatch, window, 0)
		if err != nil {
			t.Fatal(err)
		}
		lb := &legacyBatcher{maxBatch: maxBatch, window: window}
		check := func(gotB []Request, gotAt float64, wantB []Request, wantAt float64) {
			if !sameBatch(gotB, wantB) || gotAt != wantAt {
				t.Fatalf("trial %d: fcfs diverged from legacy batcher:\n got %v @ %v\nwant %v @ %v",
					trial, gotB, gotAt, wantB, wantAt)
			}
		}
		now := 0.0
		for i := 0; i < 200; i++ {
			now += float64(rng.Intn(7)) * window / 5
			for {
				gb, ga := nb.CloseExpired(now)
				wb, wa := lb.closeExpired(now)
				check(gb, ga, wb, wa)
				if gb == nil {
					break
				}
			}
			r := Request{ID: i, Vertex: int32(rng.Intn(100)), Arrival: now, Class: SLOClass(rng.Intn(3))}
			gb, ga := nb.Add(r)
			wb, wa := lb.add(r)
			check(gb, ga, wb, wa)
		}
		gb, ga := nb.Flush()
		wb, wa := lb.flush()
		check(gb, ga, wb, wa)
	}
}

// driveFormationBatcher is driveBatcher's counterpart for the formation
// policies: same conservation, size-cap, and monotone-close invariants, plus
// the formation contract — a batch never closes before a member arrived nor
// later than its oldest member's arrival plus the window, and priority
// batches dispatch in (class, arrival, ID) order.
func driveFormationBatcher(t *testing.T, maxBatch int, window float64, formation string, ops []byte) {
	t.Helper()
	b, err := NewSplitBatcher(maxBatch, window, 0)
	if err != nil {
		t.Skip("invalid batcher config")
	}
	if err := b.SetFormation(formation, nil); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	added, closed := 0, 0
	now, lastClose := 0.0, math.Inf(-1)
	consume := func(batch []Request, closeAt float64) {
		if batch == nil {
			return
		}
		closed += len(batch)
		if len(batch) > maxBatch {
			t.Fatalf("batch size %d exceeds max %d", len(batch), maxBatch)
		}
		if closeAt < lastClose {
			t.Fatalf("close time went backwards: %v after %v", closeAt, lastClose)
		}
		lastClose = closeAt
		minA, maxA := math.Inf(1), math.Inf(-1)
		for i, r := range batch {
			if seen[r.ID] {
				t.Fatalf("request %d closed twice", r.ID)
			}
			seen[r.ID] = true
			minA = math.Min(minA, r.Arrival)
			maxA = math.Max(maxA, r.Arrival)
			if formation == FormationPriority && i > 0 && classLess(r, batch[i-1]) {
				t.Fatalf("priority batch out of (class, arrival) order at %d: %v", i, batch)
			}
		}
		if closeAt < maxA {
			t.Fatalf("batch closed at %v before its newest member arrived at %v", closeAt, maxA)
		}
		if closeAt > minA+window {
			t.Fatalf("batch closed at %v, later than oldest arrival %v + window %v", closeAt, minA, window)
		}
	}
	for _, op := range ops {
		switch op % 3 {
		case 0, 1:
			now += float64(op%7) * window / 5
			for {
				batch, closeAt := b.CloseExpired(now)
				if batch == nil {
					break
				}
				consume(batch, closeAt)
			}
			batch, closeAt := b.Add(Request{
				ID: added, Vertex: int32(op), Arrival: now, Class: SLOClass((op / 3) % 3),
			})
			added++
			consume(batch, closeAt)
		case 2:
			now += window
			for {
				batch, closeAt := b.CloseExpired(now)
				if batch == nil {
					break
				}
				consume(batch, closeAt)
			}
		}
	}
	batch, closeAt := b.Flush()
	consume(batch, closeAt)
	if closed != added {
		t.Fatalf("conservation violated: added %d, closed %d", added, closed)
	}
	if b.pendingLen() != 0 {
		t.Fatalf("%d requests stranded after flush", b.pendingLen())
	}
}

// FuzzFormationBatcher fuzzes the fcfs and priority formations under the same
// invariant harness as FuzzDynamicBatcher.
func FuzzFormationBatcher(f *testing.F) {
	f.Add(uint8(8), 0.5e-3, uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), 0.0, uint8(1), []byte{2, 2, 2, 0})
	f.Add(uint8(32), 1e-3, uint8(0), []byte("priority-fcfs under fuzz"))
	f.Add(uint8(3), 2e-3, uint8(1), []byte{255, 254, 253, 0, 1, 2})
	f.Fuzz(func(t *testing.T, maxBatch uint8, window float64, pol uint8, ops []byte) {
		if maxBatch == 0 || window < 0 || window > 10 || math.IsNaN(window) || len(ops) > 4096 {
			t.Skip()
		}
		formation := FormationFCFS
		if pol%2 == 1 {
			formation = FormationPriority
		}
		driveFormationBatcher(t, int(maxBatch), window, formation, ops)
	})
}

// TestFormationInvariantsRandomized runs the formation harness over random
// schedules so the invariants hold in plain `go test` runs too.
func TestFormationInvariantsRandomized(t *testing.T) {
	rng := tensor.NewRNG(77)
	for trial := 0; trial < 200; trial++ {
		maxBatch := 1 + rng.Intn(40)
		window := float64(rng.Intn(4)) * 0.5e-3
		formation := FormationFCFS
		if trial%2 == 1 {
			formation = FormationPriority
		}
		ops := make([]byte, 1+rng.Intn(300))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		driveFormationBatcher(t, maxBatch, window, formation, ops)
	}
}

// TestPriorityFormationPullsDeadline pins the priority policy's mechanism:
// an interactive arrival joining an open pool pulls the close deadline to a
// quarter of the window past its own arrival, and the closed batch dispatches
// interactive-first.
func TestPriorityFormationPullsDeadline(t *testing.T) {
	const window = 1e-3
	b, err := NewSplitBatcher(10, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetFormation(FormationPriority, nil); err != nil {
		t.Fatal(err)
	}
	b.Add(Request{ID: 0, Arrival: 0, Class: ClassStandard})
	if dl, _ := b.closeDeadline(); dl != window {
		t.Fatalf("standard-only pool deadline = %v, want full window %v", dl, window)
	}
	b.Add(Request{ID: 1, Arrival: 1e-4, Class: ClassInteractive})
	wantDL := 1e-4 + 0.25*window
	if dl, _ := b.closeDeadline(); dl != wantDL {
		t.Fatalf("mixed pool deadline = %v, want interactive-weighted %v", dl, wantDL)
	}
	batch, closeAt := b.CloseExpired(wantDL)
	if batch == nil || closeAt != wantDL {
		t.Fatalf("batch did not close at the weighted deadline: %v @ %v", batch, closeAt)
	}
	if batch[0].ID != 1 || batch[1].ID != 0 {
		t.Fatalf("priority batch not interactive-first: %v", batch)
	}
}

// TestSetFormationErrors pins the wiring contract.
func TestSetFormationErrors(t *testing.T) {
	b, err := NewSplitBatcher(4, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetFormation("speculative", nil); err == nil {
		t.Fatal("unknown formation accepted")
	}
	for _, name := range []string{"sjf", "priority-fcfs"} {
		if err := b.SetFormation(name, nil); err == nil {
			t.Fatalf("formation %q accepted", name)
		}
	}
	if got := b.formation; got != FormationFCFS {
		t.Fatalf("failed SetFormation mutated the policy to %q", got)
	}
	b.Add(Request{ID: 0})
	if err := b.SetFormation(FormationPriority, nil); err == nil {
		t.Fatal("formation change with a batch open accepted")
	}
}

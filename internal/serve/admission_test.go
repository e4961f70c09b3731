package serve

import (
	"testing"

	"repro/internal/hw"
)

// TestRefitLaw pins the caps of admission's one law over the live fleet:
// each kind with 0 < live < Σlive gets max(1, ⌊QueueCap·live/Σlive⌋)
// in-flight slots, and a kind that is the whole live fleet or has no live
// worker gets none. The rows refit one controller in turn, so each also checks
// that refit rewrites every cap (a kind that died keeps no old cap).
func TestRefitLaw(t *testing.T) {
	type live = [hw.KindCount]int
	const queueCap = 8
	a := newAdmissionController(queueCap)
	for _, c := range []struct {
		name string
		live live
		pool int
		caps live
	}{
		{"mixed pool", live{hw.FPGA: 2, hw.CPU: 1}, 3, live{hw.FPGA: 5, hw.CPU: 2}},
		{"dead kind", live{hw.FPGA: 2}, 3, live{}},
		{"sole live kind", live{hw.GPU: 4}, 4, live{}},
		{"floor of one", live{hw.GPU: 1, hw.FPGA: 20}, 21, live{hw.GPU: 1, hw.FPGA: 7}},
		{"half survive", live{hw.GPU: 1, hw.CPU: 1}, 4, live{hw.GPU: 4, hw.CPU: 4}},
		{"none survive", live{}, 3, live{}},
	} {
		a.refit(c.live, c.pool)
		if a.caps != c.caps {
			t.Errorf("%s: caps %v, want %v", c.name, a.caps, c.caps)
		}
	}
}

// TestDegradedAdmission pins refit's shedding order as a pool of 4 loses its
// workers one by one: bulk is shed once any worker is lost, standard once
// fewer than half survive (2 of 4 is not fewer), and interactive never.
func TestDegradedAdmission(t *testing.T) {
	const pool = 4
	a := newAdmissionController(16)
	for _, c := range []struct {
		live         int
		bulk, stdShd bool
	}{
		{4, false, false},
		{3, true, false},
		{2, true, false},
		{1, true, true},
		{0, true, true},
	} {
		a.refit([hw.KindCount]int{hw.GPU: c.live}, pool)
		if a.shedClass(ClassBulk) != c.bulk || a.shedClass(ClassStandard) != c.stdShd {
			t.Errorf("%d of %d live: sheds bulk %v, standard %v; want %v, %v", c.live, pool,
				a.shedClass(ClassBulk), a.shedClass(ClassStandard), c.bulk, c.stdShd)
		}
		if a.shedClass(ClassInteractive) {
			t.Errorf("%d of %d live: interactive shed", c.live, pool)
		}
	}
}

// TestSetKindCapEdgeCases: a refit that changes a kind's cap while the kind
// holds in-flight work acts at once. Lifting the cap (the kind becomes the
// sole live kind) frees the kind without touching its in-flight entries;
// tightening below the in-flight count saturates it until completions pass.
func TestSetKindCapEdgeCases(t *testing.T) {
	a := newAdmissionController(4)
	a.refit([hw.KindCount]int{hw.FPGA: 1, hw.GPU: 1}, 2) // FPGA cap 2
	for i := 0; i < 2; i++ {
		if !a.admit(0) {
			t.Fatalf("admit %d refused under empty queue", i)
		}
	}
	a.dispatchedKind(hw.FPGA, []float64{10, 11}) // in flight far in the future
	if !a.kindSaturated(hw.FPGA, 1) {
		t.Fatal("FPGA not saturated at its cap of 2")
	}
	a.refit([hw.KindCount]int{hw.FPGA: 1}, 2)
	if a.kindSaturated(hw.FPGA, 1) {
		t.Fatal("sole live kind still bounded")
	}
	if a.kindInflight(hw.FPGA) != 2 {
		t.Fatalf("in-flight count %d changed by a refit", a.kindInflight(hw.FPGA))
	}
	a.refit([hw.KindCount]int{hw.FPGA: 1, hw.GPU: 3}, 4) // FPGA cap 1
	if !a.kindSaturated(hw.FPGA, 1) {
		t.Fatal("cap 1 under 2 in flight not saturated")
	}
	if a.kindSaturated(hw.FPGA, 11) { // both completions (10, 11) are done by 11
		t.Fatal("saturated after every completion passed")
	}
}

// TestSaturationCheckOnlyReads: the router may check a kind's share at a time
// ahead of the event loop (a retried batch routes at its backoff time). The
// check must leave admission as it was: the completions it looks past are
// still in flight for the next admit, which runs at the loop's own clock.
func TestSaturationCheckOnlyReads(t *testing.T) {
	a := newAdmissionController(2)
	a.caps[hw.FPGA] = 1
	if !a.admit(0) || !a.admit(0) {
		t.Fatal("fill refused")
	}
	a.dispatchedKind(hw.FPGA, []float64{1, 2})
	if a.kindSaturated(hw.FPGA, 5) {
		t.Fatal("saturated at a time after every completion")
	}
	if got := a.outstanding(); got != 2 {
		t.Fatalf("outstanding %d after a saturation check at t=5, want 2", got)
	}
	if a.admit(0.5) {
		t.Fatal("admitted at t=0.5 with both requests still in flight")
	}
}

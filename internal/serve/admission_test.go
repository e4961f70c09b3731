package serve

import (
	"testing"

	"repro/internal/hw"
)

// Pin the admissionController's edge cases — cap zero and negative
// handling, re-setting caps mid-run with work outstanding — plus degraded-mode
// admission.

// TestSetKindCapEdgeCases: cap 0 removes the bound even while the kind holds
// in-flight work; a negative cap clamps to 0 (removed), not to a tiny bound.
func TestSetKindCapEdgeCases(t *testing.T) {
	a := newAdmissionController(8)
	a.setKindCap(hw.FPGA, 2)
	for i := 0; i < 2; i++ {
		if !a.admit(0) {
			t.Fatalf("admit %d refused under empty queue", i)
		}
	}
	a.dispatchedKind(hw.FPGA, []float64{10, 11}) // in flight far in the future
	if !a.kindSaturated(hw.FPGA, 1) {
		t.Fatal("FPGA not saturated at its cap of 2")
	}
	// Removing the cap mid-run with outstanding in-flight must lift the
	// bound immediately; the in-flight entries stay until their completions.
	a.setKindCap(hw.FPGA, 0)
	if a.kindSaturated(hw.FPGA, 1) {
		t.Fatal("cap 0 did not remove the bound")
	}
	if a.kindInflight(hw.FPGA) != 2 {
		t.Fatalf("in-flight count %d changed by a cap update", a.kindInflight(hw.FPGA))
	}
	// Negative caps clamp to 0 (removed), not to a 0-slot bound that would
	// saturate forever.
	a.setKindCap(hw.FPGA, -3)
	if a.kindSaturated(hw.FPGA, 1) {
		t.Fatal("negative cap behaved as a real bound")
	}
	// Tightening below the current in-flight count saturates immediately and
	// releases once completions drain past the horizon.
	a.setKindCap(hw.FPGA, 1)
	if !a.kindSaturated(hw.FPGA, 1) {
		t.Fatal("cap 1 under 2 in-flight not saturated")
	}
	if a.kindSaturated(hw.FPGA, 12) { // both completions (10, 11) have drained
		t.Fatal("saturated after every completion drained")
	}
}

// TestDegradedAdmission pins the fault plane's admission additions: shedClass
// follows the bulk → standard → never-interactive order as the degraded
// fraction falls, and cancel releases waiting slots.
func TestDegradedAdmission(t *testing.T) {
	a := newAdmissionController(16)
	if a.shedClass(ClassBulk) || a.shedClass(ClassStandard) || a.shedClass(ClassInteractive) {
		t.Fatal("healthy fleet sheds")
	}
	a.setDegraded(0.75)
	if !a.shedClass(ClassBulk) {
		t.Fatal("bulk survives at 75% capacity")
	}
	if a.shedClass(ClassStandard) || a.shedClass(ClassInteractive) {
		t.Fatal("standard/interactive shed at 75% capacity")
	}
	a.setDegraded(0.25)
	if !a.shedClass(ClassStandard) {
		t.Fatal("standard survives at 25% capacity")
	}
	if a.shedClass(ClassInteractive) {
		t.Fatal("interactive must never shed")
	}
	// Fractions outside [0, 1] behave as the nearest bound.
	a.setDegraded(-1)
	if !a.shedClass(ClassBulk) || !a.shedClass(ClassStandard) || a.shedClass(ClassInteractive) {
		t.Fatal("a negative fraction does not shed as a dead fleet")
	}
	a.setDegraded(2)
	if a.shedClass(ClassBulk) || a.shedClass(ClassStandard) || a.shedClass(ClassInteractive) {
		t.Fatal("a fraction above 1 sheds")
	}

	// cancel releases waiting slots and clamps at zero. A serving run never
	// over-cancels (every request is admitted in offer before it can be
	// shed); the clamp guards direct callers only.
	b := newAdmissionController(2)
	if !b.admit(0) || !b.admit(0) {
		t.Fatal("fill refused")
	}
	if b.admit(0) {
		t.Fatal("admit above capacity")
	}
	b.cancel(1)
	if !b.admit(0) {
		t.Fatal("cancelled slot not released")
	}
	b.cancel(100)
	if b.outstanding() != 0 {
		t.Fatalf("outstanding %d after over-cancel, want 0", b.outstanding())
	}
}

package serve

import (
	"testing"

	"repro/internal/hw"
)

// Pin the AdmissionController's edge cases — cap zero and negative
// handling, re-setting caps mid-run with work outstanding — plus degraded-mode
// admission.

// TestSetKindCapEdgeCases: cap 0 removes the bound even while the kind holds
// in-flight work; a negative cap clamps to 0 (removed), not to a tiny bound.
func TestSetKindCapEdgeCases(t *testing.T) {
	a, err := NewAdmissionController(8)
	if err != nil {
		t.Fatal(err)
	}
	a.SetKindCap(hw.FPGA, 2)
	for i := 0; i < 2; i++ {
		if !a.Admit(0) {
			t.Fatalf("admit %d refused under empty queue", i)
		}
	}
	a.DispatchedKind(hw.FPGA, []float64{10, 11}) // in flight far in the future
	if !a.KindSaturated(hw.FPGA, 1) {
		t.Fatal("FPGA not saturated at its cap of 2")
	}
	// Removing the cap mid-run with outstanding in-flight must lift the
	// bound immediately; the in-flight entries stay until their completions.
	a.SetKindCap(hw.FPGA, 0)
	if a.KindSaturated(hw.FPGA, 1) {
		t.Fatal("cap 0 did not remove the bound")
	}
	if a.KindInflight(hw.FPGA) != 2 {
		t.Fatalf("in-flight count %d changed by a cap update", a.KindInflight(hw.FPGA))
	}
	// Negative caps clamp to 0 (removed), not to a 0-slot bound that would
	// saturate forever.
	a.SetKindCap(hw.FPGA, -3)
	if a.KindSaturated(hw.FPGA, 1) {
		t.Fatal("negative cap behaved as a real bound")
	}
	// Tightening below the current in-flight count saturates immediately and
	// releases once completions drain past the horizon.
	a.SetKindCap(hw.FPGA, 1)
	if !a.KindSaturated(hw.FPGA, 1) {
		t.Fatal("cap 1 under 2 in-flight not saturated")
	}
	if a.KindSaturated(hw.FPGA, 12) { // both completions (10, 11) have drained
		t.Fatal("saturated after every completion drained")
	}
}

// TestDegradedAdmission pins the fault plane's admission additions: ShedClass
// follows the bulk → standard → never-interactive order as the degraded
// fraction falls, and Cancel releases waiting slots.
func TestDegradedAdmission(t *testing.T) {
	a, err := NewAdmissionController(16)
	if err != nil {
		t.Fatal(err)
	}
	if a.ShedClass(ClassBulk) || a.ShedClass(ClassStandard) || a.ShedClass(ClassInteractive) {
		t.Fatal("healthy fleet sheds")
	}
	a.SetDegraded(0.75)
	if !a.ShedClass(ClassBulk) {
		t.Fatal("bulk survives at 75% capacity")
	}
	if a.ShedClass(ClassStandard) || a.ShedClass(ClassInteractive) {
		t.Fatal("standard/interactive shed at 75% capacity")
	}
	a.SetDegraded(0.25)
	if !a.ShedClass(ClassStandard) {
		t.Fatal("standard survives at 25% capacity")
	}
	if a.ShedClass(ClassInteractive) {
		t.Fatal("interactive must never shed")
	}
	// Fractions outside [0, 1] behave as the nearest bound.
	a.SetDegraded(-1)
	if !a.ShedClass(ClassBulk) || !a.ShedClass(ClassStandard) || a.ShedClass(ClassInteractive) {
		t.Fatal("a negative fraction does not shed as a dead fleet")
	}
	a.SetDegraded(2)
	if a.ShedClass(ClassBulk) || a.ShedClass(ClassStandard) || a.ShedClass(ClassInteractive) {
		t.Fatal("a fraction above 1 sheds")
	}

	// Cancel releases waiting slots and clamps at zero. A serving run never
	// over-cancels (every request is admitted in offer before it can be
	// shed); the clamp guards direct callers only.
	b, _ := NewAdmissionController(2)
	if !b.Admit(0) || !b.Admit(0) {
		t.Fatal("fill refused")
	}
	if b.Admit(0) {
		t.Fatal("admit above capacity")
	}
	b.Cancel(1)
	if !b.Admit(0) {
		t.Fatal("cancelled slot not released")
	}
	b.Cancel(100)
	if b.Outstanding() != 0 {
		t.Fatalf("outstanding %d after over-cancel, want 0", b.Outstanding())
	}
}

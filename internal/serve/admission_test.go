package serve

import (
	"testing"

	"repro/internal/hw"
)

// Satellite 2: pin the AdmissionController's edge cases — cap zero and
// negative handling, re-setting caps and class rates mid-run with work
// outstanding — plus the degraded-mode additions this PR wires in.

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

// TestSetClassRateMidRunReset: re-setting a class's rate mid-run rebuilds the
// bucket full (a literal reset: last=0, tokens=burst) — so the next refill
// spans the whole elapsed virtual time but clamps at the new burst, and an
// exhausted bucket is forgiven by the reset.
func TestSetClassRateMidRunReset(t *testing.T) {
	a, err := NewAdmissionController(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetClassRate(ClassBulk, 10, 2); err != nil {
		t.Fatal(err)
	}
	// Exhaust the burst at t=1.
	if !a.AdmitClass(1, ClassBulk) || !a.AdmitClass(1, ClassBulk) {
		t.Fatal("burst of 2 refused")
	}
	if a.AdmitClass(1, ClassBulk) {
		t.Fatal("third admit at t=1 should exhaust the bucket")
	}
	// Mid-run re-set: bucket restarts full regardless of its debt.
	if err := a.SetClassRate(ClassBulk, 5, 1); err != nil {
		t.Fatal(err)
	}
	if !a.AdmitClass(1, ClassBulk) {
		t.Fatal("re-set bucket should start full")
	}
	if a.AdmitClass(1, ClassBulk) {
		t.Fatal("burst 1 admits twice at the same instant")
	}
	// Burst below 1 clamps to 1, not 0 (a 0-burst bucket would starve the
	// class forever).
	if err := a.SetClassRate(ClassInteractive, 100, 0); err != nil {
		t.Fatal(err)
	}
	if !a.AdmitClass(0, ClassInteractive) {
		t.Fatal("burst clamp to 1 still refused the first request")
	}
	// Invalid inputs are rejected.
	if err := a.SetClassRate(ClassBulk, 0, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if err := a.SetClassRate(NumClasses, 1, 1); err == nil {
		t.Fatal("out-of-range class accepted")
	}
}

// TestAdmitClassGlobalRejectKeepsToken: a request the global bound rejects
// must not burn a class token (the class is not charged for queue overload).
func TestAdmitClassGlobalRejectKeepsToken(t *testing.T) {
	a, err := NewAdmissionController(1)
	if err != nil {
		t.Fatal(err)
	}
	// Refill is negligible (0.001/s), so only an unspent token can explain a
	// later admit — the test distinguishes "token survived" from "refilled".
	if err := a.SetClassRate(ClassStandard, 0.001, 2); err != nil {
		t.Fatal(err)
	}
	if !a.AdmitClass(0, ClassStandard) {
		t.Fatal("first admit refused")
	}
	// Queue full: the global bound rejects, but the token survives...
	if a.AdmitClass(0, ClassStandard) {
		t.Fatal("admit above capacity")
	}
	// ...so once capacity frees, the same class admits on that token alone.
	a.DispatchedKind(hw.CPU, []float64{0.5})
	if !a.AdmitClass(1, ClassStandard) {
		t.Fatal("class refused after capacity freed despite unspent token")
	}
}

// TestDegradedAdmission pins the fault plane's admission additions: the
// degraded fraction scales refill, ShedClass follows the bulk → standard →
// never-interactive order, and Cancel releases waiting slots.
func TestDegradedAdmission(t *testing.T) {
	a, err := NewAdmissionController(16)
	if err != nil {
		t.Fatal(err)
	}
	if a.Degraded() != 1 {
		t.Fatalf("fresh controller degraded %v, want 1", a.Degraded())
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
	a.SetDegraded(-1)
	if a.Degraded() != 0 {
		t.Fatalf("degraded clamp low: %v", a.Degraded())
	}
	a.SetDegraded(2)
	if a.Degraded() != 1 {
		t.Fatalf("degraded clamp high: %v", a.Degraded())
	}

	// Refill scales with the fraction: rate 10/s at 50% capacity refills
	// 5 tokens/s.
	if err := a.SetClassRate(ClassBulk, 10, 1); err != nil {
		t.Fatal(err)
	}
	a.SetDegraded(0.5)
	if !a.AdmitClass(0, ClassBulk) { // burns the initial token
		t.Fatal("initial token refused")
	}
	if a.AdmitClass(0.1, ClassBulk) { // 0.1s × 10/s × 0.5 = 0.5 tokens < 1
		t.Fatal("half-rate bucket refilled too fast")
	}
	if !a.AdmitClass(0.21, ClassBulk) { // 0.5 + 0.11s × 10/s × 0.5 = 1.05 ≥ 1
		t.Fatal("half-rate bucket never refilled")
	}

	// Cancel releases waiting slots and clamps at zero.
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

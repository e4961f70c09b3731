package bench

import (
	"testing"

	"repro/internal/serve"
)

// The SLO comparison replays one recorded trace under every formation
// policy, so per-class offered counts must be identical across formations,
// every ledger must balance, and each formation gets a well-formed fairness
// index. The interactive-tail delta is recorded whichever way it lands — the
// shape test checks structure, not sign.
func TestExtServeSLOShape(t *testing.T) {
	report, err := serveSLO(1)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(sloFormations) * serve.NumClasses
	if len(report.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d (2 formations x 3 active classes)", len(report.Rows), wantRows)
	}
	offered := map[string]int{}
	for _, r := range report.Rows {
		if r.Served+r.Rejected != r.Offered {
			t.Errorf("%s/%s ledger: served %d + rejected %d != offered %d",
				r.Formation, r.Class, r.Served, r.Rejected, r.Offered)
		}
		if r.Served > 0 && (r.P50Ms <= 0 || r.P99Ms < r.P50Ms) {
			t.Errorf("%s/%s quantiles inconsistent: p50 %v p99 %v", r.Formation, r.Class, r.P50Ms, r.P99Ms)
		}
		if prev, ok := offered[r.Class]; ok && prev != r.Offered {
			t.Errorf("class %s offered %d under one formation, %d under another — the replayed trace must pin the load",
				r.Class, prev, r.Offered)
		}
		offered[r.Class] = r.Offered
	}
	total := 0
	for _, n := range offered {
		total += n
	}
	if total != report.Requests {
		t.Errorf("per-class offered sums to %d, trace has %d requests", total, report.Requests)
	}
	for _, f := range sloFormations {
		j, ok := report.Jain[f]
		if !ok || j <= 0 || j > 1 {
			t.Errorf("formation %s: Jain fairness %v outside (0, 1]", f, j)
		}
	}
}

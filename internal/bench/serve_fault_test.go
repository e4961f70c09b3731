package bench

import "testing"

// The failure is placed inside a batch the fault-free replay runs on the
// doomed worker, so the faulted replay must lose that batch mid-service and
// heal: at least one retry, a re-dispatched batch, a positive recovery time —
// and, like the baseline, a closed request ledger.
func TestExtServeFaultRedispatches(t *testing.T) {
	report, err := serveFault(1)
	if err != nil {
		t.Fatal(err)
	}
	b, f := report.Baseline, report.Faulted
	if b.Retries != 0 || b.Shed != 0 || b.FailedWorkers != 0 || b.RecoveryMs != 0 {
		t.Fatalf("fault-free replay reports fault activity: %+v", b)
	}
	if f.FailedWorkers != 1 || f.Retries < 1 || f.Redispatched < 1 || f.RecoveryMs <= 0 {
		t.Fatalf("faulted replay did not re-dispatch (fail at %.6fs): %+v", report.FailAtSec, f)
	}
	for _, v := range []faultVariant{b, f} {
		if v.Served+v.Rejected+v.Shed != report.Requests {
			t.Fatalf("%s ledger open: served %d + rejected %d + shed %d != %d requests",
				v.Name, v.Served, v.Rejected, v.Shed, report.Requests)
		}
	}
}

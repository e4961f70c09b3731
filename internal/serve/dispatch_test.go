package serve

import (
	"testing"

	"repro/internal/hw"
)

// Regression for the kind-attribution bug: dispatch used to push every
// completion of a batch — cache hits included — onto the computed batch's
// device-kind heap, so a hit-heavy batch routed to an FPGA counted requests
// the cache had already answered against the FPGA's in-flight share and
// tripped kindSaturated. Hits are answered by the host: they must land on
// the CPU heap, leaving only the computed requests on the routed kind.
func TestDispatchHitsAttributedToHost(t *testing.T) {
	ds, m := testSetup(t)
	cfg := baseConfig(ds, m)
	cfg.CacheSize = 256
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	for _, w := range s.pool {
		if w.pipe.Device().Kind != hw.FPGA {
			t.Fatalf("fixture assumption broken: worker bound to %v, want an FPGA-only pool",
				w.pipe.Device().Kind)
		}
	}

	// admitAll admits a batch's requests at their arrival, as offer does.
	admitAll := func(batch []Request) {
		t.Helper()
		for _, r := range batch {
			if !s.admission.admit(r.Arrival) {
				t.Fatalf("request %d refused", r.ID)
			}
		}
	}

	// Batch 1: eight distinct misses — computed on an FPGA, which publishes
	// their embeddings into the cache.
	var batch1 []Request
	for v := 0; v < 8; v++ {
		batch1 = append(batch1, Request{ID: v, Vertex: int32(v)})
	}
	admitAll(batch1)
	if err := s.dispatch(batch1, 1e-4); err != nil {
		t.Fatal(err)
	}
	done1 := s.lastCompletion
	if got := s.admission.kindInflight(hw.FPGA); got != 8 {
		t.Fatalf("computed batch left %d in flight on the FPGA, want 8", got)
	}
	if got := s.admission.kindInflight(hw.CPU); got != 0 {
		t.Fatalf("all-miss batch left %d in flight on the CPU, want 0", got)
	}

	// Batch 2 arrives and closes after batch 1 completed: twelve cache hits
	// plus one fresh miss. Only the miss is the FPGA's work. The refit law
	// caps no kind of a single-kind pool, so the FPGA's cap of 4 is set here.
	closeAt2 := done1 + 1.0
	var batch2 []Request
	for i := 0; i < 12; i++ {
		batch2 = append(batch2, Request{ID: 100 + i, Vertex: int32(i % 8), Arrival: done1 + 0.5})
	}
	batch2 = append(batch2, Request{ID: 200, Vertex: 100, Arrival: done1 + 0.5})
	admitAll(batch2)
	s.admission.caps[hw.FPGA] = 4
	if err := s.dispatch(batch2, closeAt2); err != nil {
		t.Fatal(err)
	}
	if got := s.admission.kindInflight(hw.CPU); got != 12 {
		t.Fatalf("hit completions on the CPU heap = %d, want 12 (old code attributed them to the FPGA)", got)
	}
	// Batch 2's admits drained batch 1, so the FPGA holds only the one
	// computed request — under the old attribution it held all 13 and
	// saturated its cap of 4. The probe, between batch 1's completion and
	// batch 2's, only reads: the FPGA's in-flight count stays as it was.
	if got := s.admission.kindInflight(hw.FPGA); got != 1 {
		t.Fatalf("FPGA in-flight after batch 2 = %d, want only the computed request", got)
	}
	probe := closeAt2 - 0.25
	if s.admission.kindSaturated(hw.FPGA, probe) {
		t.Fatal("hit-heavy batch tripped KindSaturated on the FPGA it was routed to")
	}
	if got := s.admission.kindInflight(hw.FPGA); got != 1 {
		t.Fatalf("FPGA in-flight after the probe = %d, want the 1 before it", got)
	}
}

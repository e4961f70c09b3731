package trace

import (
	"strings"
	"testing"
)

func TestRecorderCSV(t *testing.T) {
	var r Recorder
	r.RecordEpoch(EpochSample{Epoch: 1, Loss: 2.5, Accuracy: 0.3, VirtualSec: 0.5, MTEPS: 100})

	var sb strings.Builder
	if err := r.WriteEpochsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2.500000") {
		t.Fatalf("epoch row missing: %q", sb.String())
	}
}

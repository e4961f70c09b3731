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

func TestSummary(t *testing.T) {
	var r Recorder
	if !strings.Contains(r.Summary(), "no epochs") {
		t.Fatal("empty summary wrong")
	}
	r.RecordEpoch(EpochSample{Epoch: 1, Loss: 2, Accuracy: 0.1})
	r.RecordEpoch(EpochSample{Epoch: 2, Loss: 1, Accuracy: 0.5})
	s := r.Summary()
	if !strings.Contains(s, "2.0000 -> 1.0000") {
		t.Fatalf("summary: %q", s)
	}
}

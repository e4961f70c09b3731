// Package trace records training-run telemetry — per-epoch statistics —
// and renders it as CSV, so runs can be plotted and compared offline, and
// holds the CPU/heap profile helpers the commands share (profile.go).
package trace

import (
	"fmt"
	"io"
)

// EpochSample is one epoch's summary.
type EpochSample struct {
	Epoch      int
	Loss       float64
	Accuracy   float64
	VirtualSec float64
	MTEPS      float64
	CPUBatch   int
	AccelBatch int // share of the first accelerator (they stay balanced)
}

// Recorder accumulates samples. The zero value is ready to use.
type Recorder struct {
	epochs []EpochSample
}

// RecordEpoch appends an epoch summary.
func (r *Recorder) RecordEpoch(s EpochSample) { r.epochs = append(r.epochs, s) }

// WriteEpochsCSV writes the per-epoch summary series.
func (r *Recorder) WriteEpochsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "epoch,loss,accuracy,virtual_sec,mteps,cpu_batch,accel_batch"); err != nil {
		return err
	}
	for _, e := range r.epochs {
		if _, err := fmt.Fprintf(w, "%d,%.6f,%.4f,%.9f,%.2f,%d,%d\n",
			e.Epoch, e.Loss, e.Accuracy, e.VirtualSec, e.MTEPS, e.CPUBatch, e.AccelBatch); err != nil {
			return err
		}
	}
	return nil
}

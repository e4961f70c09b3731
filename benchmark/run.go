package main

import (
	"fmt"
	"time"

	"repro/internal/datagen"
)

// check is one correctness condition and what it saw.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// document is everything one run of one workload reports.
type document struct {
	Workload string            `json:"workload"`
	Train    string            `json:"train_config"`
	Serve    string            `json:"serve_config"`
	Seed     uint64            `json:"seed"`
	Traced   bool              `json:"traced"`
	Seconds  float64           `json:"seconds"`
	Env      env               `json:"env"`
	Notes    []string          `json:"notes"`
	Metrics  map[string]metric `json:"metrics"`
	// Timings are the samples behind every wall-clock median, in seconds.
	Timings map[string]timing `json:"timings"`
	// Samples counts what the percentiles and medians rest on.
	Samples      map[string]int `json:"samples"`
	Calibration  *calibration   `json:"calibration,omitempty"`
	SLOSearch    *sloResult     `json:"slo_search,omitempty"`
	OpsAttempted int            `json:"ops_attempted"`
	OpsFailed    int            `json:"ops_failed"`
	Checks       []check        `json:"checks"`
	Correct      bool           `json:"correct"`
	TraceFile    string         `json:"trace_file,omitempty"`
}

var loopNotes = []string{
	"training is a closed loop at a fixed input size: the next epoch starts when the previous one returns",
	"serving is an open loop on the virtual clock: arrivals are a schedule generated before the server exists, latency is measured from the scheduled arrival, generator lateness is 0 by construction",
	"virt and count metrics repeat bit for bit for one seed on one machine; wall and cpu metrics are medians over the timings listed, scaled by the calibration factors",
}

// calibration reports the reference bursts of a run: their nominal cost and,
// per timed half, the median burst ÷ nominal on each host clock. The
// *_wall_* and *_cpu_* metrics are the raw timings divided by these factors
// (sample by sample, see calibrate.go); the raw timings are under "timings".
type calibration struct {
	NominalWallSec float64 `json:"nominal_burst_wall_s"`
	NominalCPUSec  float64 `json:"nominal_burst_cpu_s"`
	TrainWall      float64 `json:"train_wall_factor"`
	TrainCPU       float64 `json:"train_cpu_factor"`
	ServeWall      float64 `json:"serve_wall_factor"`
	ServeCPU       float64 `json:"serve_cpu_factor"`
}

func (d *document) finish(cs []check) {
	d.Checks = cs
	d.Correct = true
	for _, c := range cs {
		if !c.OK {
			d.Correct = false
		}
	}
}

// pairState is a fully set-up workload: both halves, ready to be timed.
type pairState struct {
	Train          *trainState
	Serve          *serveState
	MaterializeSec float64
}

// setupPair does everything a run needs before timing starts: materialise
// the dataset(s), build and warm the training fleet, initialise the serving
// model, generate the trace and replay its head once.
func setupPair(w workload, sz sizes, seed uint64) (*pairState, error) {
	t0 := time.Now()
	trainData, err := materialize(w.Train.Data, seed)
	if err != nil {
		return nil, err
	}
	products := trainData
	if want := datagen.OGBNProducts.Scaled(sz.ProductsScale); w.Train.Data.Name != want.Name {
		if products, err = materialize(want, seed); err != nil {
			return nil, err
		}
	}
	ps := &pairState{MaterializeSec: time.Since(t0).Seconds()}
	if ps.Train, err = setupTrain(w.Train, trainData, seed); err != nil {
		return nil, err
	}
	if ps.Serve, err = setupServe(w.Serve, products, seed); err != nil {
		return nil, err
	}
	return ps, nil
}

// runWorkload is one untraced run: set-up (repeated, median reported), the
// two timed halves sharing the time budget, the SLO-rate search, the heap
// reading and the correctness checks.
func runWorkload(w workload, sz sizes, seed uint64, seconds float64) (*document, error) {
	doc := &document{Workload: w.Name, Train: w.Train.Name, Serve: w.Serve.Name,
		Seed: seed, Seconds: seconds, Env: readEnv(), Notes: loopNotes}

	var ps *pairState
	var setupSec []float64
	for i := 0; i < sz.Setups; i++ {
		ps = nil // the previous repeat's state is garbage before the next is built
		t0 := time.Now()
		var err error
		if ps, err = setupPair(w, sz, seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
	}

	ref := newRefKernel()
	liveHeapMB() // start the timed halves from a collected heap
	tr, err := measureTrain(ps.Train, ref, seconds/2)
	if err != nil {
		return nil, err
	}
	sv, err := measureServe(ps.Serve, ref, seconds/2)
	if err != nil {
		return nil, err
	}
	ref = nil            // the reference table is not part of the program's footprint
	heap := liveHeapMB() // datasets, fleet, model, trace and first Stats are still referenced below

	if w.Train.Pipeline != 0 {
		if err := runSerialTwin(ps.Train, tr, seed); err != nil {
			return nil, err
		}
	}
	if sv.SLO, err = sloRate(ps.Serve, sz.SLORequests); err != nil {
		return nil, err
	}

	m := newMetricSet(endToEnd)
	m.set("setup_s", medianOf(setupSec))
	tr.report(m)
	sv.report(m)
	m.set("live_heap_mb", heap)
	if err := m.complete(); err != nil {
		return nil, err
	}
	doc.Metrics = m.vals
	doc.Timings = map[string]timing{
		"setup_wall_s":        summarize(setupSec),
		"train_epoch_wall_s":  summarize(tr.WallSec),
		"train_epoch_cpu_s":   summarize(tr.CPUSec),
		"serve_replay_wall_s": summarize(sv.WallSec),
		"serve_replay_cpu_s":  summarize(sv.CPUSec),
	}
	doc.Calibration = &calibration{NominalWallSec: refNominalWallSec, NominalCPUSec: refNominalCPUSec}
	doc.Calibration.TrainWall, doc.Calibration.TrainCPU = refFactors(tr.Bursts)
	doc.Calibration.ServeWall, doc.Calibration.ServeCPU = refFactors(sv.Bursts)
	doc.Samples = map[string]int{
		"setups":            len(setupSec),
		"train_epochs":      len(tr.Epochs),
		"serve_replays":     len(sv.WallSec),
		"serve_latencies":   sv.Stats.Served,
		"serve_beyond_p99":  sv.Stats.Served / 100,
		"train_targets":     tr.TargetsPerEpoch,
		"serve_requests":    sv.Stats.Offered,
		"slo_search_probes": sv.SLO.Probes,
	}
	doc.SLOSearch = &sv.SLO
	doc.OpsAttempted = tr.iterations() + sv.Stats.Offered*len(sv.WallSec)
	doc.OpsFailed = (sv.Stats.Rejected + sv.Stats.Shed) * len(sv.WallSec)
	doc.finish(append(tr.checks(), sv.checks()...))
	return doc, nil
}

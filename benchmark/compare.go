package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
)

// manifestPath is BENCHMARK.json, relative to the directory the benchmark
// is started from (the repository root).
const manifestPath = "BENCHMARK.json"

// manifest is BENCHMARK.json: the driver's contract, and the regression
// bounds -compare and -selfcheck judge by.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readDocuments reads every document in a saved output. Result lines and
// anything else without a workload and metrics are skipped, so a file made
// with `go run ./benchmark > out.json` — or several of them concatenated —
// can be passed as is.
func readDocuments(path string) ([]*document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	docs, err := decodeDocuments(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return docs, nil
}

func decodeDocuments(r io.Reader) ([]*document, error) {
	var docs []*document
	dec := json.NewDecoder(r)
	for {
		var d document
		err := dec.Decode(&d)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if d.Workload != "" && len(d.Metrics) > 0 {
			docs = append(docs, &d)
		}
	}
	if len(docs) == 0 {
		return nil, errors.New("no benchmark documents")
	}
	return docs, nil
}

// sideStat is one metric on one workload on one side of a comparison.
type sideStat struct {
	Median float64
	Spread float64 // run-to-run spread as a share of the median
	Runs   int
}

// wallTimingOf names the timing whose min/max give a single run's spread for
// a host-clock metric; other metrics have no within-run spread.
var wallTimingOf = map[string]string{
	"setup_s":                  "setup_wall_s",
	"train_wall_targets_per_s": "train_epoch_wall_s",
	"train_cpu_us_per_target":  "train_epoch_cpu_s",
	"serve_wall_req_per_s":     "serve_replay_wall_s",
	"serve_cpu_us_per_req":     "serve_replay_cpu_s",
}

// sideStats reduces one side's documents for one workload. With four or more
// runs the spread is the interquartile range of the metric across runs; with
// fewer it falls back to the (max−min)/median of the wall timing behind the
// metric inside the run, and to 0 where there is none.
func sideStats(docs []*document, name string) (sideStat, bool) {
	var vals []float64
	for _, d := range docs {
		if m, ok := d.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	if len(vals) == 0 {
		return sideStat{}, false
	}
	sort.Float64s(vals)
	st := sideStat{Median: median(vals), Runs: len(vals)}
	switch {
	case len(vals) >= 4:
		q1, q3 := quartiles(vals)
		st.Spread = ratio(q3-q1, math.Abs(st.Median))
	case wallTimingOf[name] != "":
		for _, d := range docs {
			if t := d.Timings[wallTimingOf[name]]; t.Median > 0 {
				st.Spread = math.Max(st.Spread, (t.Max-t.Min)/t.Median)
			}
		}
	}
	return st, true
}

// verdict of one metric on one workload.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares new against old for a metric with the given direction and
// bound. worsening is the relative move in the bad direction (negative =
// improvement). A move past the bound is worse; otherwise a spread wider
// than the bound on either side leaves the pair unresolved; an improvement
// larger than both spreads is better.
func judge(old, new sideStat, better string, bound float64) (verdict string, worsening float64) {
	if old.Median == 0 {
		return verdictUnresolved, 0
	}
	worsening = (new.Median - old.Median) / math.Abs(old.Median)
	if better == "higher" {
		worsening = -worsening
	}
	spread := math.Max(old.Spread, new.Spread)
	switch {
	case worsening > bound:
		return verdictWorse, worsening
	case spread > bound:
		return verdictUnresolved, worsening
	case -worsening > spread && worsening != 0:
		return verdictBetter, worsening
	}
	return verdictSame, worsening
}

// comparison is one row of -compare's output.
type comparison struct {
	Workload  string
	Metric    string
	Unit      string
	Old       float64
	New       float64
	Ratio     float64
	Worsening float64
	Bound     float64
	Spread    float64
	Runs      [2]int
	Verdict   string
}

func byWorkload(docs []*document) map[string][]*document {
	out := map[string][]*document{}
	for _, d := range docs {
		if !d.Traced {
			out[d.Workload] = append(out[d.Workload], d)
		}
	}
	return out
}

// compareDocs judges every end-to-end metric on every workload both sides
// ran, in manifest order.
func compareDocs(man *manifest, oldDocs, newDocs []*document) []comparison {
	oldBy, newBy := byWorkload(oldDocs), byWorkload(newDocs)
	var rows []comparison
	for _, w := range man.Workloads {
		if len(oldBy[w.Name]) == 0 || len(newBy[w.Name]) == 0 {
			continue
		}
		for _, mm := range man.EndToEnd {
			o, ok1 := sideStats(oldBy[w.Name], mm.Name)
			n, ok2 := sideStats(newBy[w.Name], mm.Name)
			if !ok1 || !ok2 {
				continue
			}
			v, worsening := judge(o, n, mm.Better, mm.Bound)
			rows = append(rows, comparison{
				Workload: w.Name, Metric: mm.Name, Unit: mm.Unit,
				Old: o.Median, New: n.Median, Ratio: ratio(n.Median, o.Median),
				Worsening: worsening, Bound: mm.Bound,
				Spread: math.Max(o.Spread, n.Spread), Runs: [2]int{o.Runs, n.Runs},
				Verdict: v,
			})
		}
	}
	return rows
}

func printComparisons(rows []comparison) (worse int) {
	fmt.Printf("%-18s %-26s %14s %14s %9s %9s %8s %8s  %s\n",
		"workload", "metric", "old", "new", "new/old", "worsening", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Printf("%-18s %-26s %14.6g %14.6g %9.4f %+9.4f %8.3f %8.4f  %s (%s, runs %d/%d)\n",
			r.Workload, r.Metric, r.Old, r.New, r.Ratio, r.Worsening, r.Bound, r.Spread,
			r.Verdict, r.Unit, r.Runs[0], r.Runs[1])
		if r.Verdict == verdictWorse {
			worse++
		}
	}
	return worse
}

// compareFiles implements -compare old.json new.json.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two files: old.json new.json")
	}
	man, err := loadManifest(manifestPath)
	if err != nil {
		return err
	}
	oldDocs, err := readDocuments(args[0])
	if err != nil {
		return err
	}
	newDocs, err := readDocuments(args[1])
	if err != nil {
		return err
	}
	rows := compareDocs(man, oldDocs, newDocs)
	if len(rows) == 0 {
		return fmt.Errorf("the two files share no workload")
	}
	if worse := printComparisons(rows); worse > 0 {
		return fmt.Errorf("%d metric × workload pair(s) got worse by more than their bound", worse)
	}
	return nil
}

// exactMismatches lists the Exact metrics whose values differ at all between
// two documents of one workload and seed.
func exactMismatches(defs []metricDef, a, b *document) []string {
	var out []string
	for _, d := range defs {
		if !d.Exact {
			continue
		}
		x, okx := a.Metrics[d.Name]
		y, oky := b.Metrics[d.Name]
		if okx != oky || math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			out = append(out, fmt.Sprintf("%s: %v vs %v", d.Name, x.Value, y.Value))
		}
	}
	return out
}

// runChild runs one workload in a child process of this same binary — the
// way the driver runs it: a fresh heap and address space per run — and
// returns its document.
func runChild(workload string, seed uint64, seconds float64) (*document, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	docs, err := decodeDocuments(bytes.NewReader(out))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return docs[0], nil
}

// selfCheck runs every workload twice from one binary, one process per run —
// the second set in reverse order — and fails if any end-to-end metric moved
// by more than its own bound or any exact metric moved at all.
func selfCheck(seed uint64, seconds float64) error {
	man, err := loadManifest(manifestPath)
	if err != nil {
		return err
	}
	ws := workloads(fullSizes)
	var first, second []*document
	for _, w := range ws {
		d, err := runChild(w.Name, seed, seconds)
		if err != nil {
			return err
		}
		first = append(first, d)
	}
	for i := len(ws) - 1; i >= 0; i-- {
		d, err := runChild(ws[i].Name, seed, seconds)
		if err != nil {
			return err
		}
		second = append(second, d)
	}
	rows := compareDocs(man, first, second)
	bad := 0
	for i := range rows {
		// Two runs of one binary: a move past the bound in either direction
		// means the bound does not hold the benchmark's own noise.
		if math.Abs(rows[i].Worsening) > rows[i].Bound {
			rows[i].Verdict = verdictWorse
		}
	}
	bad += printComparisons(rows)
	for i, a := range first {
		b := second[len(second)-1-i] // the second set ran in reverse order
		if !a.Correct || !b.Correct {
			fmt.Printf("%s: a correctness check failed\n", a.Workload)
			bad++
		}
		for _, msg := range exactMismatches(endToEnd, a, b) {
			fmt.Printf("%s: exact metric differs between the two sets: %s\n", a.Workload, msg)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d disagreement(s) between two sets of runs of the same binary", bad)
	}
	fmt.Println("selfcheck: the two sets agree within every bound, and exactly on every virt and count metric")
	return nil
}

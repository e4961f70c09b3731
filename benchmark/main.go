// Command benchmark is the repository's yardstick: three workloads, each a
// training configuration followed by a serving configuration, measured from
// outside through the layers' public functions on both the host clocks
// (wall, cpu) and the modelled node's virtual clock. See README.md.
//
//	go run ./benchmark                          every workload, untraced
//	go run ./benchmark -workload gpu-lean -seed 2
//	go run ./benchmark -trace 1                 per-layer metrics + span files
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// outDir is where traced runs write their span files, relative to the
// directory the benchmark is started from (the repository root).
const outDir = "benchmark/out"

// result is the one-line summary the driver reads from the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (d *document) result() result {
	r := result{Correct: d.Correct, Attempted: d.OpsAttempted, Failed: d.OpsFailed,
		Metrics: make(map[string]metric, len(d.Metrics))}
	for name, m := range d.Metrics {
		r.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return r
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all)")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 16, "timed seconds per run, shared by the training and serving halves")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
	compare := flag.Bool("compare", false, "compare two saved outputs: -compare old.json new.json")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and hold the two sets to the benchmark's own bounds")
	flag.Parse()
	pinProcs()

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *selfcheck:
		err = selfCheck(*seed, *seconds)
	default:
		err = runAll(*name, *seed, *seconds, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAll runs the named workload (or all of them), printing each document
// followed by its result line; a failed correctness check is an error after
// the output is complete.
func runAll(name string, seed uint64, seconds float64, traced bool) error {
	ws := workloads(fullSizes)
	if name != "" {
		w, err := workloadByName(ws, name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	incorrect := 0
	for _, w := range ws {
		var doc *document
		var err error
		if traced {
			doc, err = traceWorkload(w, fullSizes, seed, outDir)
		} else {
			doc, err = runWorkload(w, fullSizes, seed, seconds)
		}
		if err != nil {
			return err
		}
		if err := printDocument(doc); err != nil {
			return err
		}
		if !doc.Correct {
			incorrect++
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workload(s) failed a correctness check", incorrect)
	}
	return nil
}

func printDocument(doc *document) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	line, err := json.Marshal(doc.result())
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

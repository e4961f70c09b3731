// Command experiments regenerates the paper's evaluation artifacts — every
// table and figure of §VI — from the models and simulators in this
// repository.
//
// Usage:
//
//	experiments                # run everything, in paper order
//	experiments -exp fig10     # one experiment
//	experiments -list          # list experiment names
//	experiments -seed 7        # change the simulation seed
//	experiments -exp ext-serve -cpuprofile cpu.prof   # profile the run
//	experiments -exp ext-serve -memprofile mem.prof   # heap profile at its end
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list) or 'all'")
	seed := flag.Uint64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list experiment names and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiments run to this file, for go tool pprof")
	memProfile := flag.String("memprofile", "", "write a heap profile, taken when the experiments run ends, to this file, for go tool pprof")
	flag.Parse()

	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		return
	}
	err := trace.WithCPUProfile(*cpuProfile, func() error {
		return trace.WithHeapProfile(*memProfile, func() error { return run(*exp, *seed, *csv) })
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run regenerates one experiment, or all of them, and prints the tables.
func run(exp string, seed uint64, csv bool) error {
	var tables []*bench.Table
	if exp == "all" {
		all, err := bench.All(seed)
		if err != nil {
			return err
		}
		tables = all
	} else {
		t, err := bench.ByName(exp, seed)
		if err != nil {
			return err
		}
		tables = []*bench.Table{t}
	}
	for _, t := range tables {
		if csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t)
		}
	}
	return nil
}

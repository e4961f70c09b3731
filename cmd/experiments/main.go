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
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -list) or 'all'")
	seed := flag.Uint64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list experiment names and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()

	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		return
	}
	render := func(t *bench.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t)
		}
	}
	if *exp == "all" {
		tables, err := bench.All(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			render(t)
		}
		return
	}
	t, err := bench.ByName(*exp, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	render(t)
}

// Command etrain-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	etrain-experiments             # run everything, one worker per CPU
//	etrain-experiments -run fig7a  # run one experiment
//	etrain-experiments -parallel 1 # force sequential execution
//	etrain-experiments -list       # list experiment IDs and claims
//
// Output is bit-identical at every -parallel setting: each simulation
// run's randomness is derived from its identity, not execution order.
package main

import (
	"flag"
	"fmt"
	"os"

	"etrain/internal/experiments"
	"etrain/internal/parallel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etrain-experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id        = flag.String("run", "all", "experiment ID to run, or 'all'")
		seed      = flag.Int64("seed", 5, "random seed")
		list      = flag.Bool("list", false, "list available experiments and exit")
		ablations = flag.Bool("ablations", false, "include the design-choice ablation studies")
		format    = flag.String("format", "text", "output format: text | markdown")
		workers   = flag.Int("parallel", -1, "simulation worker count (1 = sequential, <= 0 = one per CPU)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-22s %s\n", e.ID, e.Claim)
		}
		for _, e := range experiments.Ablations() {
			fmt.Printf("%-22s %s\n", e.ID, e.Claim)
		}
		return nil
	}

	switch *format {
	case "markdown", "text":
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	w := parallel.Workers(*workers)
	opts := experiments.Options{Seed: *seed, Workers: w}
	var entries []experiments.Entry
	if *id == "all" {
		entries = experiments.All()
		if *ablations {
			entries = append(entries, experiments.Ablations()...)
		}
	} else {
		entry, err := experiments.ByID(*id)
		if err != nil {
			return err
		}
		entries = []experiments.Entry{entry}
	}

	// Run the batch across the pool, then print in registry order. A
	// failed experiment reports its error without killing the rest.
	results := experiments.RunAll(entries, opts)
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "etrain-experiments: %s failed: %v\n", r.Entry.ID, r.Err)
			continue
		}
		switch *format {
		case "markdown":
			fmt.Printf("**Paper claim:** %s\n\n", r.Entry.Claim)
			if err := r.Table.Markdown(os.Stdout); err != nil {
				return err
			}
		case "text":
			fmt.Printf("paper claim: %s\n", r.Entry.Claim)
			if err := r.Table.Fprint(os.Stdout); err != nil {
				return err
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d experiments failed", failed, len(results))
	}
	return nil
}

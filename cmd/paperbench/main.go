// Command paperbench regenerates the paper's tables and figures.
//
// Usage:
//
//	paperbench -exp fig7                 # one experiment
//	paperbench -exp all                  # everything, paper order
//	paperbench -exp table2 -insts 200000 # bigger simulation points
//	paperbench -exp all -memprofile m.out # then: go tool pprof -sample_index=alloc_space -top m.out
//
// Each experiment prints rows in the layout of the corresponding paper
// artefact together with the paper's reference shape, so measured-vs-paper
// comparison is immediate. See EXPERIMENTS.md for the recorded comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/exutil"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1, tuning, fig7, fig8a, fig8bc, fig9, fig10, fig11, table2, energy) or 'all'")
	insts := flag.Uint64("insts", 100_000, "measured instructions per benchmark")
	warmup := flag.Uint64("warmup", 2_500_000, "functional warm-up instructions per benchmark")
	seed := flag.Uint64("seed", 1, "workload seed")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile (allocations and live heap) to `file` at exit")
	flag.Parse()
	stopProfiles, err := exutil.Profile(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opt := experiments.Options{
		MaxInsts:    *insts,
		WarmupInsts: *warmup,
		Seed:        *seed,
		Workers:     *workers,
	}

	var list []experiments.Experiment
	if *exp == "all" {
		list = experiments.All()
	} else {
		e, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		list = []experiments.Experiment{e}
	}
	for _, e := range list {
		start := time.Now()
		fmt.Printf("================ %s — %s ================\n", e.ID, e.Title)
		out, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

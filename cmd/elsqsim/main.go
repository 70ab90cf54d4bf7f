// Command elsqsim runs a single simulation: one benchmark on one
// configuration, printing IPC, the Table 2 component access counts, and the
// execution-locality summary. It is the quickest way to poke at the
// simulator.
//
// Usage:
//
//	elsqsim -bench mcf -model fmc -lsq elsq -ert hash -sqm
//	elsqsim -bench swim -model ooo -lsq conventional
//	elsqsim -trace swim.elt -insts 30000 -warmup 400000
//	elsqsim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/simrun"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "swim", "benchmark name")
	model := flag.String("model", "fmc", "processor model: fmc | ooo")
	lsqName := flag.String("lsq", "elsq", "LSQ scheme: elsq | central | conventional | svw")
	ert := flag.String("ert", "hash", "ELSQ filter: hash | line")
	ertBits := flag.Int("ertbits", 10, "hash-ERT index bits")
	sqm := flag.Bool("sqm", true, "enable the Store Queue Mirror")
	disamb := flag.String("disamb", "full", "disambiguation: full | rsac | rlac | rsaclac")
	ssbf := flag.Int("ssbf", 10, "SSBF index bits (SVW)")
	svwVar := flag.String("svw", "blind", "SVW variant: blind | checkstores")
	insts := flag.Uint64("insts", 200_000, "measured instructions")
	warmup := flag.Uint64("warmup", 2_000_000, "warm-up instructions")
	seed := flag.Uint64("seed", 1, "workload seed")
	tracePath := flag.String("trace", "", "drive the run from this recorded .elt trace (overrides -bench/-seed with the trace's identity)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()

	if *list {
		for _, s := range []workload.Suite{workload.SuiteInt, workload.SuiteFP} {
			fmt.Printf("%s:", s)
			for _, p := range workload.SuiteOf(s) {
				fmt.Printf(" %s", p.Name)
			}
			fmt.Println()
		}
		return
	}

	cfg := config.Default()
	if *model == "ooo" {
		cfg = config.OoO64()
	}
	switch *lsqName {
	case "elsq":
		cfg.LSQ = config.LSQELSQ
	case "central":
		cfg.LSQ = config.LSQCentral
	case "conventional":
		cfg.LSQ = config.LSQConventional
	case "svw":
		cfg.LSQ = config.LSQSVW
	default:
		fatalf("unknown -lsq %q", *lsqName)
	}
	if *ert == "line" {
		cfg.ERT = config.ERTLine
	}
	cfg.ERTHashBits = *ertBits
	cfg.SQM = *sqm
	switch *disamb {
	case "full":
		cfg.Disamb = config.DisambFull
	case "rsac":
		cfg.Disamb = config.DisambRSAC
	case "rlac":
		cfg.Disamb = config.DisambRLAC
	case "rsaclac":
		cfg.Disamb = config.DisambRSACLAC
	default:
		fatalf("unknown -disamb %q", *disamb)
	}
	cfg.SSBFBits = *ssbf
	if *svwVar == "checkstores" {
		cfg.SVW = config.SVWCheckStores
	}
	cfg.MaxInsts = *insts
	cfg.WarmupInsts = *warmup

	if *tracePath != "" {
		// The trace is self-describing: it names the benchmark and seed it
		// records, so the run adopts them. Cached parses the file once; the
		// simrun point below hits the same entry instead of re-reading it.
		t, err := trace.Cached(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.TracePath = *tracePath
		cfg.TraceDigest = t.Meta().Digest
		*bench, *seed = t.Meta().Bench, t.Meta().Seed
	}
	out, err := simrun.Point{Config: cfg, Bench: *bench, Seed: *seed}.Run(nil)
	if err != nil {
		fatalf("%v", err)
	}
	r := out.Result

	fmt.Printf("benchmark   %s (%s)\n", r.Bench, r.Suite)
	fmt.Printf("config      %s\n", r.Config)
	fmt.Printf("committed   %d insts in %d cycles\n", r.Committed, r.Cycles)
	fmt.Printf("IPC         %.3f\n", r.IPC)
	if cfg.Model == config.ModelFMC {
		fmt.Printf("LL idle     %.1f%%   allocated epochs %.2f\n", 100*r.LLIdleFrac, r.AvgEpochs)
	}
	fmt.Printf("addr-calc within 30 cycles: loads %.1f%%, stores %.1f%%\n",
		100*r.LoadDist.FracWithin(30), 100*r.StoreDist.FracWithin(30))
	fmt.Println("\ncomponent accesses (per 100M committed insts, millions):")
	sum := func(names ...string) (n uint64) {
		for _, k := range names {
			n += r.Counters.Get(k)
		}
		return n
	}
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"hl_lq", sum("hl_lq")}, {"hl_sq", sum("hl_sq")}, {"ll_lq", sum("ll_lq")},
		{"ll_sq", sum("ll_sq")}, {"ert", sum("ert")}, {"ssbf", sum("ssbf_read", "ssbf_write")},
		{"roundtrip", sum("roundtrip")}, {"cache", sum("l1_access", "l2_access", "mem_access")},
	} {
		if v := stats.Per100M(c.n, r.Committed) / 1e6; v != 0 {
			fmt.Printf("  %-10s %9.3f\n", c.name, v)
		}
	}
	fmt.Println("\nevent counters:")
	for _, k := range []string{"mispredict", "violation", "reexec", "reexec_filtered",
		"ert_false_positive", "ll_forward_local", "ll_forward_global", "sqm_search",
		"rsac_stall", "rlac_stall", "ll_squash", "partial_forward", "wrongpath_load"} {
		if v := r.Counters.Get(k); v != 0 {
			fmt.Printf("  %-20s %10d\n", k, v)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

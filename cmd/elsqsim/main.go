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
//	elsqsim -bench mcf -cpuprofile cpu.out   # then: go tool pprof -top cpu.out
//	elsqsim -list
//
// -model picks the base configuration: fmc (config.Default, Table 1) or ooo
// (config.OoO64). Every other config flag applies only when given, through
// the config field registry, so it accepts exactly what elsqsweep -axis
// accepts for the same field.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/exutil"
	"repro/internal/simrun"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// configFlags names the config field each config flag sets.
var configFlags = map[string]string{
	"lsq": "lsq", "ert": "ert", "ertbits": "ert.bits", "sqm": "sqm", "disamb": "disamb",
	"ssbf": "ssbf.bits", "svw": "svw", "insts": "insts", "warmup": "warmup",
}

func main() {
	def := config.Default()
	bench := flag.String("bench", "swim", "benchmark name")
	model := flag.String("model", "fmc", "base configuration: fmc (Table 1 default) | ooo (OoO-64 baseline)")
	flag.String("lsq", def.LSQ.String(), "LSQ scheme: central | conventional | elsq | svw (conventional under -model ooo)")
	flag.String("ert", def.ERT.String(), "ELSQ filter: line | hash")
	flag.Int("ertbits", def.ERTHashBits, "hash-ERT index bits")
	flag.Bool("sqm", def.SQM, "enable the Store Queue Mirror")
	flag.String("disamb", def.Disamb.String(), "disambiguation: full | rsac | rlac | rsaclac")
	flag.Int("ssbf", def.SSBFBits, "SSBF index bits (SVW)")
	flag.String("svw", def.SVW.String(), "SVW variant: blind | checkstores")
	flag.Uint64("insts", def.MaxInsts, "measured instructions")
	flag.Uint64("warmup", def.WarmupInsts, "warm-up instructions")
	seed := flag.Uint64("seed", 1, "workload seed")
	tracePath := flag.String("trace", "", "drive the run from this recorded .elt trace (overrides -bench/-seed with the trace's identity)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile (allocations and live heap) to `file` at exit")
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

	cfg := def
	switch *model {
	case "fmc":
	case "ooo":
		cfg = config.OoO64()
	default:
		fatalf("unknown -model %q (want fmc | ooo)", *model)
	}
	flag.Visit(func(f *flag.Flag) {
		if field, ok := configFlags[f.Name]; ok {
			if err := config.SetField(&cfg, field, f.Value.String()); err != nil {
				fatalf("-%s: %v", f.Name, err)
			}
		}
	})

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
	stopProfiles, err := exutil.Profile(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	out, err := simrun.Point{Config: cfg, Bench: *bench, Seed: *seed}.Run(nil)
	if err != nil {
		fatalf("%v", err)
	}
	if err := stopProfiles(); err != nil {
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

// Command elsqsweep runs an arbitrary configuration sweep: a cartesian grid
// of config-field axes × benchmarks × seeds, executed in parallel with
// result caching, emitted as JSON and CSV artifacts.
//
// Usage:
//
//	elsqsweep -axis l1.size=16K,32K,64K -suites fp -seeds 1..3 -out sweep.json
//	elsqsweep -axis ert=line,hash -axis sqm=true,false -benches gzip,mcf,swim \
//	          -insts 50000 -csv sweep.csv
//	elsqsweep -axis ssbf.bits=8,10,12 -base ooo -axis lsq=svw -suites int \
//	          -cachedir .sweepcache -out svw.json
//	elsqsweep -axis ert=line,hash -ckptdir .ckpt -axis sample.intervals=4 \
//	          -axis sample.bleed=50000 -suites fp -out sampled.json
//	elsqsweep -fields          # list sweepable config fields
//
// Repeating a run with -cachedir (or re-running overlapping grids) serves
// completed simulations from the cache; the summary line reports the hit
// count.
//
// Warm-up checkpointing: jobs whose warm-up identity matches — same cache
// geometry, warm-up budget, benchmark and seed, i.e. every config axis the
// paper sweeps — share one functional warm-up instead of paying one each,
// with bit-identical results. -ckptdir persists the snapshots: the first
// run builds them, later runs skip even that single warm-up. Both -cachedir
// and -ckptdir hold digest-checked entries (internal/store); a damaged entry
// is rebuilt, and either directory may be deleted at any time. The
// sample.intervals and sample.bleed axes select SimPoint-style
// multi-interval measurement (see internal/config).
//
// Trace-driven sweeps: -axis trace=a.elt,b.elt sweeps over recorded .elt
// files directly (the named benchmarks/seeds must match each recording),
// while -tracedir binds every job to <dir>/<bench>-s<seed>.elt, the layout
// elsqtrace record -suites writes; giving both is an error. Either way jobs
// are content-addressed by the trace digest, and replay is bit-identical to
// live generation. Two -axis flags over one field are an error too: list
// every value in one.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func main() {
	var axes axisFlags
	flag.Var(&axes, "axis", "swept config field, field=v1,v2,... (repeatable)")
	base := flag.String("base", "fmc", "base configuration: fmc (Table 1 default) | ooo (OoO-64 baseline)")
	suites := flag.String("suites", "", "comma-separated suites to run (int,fp)")
	benches := flag.String("benches", "", "comma-separated benchmark names (overrides -suites)")
	seeds := flag.String("seeds", "1", "workload seeds: range lo..hi or comma list")
	def := experiments.DefaultOptions()
	insts := flag.Uint64("insts", def.MaxInsts, "measured instructions per benchmark")
	warmup := flag.Uint64("warmup", def.WarmupInsts, "functional warm-up instructions per benchmark")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	outPath := flag.String("out", "", "write the JSON artifact to this file (- for stdout)")
	csvPath := flag.String("csv", "", "write the CSV artifact to this file (- for stdout)")
	cacheDir := flag.String("cachedir", "", "persistent result-cache directory (empty = no result cache)")
	traceDir := flag.String("tracedir", "", "drive every job from the recorded trace <tracedir>/<bench>-s<seed>.elt (see elsqtrace record -suites) instead of live generation")
	ckptDir := flag.String("ckptdir", "", "persistent checkpoint-store directory (empty = in-memory only)")
	quiet := flag.Bool("q", false, "suppress per-job progress lines")
	fields := flag.Bool("fields", false, "list sweepable config fields and exit")
	flag.Parse()

	if *fields {
		for _, f := range config.Fields() {
			fmt.Printf("  %-20s %s\n", f.Name, f.Doc)
		}
		return
	}

	cfg := config.Default()
	if *base == "ooo" {
		cfg = config.OoO64()
	} else if *base != "fmc" {
		fatalf("unknown -base %q (want fmc | ooo)", *base)
	}
	cfg.MaxInsts = *insts
	cfg.WarmupInsts = *warmup

	grid := sweep.Grid{Base: cfg, Axes: axes}
	var err error
	switch {
	case *benches != "":
		grid.Benches, err = sweep.NamedBenches(*benches)
	case *suites != "":
		grid.Benches, err = sweep.SuiteBenches(*suites)
	default:
		grid.Benches, err = sweep.SuiteBenches("int,fp")
	}
	if err != nil {
		fatalf("%v", err)
	}
	if grid.Seeds, err = sweep.ParseSeeds(*seeds); err != nil {
		fatalf("%v", err)
	}
	if *traceDir != "" {
		for _, a := range axes {
			if a.Field == "trace" {
				fatalf("-tracedir and a trace axis both set every job's trace; give one of them")
			}
		}
	}

	jobs, err := grid.Expand()
	if err != nil {
		fatalf("%v", err)
	}
	if *traceDir != "" {
		// Bind every job to its recording and content-address it before any
		// cache key is derived (a per-job trace file is orthogonal to the
		// config axes, so this happens after expansion).
		for i := range jobs {
			jobs[i].Config.TracePath = trace.BenchPath(*traceDir, jobs[i].Bench.Name, jobs[i].Seed)
			if err := trace.Resolve(&jobs[i].Config); err != nil {
				fatalf("%v", err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d jobs (%d grid points x %d benchmarks x %d seeds)\n",
		len(jobs), len(jobs)/(len(grid.Benches)*len(grid.Seeds)), len(grid.Benches), len(grid.Seeds))

	runner := sweep.Runner{Workers: *workers}
	if *cacheDir != "" {
		if runner.Cache, err = sweep.NewDiskCache(*cacheDir); err != nil {
			fatalf("%v", err)
		}
	}
	if *ckptDir != "" {
		if runner.Checkpoints, err = ckpt.NewDiskStore(*ckptDir); err != nil {
			fatalf("%v", err)
		}
	}
	if !*quiet {
		runner.OnProgress = func(p sweep.Progress) {
			fmt.Fprintln(os.Stderr, sweep.FormatProgress(p))
		}
	}
	start := time.Now()
	outcomes, stats, err := runner.Run(jobs)
	if err != nil {
		fatalf("sweep failed: %v", err)
	}
	fmt.Fprintf(os.Stderr, "sweep: %s in %v\n", stats, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "sweep: results digest %s\n", sweep.ResultsDigest(outcomes))

	if err := writeArtifact(*outPath, func(f *os.File) error {
		return sweep.WriteJSON(f, outcomes, stats)
	}); err != nil {
		fatalf("writing JSON: %v", err)
	}
	if err := writeArtifact(*csvPath, func(f *os.File) error {
		return sweep.WriteCSV(f, outcomes)
	}); err != nil {
		fatalf("writing CSV: %v", err)
	}
	if *outPath == "" && *csvPath == "" {
		// No artifact requested: print the JSON to stdout so the run is
		// never silently discarded.
		if err := sweep.WriteJSON(os.Stdout, outcomes, stats); err != nil {
			fatalf("writing JSON: %v", err)
		}
	}
}

// writeArtifact writes to path via emit ("" skips, "-" means stdout).
func writeArtifact(path string, emit func(*os.File) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// axisFlags collects repeated -axis flags.
type axisFlags []sweep.Axis

// String implements flag.Value.
func (a *axisFlags) String() string {
	return fmt.Sprintf("%d axes", len(*a))
}

// Set implements flag.Value.
func (a *axisFlags) Set(s string) error {
	axis, err := sweep.ParseAxis(s)
	if err != nil {
		return err
	}
	*a = append(*a, axis)
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

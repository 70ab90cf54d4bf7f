// Command elsqtrace records, inspects and validates portable .elt traces
// (internal/trace): versioned on-disk recordings of the synthetic benchmark
// instruction streams that replay bit-identically to live generation.
//
// Usage:
//
//	elsqtrace record -bench swim -seed 1 -n 430000 -out swim.elt
//	elsqtrace record -bench swim -outdir traces/
//	elsqtrace record -suites int,fp -seeds 1 -outdir traces/
//	elsqtrace info swim.elt
//	elsqtrace verify -live swim.elt
//	elsqtrace cat -start 100 -limit 20 swim.elt
//
// record captures the first n committed-path instructions of a benchmark;
// the default budget covers the default runs of elsqsim and elsqsweep
// (warm-up plus measurement). info prints a trace's self-describing
// header. verify fully decodes the file against its per-block and content
// digests, and with -live additionally replays it record-for-record
// against a fresh generator — the mechanical round-trip proof. cat prints
// decoded records as text.
//
// Recorded traces plug into the rest of the toolchain: elsqsim -trace and
// elsqsweep -axis trace=... / -tracedir drive simulation from them, with
// results bit-identical to the live run each trace was recorded from.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		cmdRecord(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "cat":
		cmdCat(os.Args[2:])
	default:
		usage()
	}
}

// usage prints the command synopsis and exits.
func usage() {
	fmt.Fprintln(os.Stderr, `usage: elsqtrace <command> [flags]

commands:
  record   record benchmark instruction streams to .elt files
  info     print a trace's header and layout
  verify   decode a trace against its digests (-live: diff vs live generation)
  cat      print decoded records as text`)
	os.Exit(2)
}

// defaultBudget is the default recording length: the longer of elsqsim's
// default run (config.Default) and elsqsweep's (experiments.DefaultOptions),
// warm-up plus measurement, so a default recording replays under either
// command's default budget.
func defaultBudget() uint64 {
	c, o := config.Default(), experiments.DefaultOptions()
	return max(c.WarmupInsts+c.MaxInsts, o.WarmupInsts+o.MaxInsts)
}

// cmdRecord implements "elsqtrace record".
func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	bench := fs.String("bench", "", "single benchmark to record (overrides -suites)")
	suites := fs.String("suites", "", "comma-separated suites to record (int,fp)")
	seed := fs.Uint64("seed", 1, "workload seed for -bench")
	seeds := fs.String("seeds", "1", "workload seeds for -suites: range lo..hi or comma list")
	n := fs.Uint64("n", defaultBudget(), "committed instructions to record per trace")
	out := fs.String("out", "", "output file for -bench (default <outdir>/<bench>-s<seed>.elt)")
	outDir := fs.String("outdir", ".", "output directory for -suites recordings, and for -bench without -out")
	fs.Parse(args)

	if *n == 0 {
		fatalf("-n must be positive")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	switch {
	case *bench != "":
		prof, err := workload.ByName(*bench)
		if err != nil {
			fatalf("%v", err)
		}
		path := *out
		if path == "" {
			path = trace.BenchPath(*outDir, prof.Name, *seed)
		}
		recordOne(prof, *seed, *n, path)
	case *suites != "":
		sds, err := sweep.ParseSeeds(*seeds)
		if err != nil {
			fatalf("%v", err)
		}
		profs, err := sweep.SuiteBenches(*suites)
		if err != nil {
			fatalf("%v", err)
		}
		for _, prof := range profs {
			for _, sd := range sds {
				recordOne(prof, sd, *n, trace.BenchPath(*outDir, prof.Name, sd))
			}
		}
	default:
		fatalf("record needs -bench or -suites")
	}
}

// recordOne records n instructions of (prof, seed) to path and prints a
// summary line.
func recordOne(prof workload.Profile, seed, n uint64, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	rec, err := trace.NewRecorder(f, prof.New(seed))
	if err != nil {
		f.Close()
		fatalf("%v", err)
	}
	if err := rec.Record(n); err != nil {
		f.Close()
		fatalf("recording %s: %v", path, err)
	}
	if err := rec.Close(); err != nil {
		f.Close()
		fatalf("recording %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatalf("%v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		fatalf("%v", err)
	}
	t, err := trace.Open(path)
	if err != nil {
		fatalf("round-trip of fresh recording failed: %v", err)
	}
	fmt.Printf("%-24s %9d insts  %8.2f KiB  %5.2f bits/inst  digest %s\n",
		path, n, float64(info.Size())/1024, float64(info.Size())*8/float64(n), t.Meta().Digest)
}

// openArg opens the single positional trace argument of a subcommand.
func openArg(fs *flag.FlagSet) *trace.Trace {
	if fs.NArg() != 1 {
		fatalf("want exactly one trace file argument")
	}
	t, err := trace.Open(fs.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	return t
}

// cmdInfo implements "elsqtrace info".
func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	t := openArg(fs)
	m := t.Meta()
	info, err := os.Stat(fs.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("file            %s (%d bytes)\n", filepath.Base(fs.Arg(0)), info.Size())
	fmt.Printf("format          .elt v%d (workload state v%d)\n", m.FormatVersion, m.StateVersion)
	fmt.Printf("benchmark       %s (%s), seed %d\n", m.Bench, m.Suite, m.Seed)
	fmt.Printf("records         %d (%d per block)\n", m.Records, m.BlockRecords)
	fmt.Printf("density         %.2f bits/inst\n", float64(info.Size())*8/float64(m.Records))
	fmt.Printf("wrong-path init %#x\n", m.WPInit)
	fmt.Printf("content digest  %s\n", m.Digest)
}

// cmdVerify implements "elsqtrace verify".
func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	live := fs.Bool("live", false, "additionally replay against a fresh live generator and diff every record")
	fs.Parse(args)
	t := openArg(fs)
	if err := t.Verify(); err != nil {
		fatalf("%v", err)
	}
	m := t.Meta()
	fmt.Printf("%s: %d records, all block digests and the content digest check out\n", fs.Arg(0), m.Records)
	if !*live {
		return
	}
	prof, err := workload.ByName(m.Bench)
	if err != nil {
		fatalf("cannot diff against live generation: %v", err)
	}
	src, err := t.Source()
	if err != nil {
		fatalf("%v", err)
	}
	gen := prof.New(m.Seed)
	var want, got isa.Inst
	for i := uint64(0); i < m.Records; i++ {
		gen.Next(&want)
		src.Next(&got)
		if got != want {
			fatalf("record %d diverges from live generation:\n  trace %+v\n  live  %+v", i, got, want)
		}
	}
	fmt.Printf("%s: replay is record-for-record identical to live generation\n", fs.Arg(0))
}

// cmdCat implements "elsqtrace cat".
func cmdCat(args []string) {
	fs := flag.NewFlagSet("cat", flag.ExitOnError)
	start := fs.Uint64("start", 0, "first record to print")
	limit := fs.Uint64("limit", 32, "maximum records to print (0 = to the end)")
	fs.Parse(args)
	t := openArg(fs)
	m := t.Meta()
	if *start > m.Records {
		fatalf("-start %d beyond the %d-record trace", *start, m.Records)
	}
	src, err := t.Source()
	if err != nil {
		fatalf("%v", err)
	}
	end := m.Records
	if *limit > 0 && *start+*limit < end {
		end = *start + *limit
	}
	var in isa.Inst
	for i := uint64(0); i < *start; i++ {
		src.Next(&in)
	}
	for i := *start; i < end; i++ {
		src.Next(&in)
		fmt.Print(formatInst(&in))
	}
}

// formatInst renders one decoded record as a text line.
func formatInst(in *isa.Inst) string {
	switch {
	case in.IsMem():
		return fmt.Sprintf("%8d  %-6s dst=%-3d src=%d,%d addr=%#x size=%d\n",
			in.Seq, in.Op, in.Dst, in.Src1, in.Src2, in.Addr, in.Size)
	case in.Op == isa.OpBranch:
		return fmt.Sprintf("%8d  %-6s cond=%-3d taken=%t mispred=%t\n",
			in.Seq, in.Op, in.Src1, in.Taken, in.Mispred)
	default:
		return fmt.Sprintf("%8d  %-6s dst=%-3d src=%d,%d\n",
			in.Seq, in.Op, in.Dst, in.Src1, in.Src2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "elsqtrace: "+format+"\n", args...)
	os.Exit(1)
}

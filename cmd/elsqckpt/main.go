// Command elsqckpt manages a checkpoint store: content-addressed warm-state
// snapshots (internal/ckpt) that let sweeps and benchmarks resume measured
// intervals from warmed caches instead of re-running the functional warm-up
// per (config, benchmark, seed).
//
//	elsqckpt -dir .ckpt build -suites fp -seeds 1..3 -warmup 2500000
//	elsqckpt -dir .ckpt build -benches swim,mcf -seeds 1
//	elsqckpt -dir .ckpt ls
//
// The store is keyed by the warm-up-relevant configuration slice only
// (cache geometry + warm-up budget + benchmark + seed), so one store entry
// serves every LSQ scheme, ERT shape and threshold swept over it. A snapshot
// holds the caches' valid lines only: at Table 1 geometry after the default
// warm-up it takes 13.5 KiB to 1.03 MiB, 449 KiB on average over the 26
// benchmarks. -max-bytes bounds the store's total size by pruning the
// oldest entries.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	dir := flag.String("dir", ".ckpt", "checkpoint store directory")
	maxBytes := flag.String("max-bytes", "2G", "store size budget (K/M/G suffixes; 0 = unbounded); oldest snapshots are pruned beyond it")
	flag.Usage = usage
	flag.Parse()

	budget, err := config.ParseSize(*maxBytes)
	if err != nil {
		fatalf("bad -max-bytes: %v", err)
	}
	store, err := ckpt.NewDiskStore(*dir, int64(budget))
	if err != nil {
		fatalf("%v", err)
	}

	switch flag.Arg(0) {
	case "build":
		build(store, flag.Args()[1:])
	case "ls":
		ls(store)
	case "":
		usage()
		os.Exit(2)
	default:
		fatalf("unknown command %q (want build | ls)", flag.Arg(0))
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: elsqckpt [-dir DIR] [-max-bytes N] <command> [args]

commands:
  build   pre-build checkpoints for a benchmark x seed set
  ls      list the store's snapshots and total size

build flags:
`)
	buildFlags(nil).PrintDefaults()
}

type buildOpts struct {
	suites, benches, seeds, base string
	warmup                       uint64
	workers                      int
}

func buildFlags(o *buildOpts) *flag.FlagSet {
	if o == nil {
		o = &buildOpts{}
	}
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	fs.StringVar(&o.suites, "suites", "", "comma-separated suites to checkpoint (int,fp)")
	fs.StringVar(&o.benches, "benches", "", "comma-separated benchmark names (overrides -suites)")
	fs.StringVar(&o.seeds, "seeds", "1", "workload seeds: range lo..hi or comma list")
	fs.StringVar(&o.base, "base", "fmc", "base configuration supplying the cache geometry: fmc | ooo")
	fs.Uint64Var(&o.warmup, "warmup", 2_500_000, "functional warm-up instructions to checkpoint")
	fs.IntVar(&o.workers, "workers", 0, "concurrent builds (0 = GOMAXPROCS)")
	return fs
}

func build(store *ckpt.DiskStore, args []string) {
	var o buildOpts
	if err := buildFlags(&o).Parse(args); err != nil {
		os.Exit(2)
	}
	cfg := config.Default()
	if o.base == "ooo" {
		cfg = config.OoO64()
	} else if o.base != "fmc" {
		fatalf("unknown -base %q (want fmc | ooo)", o.base)
	}
	cfg.WarmupInsts = o.warmup

	var profs []workload.Profile
	var err error
	switch {
	case o.benches != "":
		profs, err = sweep.NamedBenches(o.benches)
	case o.suites != "":
		profs, err = sweep.SuiteBenches(o.suites)
	default:
		profs, err = sweep.SuiteBenches("int,fp")
	}
	if err != nil {
		fatalf("%v", err)
	}
	seeds, err := sweep.ParseSeeds(o.seeds)
	if err != nil {
		fatalf("%v", err)
	}

	type task struct {
		prof workload.Profile
		seed uint64
	}
	var tasks []task
	for _, p := range profs {
		for _, s := range seeds {
			tasks = append(tasks, task{p, s})
		}
	}

	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var cursor, builtN, skipped atomic.Int64
	var mu sync.Mutex // serialises output
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := cursor.Add(1) - 1
				if n >= int64(len(tasks)) {
					return
				}
				tk := tasks[n]
				key := ckpt.Key(&cfg, tk.prof.Name, tk.seed)
				if store.Has(key) {
					skipped.Add(1)
					mu.Lock()
					fmt.Printf("exists  %s  %s seed %d\n", key, tk.prof.Name, tk.seed)
					mu.Unlock()
					continue
				}
				snap, err := ckpt.Build(&cfg, tk.prof, tk.seed)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					fmt.Fprintf(os.Stderr, "elsqckpt: %s seed %d: %v\n", tk.prof.Name, tk.seed, err)
					mu.Unlock()
					continue
				}
				store.Put(snap)
				builtN.Add(1)
				mu.Lock()
				fmt.Printf("built   %s  %s seed %d (%d warm-up insts)\n", key, tk.prof.Name, tk.seed, o.warmup)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	total, _ := store.TotalBytes()
	fmt.Printf("%d built, %d already present in %v; store %s holds %s (budget %s)\n",
		builtN.Load(), skipped.Load(), time.Since(start).Round(time.Millisecond),
		store.Dir(), sizeStr(total), budgetStr(store.MaxBytes))
	if firstErr != nil {
		os.Exit(1)
	}
}

func ls(store *ckpt.DiskStore) {
	entries, err := store.Entries()
	if err != nil {
		fatalf("%v", err)
	}
	var total int64
	fmt.Printf("%-34s %10s  %-20s %s\n", "KEY", "SIZE", "MODIFIED", "CONTENTS")
	for _, e := range entries {
		total += e.Size
		desc := "(unreadable)"
		if snap, ok := store.Get(e.Key); ok {
			desc = fmt.Sprintf("%s seed %d, %d warm-up insts", snap.Bench, snap.Seed, snap.WarmupInsts)
		}
		fmt.Printf("%-34s %10s  %-20s %s\n", e.Key, sizeStr(e.Size), e.ModTime.Format("2006-01-02 15:04:05"), desc)
	}
	fmt.Printf("%d snapshots, %s total (budget %s)\n", len(entries), sizeStr(total), budgetStr(store.MaxBytes))
	if store.MaxBytes > 0 && total > store.MaxBytes {
		fmt.Fprintf(os.Stderr, "elsqckpt: store exceeds its budget; the next write prunes oldest entries\n")
	}
}

// budgetStr formats a size budget, where <= 0 means no limit.
func budgetStr(n int64) string {
	if n <= 0 {
		return "unbounded"
	}
	return sizeStr(n)
}

func sizeStr(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fG", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fK", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "elsqckpt: "+format+"\n", args...)
	os.Exit(1)
}

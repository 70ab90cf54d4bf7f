// Package exutil is the tiny shared harness behind examples/*: every
// example takes the same -insts/-warmup budget flags (so the smoke test can
// shrink them) and runs simulations through the simrun point API, so the
// examples demonstrate the supported entry point instead of hand-wiring
// simulator internals. It also writes the host profiles behind the
// commands' -cpuprofile and -memprofile flags.
package exutil

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/oracle"
	"repro/internal/simrun"
)

// Budget is the per-simulation instruction budget an example runs at.
type Budget struct {
	// Insts is the measured instruction count; Warmup the functional
	// warm-up count.
	Insts, Warmup uint64
}

// ParseBudget registers the shared -insts/-warmup flags (warm-up defaults
// to config.Default()'s), parses the command line and returns the chosen
// budget. Call it once at the top of an example's main.
func ParseBudget(defaultInsts uint64) Budget {
	insts := flag.Uint64("insts", defaultInsts, "measured instructions per simulation")
	warmup := flag.Uint64("warmup", config.Default().WarmupInsts, "functional warm-up instructions")
	flag.Parse()
	return Budget{Insts: *insts, Warmup: *warmup}
}

// Apply returns cfg with the budget applied.
func (b Budget) Apply(cfg config.Config) config.Config {
	return cfg.WithBudget(b.Insts, b.Warmup)
}

// MustRun simulates one benchmark at the budget and returns the result,
// exiting the example on any error.
func (b Budget) MustRun(cfg config.Config, bench string) *cpu.Result {
	out, err := simrun.Point{Config: b.Apply(cfg), Bench: bench, Seed: 1}.Run(nil)
	if err != nil {
		log.Fatal(err)
	}
	return out.Result
}

// MustCertify is MustRun with the differential oracle attached: it exits
// the example on any simulation error or sequential-semantics violation and
// returns the result plus the clean checker (for its certification counts).
func (b Budget) MustCertify(cfg config.Config, bench string) (*cpu.Result, *oracle.Checker) {
	out, err := simrun.Point{Config: b.Apply(cfg), Bench: bench, Seed: 1, Oracle: true}.Run(nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := out.Oracle.Err(); err != nil {
		log.Fatal(err)
	}
	return out.Result, out.Oracle
}

// Profile starts a CPU profile into cpuPath when it is set, and returns the
// function that stops it and, when memPath is set, writes a heap profile
// there: every allocation since the process started, sampled, and the heap
// live at the end. Both are runtime/pprof's gzipped protobuf, read with
// go tool pprof.
func Profile(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // the heap profile reports as of the last collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("heap profile: %w", err)
		}
		return f.Close()
	}, nil
}

// Package repro is a from-scratch reproduction of "A Two-Level Load/Store
// Queue Based on Execution Locality" (Pericàs et al., ISCA 2008): the
// Epoch-based Load/Store Queue (ELSQ) and every substrate it needs — a
// cycle-level FMC (Cache Processor + memory engines) timing model, cache
// hierarchy with line locking, ERT/SSBF filters, the SVW re-execution
// and central/conventional LSQ baselines, and synthetic SPEC CPU 2000-like
// workloads.
//
// This root package is a thin convenience facade; the implementation lives
// under internal/ (see DESIGN.md for the module map):
//
//   - internal/core      — the ELSQ (the paper's contribution)
//   - internal/cpu       — the pipeline timing model and Result type
//   - internal/config    — Table 1 configuration
//   - internal/workload  — the SPEC-like benchmark suites
//   - internal/experiments — regeneration of every table and figure
//
// Quick use:
//
//	cfg := config.Default()          // Table 1, FMC + ELSQ(hash)+SQM
//	res, err := repro.Simulate(cfg, "swim", 1)
//	fmt.Println(res.IPC)
package repro

import (
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// Simulate runs one benchmark under one configuration and returns the full
// result (IPC, Table 2 component access counters, Figure 1 locality
// histograms, Figure 11 activity statistics).
func Simulate(cfg config.Config, bench string, seed uint64) (*cpu.Result, error) {
	out, err := simrun.Point{Config: cfg, Bench: bench, Seed: seed}.Run(nil)
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// Benchmarks lists the available benchmark names, integer suite first.
func Benchmarks() []string {
	var out []string
	for _, s := range []workload.Suite{workload.SuiteInt, workload.SuiteFP} {
		for _, p := range workload.SuiteOf(s) {
			out = append(out, p.Name)
		}
	}
	return out
}

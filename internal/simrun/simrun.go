// Package simrun is the single entry point for running simulations: every
// driver — benchmarks, sweeps, commands, examples, tests — describes a run
// as a Point and calls Run (or RunBatch for many points at once) instead of
// wiring cpu.New, workload sources, traces, checkpoints and oracles by
// hand. The package owns the composition rules those drivers used to
// duplicate:
//
//   - workload resolution (live generator vs trace replay, trace digest
//     stamping via trace.Resolve),
//   - checkpointed warm-up (store lookup, shared single-flight builds,
//     snapshot restore — the logic formerly split between ckpt.Resume and
//     each driver),
//   - oracle attachment (a fresh differential checker on the committed
//     stream),
//   - batched execution (RunBatch groups warm-up-compatible points onto
//     the lane-parallel engine, internal/batch, with scalar fallback).
//
// Determinism contract: for a given Point, Run's Result is bit-identical
// whether the warm-up ran functionally, resumed from a checkpoint, or the
// point executed as a lane of a batch.
//
// The companion boundary test enforces that cpu.New/cpu.NewBatch call sites
// exist only here, in internal/batch and in internal/cpu's own tests.
package simrun

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/oracle"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Sample overrides the point's sampling plan: Intervals measurement
// intervals separated by BleedInsts functional instructions
// (config.Config.SampleIntervals / SampleBleedInsts).
type Sample struct {
	// Intervals is the number of measurement intervals (>1 enables
	// sampling).
	Intervals int
	// BleedInsts is the functional fast-forward between intervals.
	BleedInsts uint64
}

// Point describes one simulation completely: what to run, from what warm
// state, and what to attach to it. The zero value of every optional field
// means "off".
type Point struct {
	// Config is the processor configuration.
	Config config.Config
	// Bench names the workload profile (workload.ByName).
	Bench string
	// Seed selects the workload instantiation.
	Seed uint64
	// TracePath, when set, overrides Config.TracePath: the run replays the
	// recorded trace (which must match Bench/Seed) instead of live
	// generation. The trace digest is resolved and folded into the
	// effective config automatically.
	TracePath string
	// Snapshot, when set, resumes from this checkpoint instead of running
	// the functional warm-up. It must match the point (ckpt.Snapshot.Check).
	Snapshot *ckpt.Snapshot
	// Ckpt, when set, is consulted for a reusable warm-up checkpoint and
	// receives newly built ones. Ignored when Snapshot is set.
	Ckpt ckpt.Store
	// Oracle attaches a fresh differential checker (oracle.New) to the
	// committed memory-op stream; the checker is returned in the Outcome.
	// Mutually exclusive with Observer.
	Oracle bool
	// Observer, when non-nil, is attached to the committed memory-op
	// stream. Mutually exclusive with Oracle.
	Observer cpu.CommitObserver
	// Sample, when non-nil, overrides the config's sampling plan.
	Sample *Sample
}

// Outcome is what one Point produced.
type Outcome struct {
	// Result is the simulation result.
	Result *cpu.Result
	// Energy is the run's activity-energy/area report (internal/energy),
	// computed from Result under the config's energy.table. Observational
	// only: it derives from the result, never influences it.
	Energy *energy.Report
	// Oracle is the attached checker when Point.Oracle was set.
	Oracle *oracle.Checker
	// Resumed reports that the run started from a checkpoint (explicit or
	// from the store) rather than a functional warm-up.
	Resumed bool
	// CkptBuilt reports that this point's run called ckpt.Build. Points
	// served by the store or by a concurrent build of the same key do not
	// report it, so the flags over a run sum to the builds it performed.
	CkptBuilt bool
	// Batched reports that the point executed as a lane of the batch
	// engine rather than a scalar run.
	Batched bool
	// Err is the point's failure when it ran inside RunBatch (Run returns
	// errors directly instead).
	Err error
}

// effectiveConfig folds the point's overrides into its config and resolves
// the trace digest, returning the exact configuration the simulator runs.
func (p *Point) effectiveConfig() (config.Config, error) {
	cfg := p.Config
	if p.Bench == "" {
		return cfg, fmt.Errorf("simrun: point wants a bench name")
	}
	if p.TracePath != "" {
		cfg.TracePath = p.TracePath
		cfg.TraceDigest = ""
	}
	if p.Sample != nil {
		cfg.SampleIntervals = p.Sample.Intervals
		cfg.SampleBleedInsts = p.Sample.BleedInsts
	}
	if cfg.TracePath != "" && cfg.TraceDigest == "" {
		if err := trace.Resolve(&cfg); err != nil {
			return cfg, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if p.Oracle && p.Observer != nil {
		return cfg, fmt.Errorf("simrun: Oracle and Observer are mutually exclusive")
	}
	return cfg, nil
}

// Run executes the point to completion. A nil ctx disables cancellation;
// on cancellation Run returns ctx's error and no outcome.
func (p Point) Run(ctx context.Context) (*Outcome, error) {
	cfg, err := p.effectiveConfig()
	if err != nil {
		return nil, err
	}
	prof, err := workload.ByName(p.Bench)
	if err != nil {
		return nil, err
	}
	out := &Outcome{}
	snap, err := p.resolveSnapshot(&cfg, prof, out)
	if err != nil {
		return nil, err
	}
	sim, err := buildSim(cfg, snap, prof, p.Bench, p.Seed)
	if err != nil {
		return nil, err
	}
	p.attach(sim, out)
	if ctx == nil {
		out.Result = sim.Run()
	} else {
		res, err := sim.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		out.Result = res
	}
	if out.Energy, err = energy.Compute(&cfg, out.Result); err != nil {
		return nil, err
	}
	return out, nil
}

// attach wires the point's committed-stream consumer (oracle or observer)
// into sim and records it in out.
func (p *Point) attach(sim *cpu.Sim, out *Outcome) {
	switch {
	case p.Oracle:
		ck := oracle.New(0)
		sim.SetCommitObserver(ck)
		out.Oracle = ck
	case p.Observer != nil:
		sim.SetCommitObserver(p.Observer)
	}
}

// resolveSnapshot picks the warm-start image for a scalar run: the explicit
// Snapshot if set, otherwise a store hit, otherwise nothing (the run warms
// functionally — scalar runs only build checkpoints when a store is there
// to keep them).
func (p *Point) resolveSnapshot(cfg *config.Config, prof workload.Profile, out *Outcome) (*ckpt.Snapshot, error) {
	if p.Snapshot != nil {
		out.Resumed = true
		return p.Snapshot, nil
	}
	if p.Ckpt == nil || cfg.WarmupInsts == 0 {
		return nil, nil
	}
	snap, built, err := warmSnapshot(p.Ckpt, cfg, prof, p.Seed)
	if err != nil {
		return nil, err
	}
	out.Resumed = true
	out.CkptBuilt = built
	return snap, nil
}

// buildSim constructs the simulator for cfg, warm-started from snap when
// non-nil (the logic formerly in ckpt.Resume).
func buildSim(cfg config.Config, snap *ckpt.Snapshot, prof workload.Profile, bench string, seed uint64) (*cpu.Sim, error) {
	if snap == nil {
		src, err := trace.SourceFor(&cfg, prof, seed)
		if err != nil {
			return nil, err
		}
		return cpu.New(cfg, src)
	}
	if err := snap.Check(&cfg, bench, seed); err != nil {
		return nil, err
	}
	src, err := restoredSource(&cfg, snap, prof, seed)
	if err != nil {
		return nil, err
	}
	sim, err := cpu.New(cfg, src)
	if err != nil {
		return nil, err
	}
	if err := sim.RestoreWarmState(snap.Hier); err != nil {
		return nil, err
	}
	return sim, nil
}

// restoredSource returns a workload source positioned at the snapshot:
// trace-driven configs restore a replay of their trace, everything else a
// live generator.
func restoredSource(cfg *config.Config, snap *ckpt.Snapshot, prof workload.Profile, seed uint64) (workload.Source, error) {
	if cfg.TracePath != "" {
		ts, err := trace.SourceFor(cfg, prof, seed)
		if err != nil {
			return nil, err
		}
		if err := ts.Restore(snap.Source); err != nil {
			return nil, fmt.Errorf("simrun: %w", err)
		}
		return ts, nil
	}
	return snap.NewSource()
}

// builds deduplicates concurrent checkpoint builds process-wide: sweep
// workers and batch groups hitting the same key block on one build instead
// of each paying the full functional warm-up.
var builds struct {
	mu sync.Mutex
	m  map[string]*buildCall
}

type buildCall struct {
	done chan struct{}
	snap *ckpt.Snapshot
	err  error
}

// warmSnapshot returns the warm-up image for (cfg, bench, seed): from store
// when it holds one (store may be nil), otherwise from ckpt.Build behind a
// per-key single-flight. built is true only for the one caller that ran the
// build; callers that waited on it share its snapshot. The builder puts the
// snapshot into its store before dropping the in-flight entry, so a caller
// arriving later finds either the entry or the stored snapshot.
func warmSnapshot(store ckpt.Store, cfg *config.Config, prof workload.Profile, seed uint64) (snap *ckpt.Snapshot, built bool, err error) {
	key := ckpt.Key(cfg, prof.Name, seed)
	builds.mu.Lock()
	if builds.m == nil {
		builds.m = make(map[string]*buildCall)
	}
	if c, ok := builds.m[key]; ok {
		builds.mu.Unlock()
		<-c.done
		return c.snap, false, c.err
	}
	c := &buildCall{done: make(chan struct{})}
	builds.m[key] = c
	builds.mu.Unlock()
	defer func() {
		close(c.done)
		builds.mu.Lock()
		delete(builds.m, key)
		builds.mu.Unlock()
	}()
	if store != nil {
		if hit, ok := store.Get(key); ok {
			c.snap = hit
			return hit, false, nil
		}
	}
	c.snap, c.err = ckpt.Build(cfg, prof, seed)
	if c.err != nil {
		return nil, false, c.err
	}
	if store != nil {
		store.Put(c.snap)
	}
	return c.snap, true, nil
}

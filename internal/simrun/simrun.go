// Package simrun is the single entry point for running simulations: every
// driver — benchmarks, sweeps, commands, examples, tests — describes a run
// as a Point and calls Run instead of wiring cpu.New, workload sources,
// traces, checkpoints and oracles by hand. The package owns the
// composition rules those drivers used to duplicate:
//
//   - workload resolution (live generator vs trace replay, trace digest
//     stamping via trace.Resolve),
//   - checkpointed warm-up (store lookup, shared single-flight builds,
//     snapshot restore — the logic formerly split between ckpt.Resume and
//     each driver),
//   - oracle attachment (a fresh differential checker on the committed
//     stream).
//
// Determinism contract: for a given Point, Run's Result is bit-identical
// whether the warm-up ran functionally or resumed from a checkpoint.
//
// The companion boundary test enforces that cpu.New call sites exist only
// here and in internal/cpu.
package simrun

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/oracle"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

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
	// receives newly built ones. Ignored when Snapshot is set. A
	// trace-driven point without one builds a checkpoint it does not keep.
	Ckpt store.Store[ckpt.Snapshot]
	// Oracle attaches a fresh differential checker (oracle.New) to the
	// committed memory-op stream; the checker is returned in the Outcome.
	// Mutually exclusive with Observer.
	Oracle bool
	// Observer, when non-nil, is attached to the committed memory-op
	// stream. Mutually exclusive with Oracle.
	Observer cpu.CommitObserver
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
	// Resumed reports that the run started from a checkpoint (explicit,
	// from the store, or built for a trace-driven point without one)
	// rather than a functional warm-up.
	Resumed bool
	// CkptBuilt reports that this point's run called ckpt.Build. Points
	// served by the store or by a concurrent build of the same key do not
	// report it, so the flags over a run sum to the builds it performed.
	CkptBuilt bool
}

// effectiveConfig folds the point's overrides into its config, resolves
// the trace digest and checks the point, returning the exact configuration
// the simulator runs. A trace must hold the warm-up, the measured
// instructions and the sample bleeds; checking before any snapshot is
// resolved keeps a point that outruns its recording from failing a shared
// warm-up build that other points wait on.
func (p *Point) effectiveConfig() (config.Config, error) {
	cfg := p.Config
	if p.Bench == "" {
		return cfg, fmt.Errorf("simrun: point wants a bench name")
	}
	if p.TracePath != "" {
		cfg.TracePath = p.TracePath
		cfg.TraceDigest = ""
	}
	if cfg.TracePath != "" && cfg.TraceDigest == "" {
		if err := trace.Resolve(&cfg); err != nil {
			return cfg, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	need := cfg.WarmupInsts + cfg.MaxInsts + uint64(cfg.SampleIntervals-1)*cfg.SampleBleedInsts
	if err := trace.CheckLength(&cfg, need); err != nil {
		return cfg, err
	}
	if p.Oracle && p.Observer != nil {
		return cfg, fmt.Errorf("simrun: Oracle and Observer are mutually exclusive")
	}
	return cfg, nil
}

// Run executes the point to completion. A non-nil ctx that is already done
// fails the point before any work starts; a simulation that has started
// runs to the end.
func (p Point) Run(ctx context.Context) (*Outcome, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	cfg, err := p.effectiveConfig()
	if err != nil {
		return nil, err
	}
	prof, err := workload.ByName(p.Bench)
	if err != nil {
		return nil, err
	}
	out := &Outcome{}
	snap, err := p.resolveSnapshot(&cfg, prof, out, nil)
	if err != nil {
		return nil, err
	}
	sim, err := buildSim(cfg, snap, prof, p.Bench, p.Seed)
	if err != nil && snap != nil && p.Snapshot == nil && !out.CkptBuilt {
		// The store served a snapshot that passed its digest check but
		// that Check or the restore rejects (an entry edited under a
		// matching digest, or one written by a build with a restore bug).
		// It is a miss like any damaged entry: rebuilt, and stored over
		// the bad one.
		if snap, err = p.resolveSnapshot(&cfg, prof, out, snap); err != nil {
			return nil, err
		}
		sim, err = buildSim(cfg, snap, prof, p.Bench, p.Seed)
	}
	if err != nil {
		return nil, err
	}
	p.attach(sim, out)
	out.Result = sim.Run()
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

// resolveSnapshot picks the warm-start image for a run: the explicit
// Snapshot if set, otherwise the store's snapshot (built on a miss, or
// when the store holds nothing but bad, a snapshot it served that did not
// resume). A trace-driven run with no store builds a snapshot it keeps
// for itself, and reports Resumed and CkptBuilt: ckpt.Build warms inside
// the trace's verification pass, so past that pass the run decodes only
// the blocks it measures. Any other run without a store warms
// functionally.
func (p *Point) resolveSnapshot(cfg *config.Config, prof workload.Profile, out *Outcome, bad *ckpt.Snapshot) (*ckpt.Snapshot, error) {
	if p.Snapshot != nil {
		out.Resumed = true
		return p.Snapshot, nil
	}
	if (p.Ckpt == nil && cfg.TracePath == "") || cfg.WarmupInsts == 0 {
		return nil, nil
	}
	snap, built, err := warmSnapshot(p.Ckpt, cfg, prof, p.Seed, bad)
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
// workers hitting the same key block on one build instead of each paying
// the full functional warm-up.
var builds struct {
	mu sync.Mutex
	m  map[string]*buildCall
}

type buildCall struct {
	done chan struct{}
	snap *ckpt.Snapshot
	err  error
}

// warmSnapshot returns the warm-up image for (cfg, bench, seed): from ckpts
// when it holds one (ckpts may be nil), otherwise from ckpt.Build behind a
// per-key single-flight. built is true only for the one caller that ran the
// build; callers that waited on it share its snapshot. The builder puts the
// snapshot into its store before dropping the in-flight entry, so a caller
// arriving later finds either the entry or the stored snapshot.
//
// bad, when non-nil, is a snapshot the store served that its caller could
// not resume. A stored snapshot equal to it is a miss, so the build
// replaces the entry; one that differs was rebuilt by another caller
// meanwhile and is served. Rebuilds run under a single-flight entry of
// their own, so a rebuilding caller never waits on a plain lookup that
// would hand it the same bad snapshot again.
func warmSnapshot(ckpts store.Store[ckpt.Snapshot], cfg *config.Config, prof workload.Profile, seed uint64, bad *ckpt.Snapshot) (snap *ckpt.Snapshot, built bool, err error) {
	key := ckpt.Key(cfg, prof.Name, seed)
	flight := key
	if bad != nil {
		flight += "/rebuild"
	}
	builds.mu.Lock()
	if builds.m == nil {
		builds.m = make(map[string]*buildCall)
	}
	if c, ok := builds.m[flight]; ok {
		builds.mu.Unlock()
		<-c.done
		return c.snap, false, c.err
	}
	c := &buildCall{done: make(chan struct{})}
	builds.m[flight] = c
	builds.mu.Unlock()
	defer func() {
		close(c.done)
		builds.mu.Lock()
		delete(builds.m, flight)
		builds.mu.Unlock()
	}()
	if ckpts != nil {
		if hit, ok := ckpts.Get(key); ok && (bad == nil || !reflect.DeepEqual(hit, bad)) {
			c.snap = hit
			return hit, false, nil
		}
	}
	c.snap, c.err = ckpt.Build(cfg, prof, seed)
	if c.err != nil {
		return nil, false, c.err
	}
	if ckpts != nil {
		ckpts.Put(key, c.snap)
	}
	return c.snap, true, nil
}

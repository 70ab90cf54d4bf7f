// Package batch is the lane-parallel execution engine: it advances K
// simulations ("lanes") in lockstep over cpu.NewBatch's shared
// structure-of-arrays state, interleaving bounded chunks of each lane's
// measured phase so the host walks K adjacent copies of the hot arrays
// instead of re-faulting one large working set per sequential run.
//
// Determinism contract: every lane's Result is bit-identical to the Result
// a scalar cpu.Sim.Run would produce for the same (config, source, warm
// state) — the lanes share host memory placement, never simulated state.
// The contract is enforced end to end by the simrun batch identity tests
// and the smoke-matrix digest gate (the root package's TestSmokeMatrix).
//
// Callers normally reach this package through internal/simrun, which groups
// arbitrary points by warm-up compatibility and falls back to scalar
// execution for singleton groups.
package batch

import (
	"context"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/workload"
)

// laneChunk is how many committed instructions each lane advances per
// round-robin turn. Large enough that per-turn dispatch overhead vanishes,
// small enough that K lanes' round stays responsive to cancellation and no
// lane's architectural working set goes cold between turns.
const laneChunk = 8192

// Spec is one lane of a batch: a validated-configuration/workload pair plus
// the optional warm-start image and committed-stream observer that
// internal/simrun resolves per point.
type Spec struct {
	// Config is the lane's full processor configuration.
	Config config.Config
	// Source feeds the lane's instruction stream. Each lane needs its own
	// source instance; sources are stateful and must not be shared.
	Source workload.Source
	// Warm, when non-nil, is a checkpoint hierarchy image standing in for
	// the functional warm-up (cpu.Sim.RestoreWarmState); the Source must
	// already be positioned past the warm-up.
	Warm *mem.HierarchyState
	// Observer, when non-nil, receives the lane's committed memory-op
	// stream (e.g. a differential oracle checker).
	Observer cpu.CommitObserver
}

// Run builds one simulator per spec with shared slab state and drives all
// lanes to completion in lockstep. Results are indexed like specs. A nil
// ctx disables cancellation; on cancellation Run returns ctx's error and no
// results.
func Run(ctx context.Context, specs []Spec) ([]*cpu.Result, error) {
	cfgs := make([]config.Config, len(specs))
	gens := make([]workload.Source, len(specs))
	for i := range specs {
		cfgs[i] = specs[i].Config
		gens[i] = specs[i].Source
	}
	sims, err := cpu.NewBatch(cfgs, gens)
	if err != nil {
		return nil, err
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	lanes := make([]*cpu.Lane, len(sims))
	for i, s := range sims {
		if specs[i].Warm != nil {
			if err := s.RestoreWarmState(specs[i].Warm); err != nil {
				return nil, err
			}
		}
		if specs[i].Observer != nil {
			s.SetCommitObserver(specs[i].Observer)
		}
		lanes[i] = s.NewLane()
	}
	// Warm-up runs per lane, not interleaved: it is functional (no timing
	// state) and with checkpointed warm images it is a no-op anyway.
	for _, l := range lanes {
		if !l.Warm(done) {
			return nil, ctxErr(ctx)
		}
	}
	results := make([]*cpu.Result, len(lanes))
	live := make([]int, 0, len(lanes))
	for i := range lanes {
		live = append(live, i)
	}
	// Lockstep rounds: each live lane advances laneChunk committed
	// instructions per round; a lane whose budget completes retires
	// immediately (its Result is finalized and it leaves the rotation), so
	// unequal budgets degrade gracefully to fewer live lanes.
	for len(live) > 0 {
		next := live[:0]
		for _, i := range live {
			more, ok := lanes[i].Step(laneChunk, done)
			if !ok {
				return nil, ctxErr(ctx)
			}
			if more {
				next = append(next, i)
			} else {
				results[i] = lanes[i].Finish()
			}
		}
		live = next
	}
	return results, nil
}

// ctxErr returns the cancellation error behind a Lane abort.
func ctxErr(ctx context.Context) error {
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return context.Canceled
}

// Package ckpt is the checkpointed-sampling subsystem: versioned,
// deterministic snapshots of all warm-up-dependent simulation state, keyed
// by content so one snapshot serves every configuration that shares its
// warm-up. Snapshots are kept in internal/store stores: in memory within a
// process, or on disk (NewDiskStore) across processes.
//
// The paper evaluates Alpha SimPoints — short measured intervals resumed
// from warmed architectural state — while a naive reproduction pays the
// full functional warm-up (2.5M instructions by default) for every
// (config, benchmark, seed) job. The warm-up outcome, however, depends on
// almost none of the configuration: only the cache geometry and the warm-up
// budget shape the post-warm-up state (config.Config.WarmKey); the LSQ
// scheme, ERT geometry, migrate threshold, latencies and queue sizes — the
// axes every paper sweep actually varies — shape timing only. One snapshot
// therefore serves an entire sweep grid, turning N warm-ups into one.
//
// A Snapshot captures exactly two things, because the timed phase starts
// with everything else zeroed:
//
//   - the workload source position (workload.SourceState: committed-path
//     RNG, kernel interior state, wrong-path synthesiser, queue surplus),
//   - the memory hierarchy image (mem.HierarchyState: both cache levels'
//     valid lines and LRU clocks).
//
// Determinism contract: a simulation resumed from a Snapshot produces
// results bit-identical to a fresh run of the same (config, benchmark,
// seed) — enforced by TestResumeMatchesFreshRun over every scheme/model
// path and by the smoke-matrix digest gate (the root package's
// TestSmokeMatrix), whose resumed pass resumes every point.
package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FormatVersion is bumped whenever the snapshot schema or any state layout
// it embeds changes incompatibly; it is part of every store key, so stale
// on-disk checkpoints miss instead of resuming from misread state.
const FormatVersion = 3

// Snapshot is one checkpoint: the complete warm-up-dependent state of a
// (benchmark, seed) pair under a warm-up-relevant configuration slice.
type Snapshot struct {
	// Version is the snapshot format version (FormatVersion at capture).
	Version int `json:"version"`
	// Key is the content address the snapshot is stored under.
	Key string `json:"key"`
	// Bench and Seed identify the workload instantiation.
	Bench string `json:"bench"`
	Seed  uint64 `json:"seed"`
	// WarmupInsts is the functional warm-up budget the snapshot captures.
	WarmupInsts uint64 `json:"warmup_insts"`
	// Source is the workload position after the warm-up.
	Source *workload.SourceState `json:"source"`
	// Hier is the memory-hierarchy image after the warm-up.
	Hier *mem.HierarchyState `json:"hier"`
}

// Key returns the content address of the checkpoint that cfg, bench and
// seed would build: a digest of the snapshot format version, the workload
// state-layout version, the warm-up-relevant config slice and the workload
// identity. Configs differing only in non-warm-up fields share keys.
func Key(cfg *config.Config, bench string, seed uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "ckpt%d|ws%d|%s|%s|%d", FormatVersion, workload.StateVersion, cfg.WarmKey(), bench, seed)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Build runs the functional warm-up for (cfg, prof, seed) and captures the
// resulting snapshot. It performs exactly the warm-up a fresh cpu.Sim.Run
// would: the same source — the live generator, or a trace replay when cfg
// is trace-driven — and the same access sequence. The first build from a
// trace warms inside the trace's verification pass (trace.WarmSourceFor),
// so a trace that fails verification anywhere, or is shorter than the
// warm-up, fails the build. Trace-built snapshots carry a replay-position
// source state instead of generator kernel state; cfg.WarmKey() folds the
// trace identity into the store key, so the two kinds can never be
// confused.
func Build(cfg *config.Config, prof workload.Profile, seed uint64) (*Snapshot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := mem.NewHierarchy(cfg)
	src, err := trace.WarmSourceFor(cfg, prof, seed, cfg.WarmupInsts, func(addr uint64) { h.Access(addr) })
	if err != nil {
		h.Free()
		return nil, err
	}
	hs := h.State()
	h.Free() // the image is a copy; the next build reuses the lines
	return &Snapshot{
		Version:     FormatVersion,
		Key:         Key(cfg, prof.Name, seed),
		Bench:       prof.Name,
		Seed:        seed,
		WarmupInsts: cfg.WarmupInsts,
		Source:      src.Snapshot(),
		Hier:        hs,
	}, nil
}

// Check reports whether the snapshot can stand in for cfg's warm-up of
// (bench, seed).
func (s *Snapshot) Check(cfg *config.Config, bench string, seed uint64) error {
	switch {
	case s.Version != FormatVersion:
		return fmt.Errorf("ckpt: snapshot format %d, this build speaks %d", s.Version, FormatVersion)
	case s.Bench != bench || s.Seed != seed:
		return fmt.Errorf("ckpt: snapshot of %s/%d cannot resume %s/%d", s.Bench, s.Seed, bench, seed)
	case s.WarmupInsts != cfg.WarmupInsts:
		return fmt.Errorf("ckpt: snapshot warmed %d instructions, config wants %d", s.WarmupInsts, cfg.WarmupInsts)
	case s.Source == nil || s.Hier == nil:
		return fmt.Errorf("ckpt: incomplete snapshot")
	case s.Source.Consumed != s.WarmupInsts:
		return fmt.Errorf("ckpt: snapshot source is at instruction %d after a %d-instruction warm-up", s.Source.Consumed, s.WarmupInsts)
	}
	return nil
}

// NewSource returns a fresh live-generator source positioned at the
// snapshot: a generator restored in O(state) rather than O(WarmupInsts).
// It only serves snapshots built from live generation (those carry kernel
// state); internal/simrun routes trace-built snapshots to a trace replay
// instead.
func (s *Snapshot) NewSource() (*workload.Generator, error) {
	prof, err := workload.ByName(s.Bench)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	g := prof.New(s.Seed)
	if err := g.Restore(s.Source); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return g, nil
}

// NewDiskStore opens a checkpoint store over dir (see internal/store for
// the entry format). A snapshot of another format version, filed under
// another key or missing its source or hierarchy image is a miss.
func NewDiskStore(dir string) (*store.Disk[Snapshot], error) {
	return store.NewDisk(dir, func(key string, s *Snapshot) bool {
		return s.Version == FormatVersion && s.Key == key && s.Source != nil && s.Hier != nil
	})
}

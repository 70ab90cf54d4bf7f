package trace

import (
	"fmt"
	"path/filepath"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/workload"
)

// Source replays a trace as a workload.Source. It decodes one block at a
// time (the whole trace is never materialised), re-synthesises the
// wrong-path stream from the header's wrong-path seed, and implements
// workload.Snapshottable so internal/ckpt checkpoints and resumes
// trace-driven simulation exactly as it does live generation.
//
// Replay is bit-identical to the live source the trace was recorded from:
// the committed path is the recorded stream, and the wrong-path
// synthesiser starts from the recorded initial state and observes the same
// committed memory references. A Source that runs past the recording falls
// back to live generation of the same (benchmark, seed) — correct, but it
// pays a one-time fast-forward over the recorded prefix and requires the
// benchmark to exist in this build.
type Source struct {
	t  *Trace
	wp *workload.WrongPathSynth

	pos      uint64     // next record index (== instructions consumed)
	buf      []isa.Inst // current block, shared via Trace.Block — never written
	bufStart uint64     // record index of buf[0]; len(buf) == 0 means no block loaded
	// over generates instructions past the recording (lazily built).
	over *workload.Generator
}

// Source returns a fresh replay cursor at the start of the trace. The
// first call fully verifies the trace (block and content digests), so a
// corrupt file fails here rather than mid-simulation; later calls reuse
// the cached verdict.
func (t *Trace) Source() (*Source, error) {
	if err := t.Verify(); err != nil {
		return nil, err
	}
	return &Source{t: t, wp: workload.NewWrongPathSynth(t.meta.WPInit)}, nil
}

// Name implements workload.Source.
func (s *Source) Name() string { return s.t.meta.Bench }

// Suite implements workload.Source.
func (s *Source) Suite() workload.Suite { return s.t.meta.Suite }

// loadBlock points the cursor at the block holding record index pos,
// fetched through the trace's shared decoded-block cache so lanes replaying
// the same recording decode each block once per group, not once per lane.
// The trace was fully verified at Source construction and the file image is
// immutable in memory, so a decode failure here is unreachable short of
// memory corruption — it panics rather than returning an error the Source
// interface has no channel for.
func (s *Source) loadBlock(pos uint64) {
	i := s.t.blockFor(pos)
	buf, err := s.t.Block(i)
	if err != nil {
		panic(fmt.Sprintf("trace: %s: verified block %d failed to decode: %v", s.t.meta.Bench, i, err))
	}
	s.buf = buf
	s.bufStart = s.t.blocks[i].start
}

// inBuf reports whether record index pos is in the decoded block.
func (s *Source) inBuf(pos uint64) bool {
	return len(s.buf) > 0 && pos >= s.bufStart && pos < s.bufStart+uint64(len(s.buf))
}

// Next implements workload.Source.
func (s *Source) Next(out *isa.Inst) {
	if s.pos < s.t.meta.Records {
		if !s.inBuf(s.pos) {
			s.loadBlock(s.pos)
		}
		*out = s.buf[s.pos-s.bufStart]
		s.pos++
		if out.IsMem() {
			s.wp.NoteMem(out.Addr)
		}
		return
	}
	s.overflow().Next(out)
	if out.IsMem() {
		s.wp.NoteMem(out.Addr)
	}
}

// WrongPath implements workload.Source.
func (s *Source) WrongPath(out *isa.Inst) { s.wp.WrongPath(out) }

// Warmup implements workload.Source in count mode: records are walked in
// the block buffer — counted, memory references fed to access and the
// wrong-path ring — without being copied out one instruction at a time.
func (s *Source) Warmup(n uint64, access func(addr uint64)) {
	for n > 0 && s.pos < s.t.meta.Records {
		if !s.inBuf(s.pos) {
			s.loadBlock(s.pos)
		}
		span := s.bufStart + uint64(len(s.buf)) - s.pos
		if span > n {
			span = n
		}
		base := s.pos - s.bufStart
		for i := uint64(0); i < span; i++ {
			in := &s.buf[base+i]
			if in.IsMem() {
				s.wp.NoteMem(in.Addr)
				access(in.Addr)
			}
		}
		s.pos += span
		n -= span
	}
	if n > 0 {
		var in isa.Inst
		for i := uint64(0); i < n; i++ {
			s.Next(&in)
			if in.IsMem() {
				access(in.Addr)
			}
		}
	}
}

// overflow returns the past-the-recording generator, building it on first
// use: the benchmark is reconstructed live and fast-forwarded over the
// recorded prefix.
func (s *Source) overflow() *workload.Generator {
	if s.over == nil {
		prof, err := workload.ByName(s.t.meta.Bench)
		if err != nil {
			panic(fmt.Sprintf("trace: %d-instruction recording of %q exhausted and the benchmark is not in this build: %v",
				s.t.meta.Records, s.t.meta.Bench, err))
		}
		s.over = prof.New(s.t.meta.Seed)
		var tmp isa.Inst
		for i := uint64(0); i < s.t.meta.Records; i++ {
			s.over.Next(&tmp)
		}
	}
	return s.over
}

// Snapshot implements workload.Snapshottable. Within the recording the
// state is the position plus the wrong-path synthesiser; past it, the
// overflow generator's state is complete.
func (s *Source) Snapshot() *workload.SourceState {
	if s.over != nil {
		st := s.over.Snapshot()
		s.wp.CaptureTo(st)
		return st
	}
	st := &workload.SourceState{
		Version:  workload.StateVersion,
		Bench:    s.t.meta.Bench,
		Seed:     s.t.meta.Seed,
		Consumed: s.pos,
	}
	s.wp.CaptureTo(st)
	return st
}

// Restore implements workload.Snapshottable. Snapshots within the recording
// restore by an O(1) seek (one block decode on the next read); snapshots
// past it restore onto the overflow generator using the snapshot's kernel
// state.
func (s *Source) Restore(st *workload.SourceState) error {
	switch {
	case st.Version != workload.StateVersion:
		return fmt.Errorf("trace: snapshot state version %d, this build speaks %d", st.Version, workload.StateVersion)
	case st.Bench != s.t.meta.Bench:
		return fmt.Errorf("trace: snapshot of %q cannot restore trace of %q", st.Bench, s.t.meta.Bench)
	case st.Seed != s.t.meta.Seed:
		return fmt.Errorf("trace: snapshot of %s seed %d cannot restore seed %d", st.Bench, st.Seed, s.t.meta.Seed)
	}
	if err := s.wp.RestoreFrom(st); err != nil {
		return err
	}
	if st.Consumed <= s.t.meta.Records {
		s.pos = st.Consumed
		s.over = nil
		return nil
	}
	if st.Kernel == nil {
		return fmt.Errorf("trace: snapshot of %s at %d exceeds the %d-instruction recording and has no kernel state",
			st.Bench, st.Consumed, s.t.meta.Records)
	}
	prof, err := workload.ByName(s.t.meta.Bench)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	over := prof.New(s.t.meta.Seed)
	if err := over.Restore(st); err != nil {
		return err
	}
	s.pos = s.t.meta.Records
	s.over = over
	return nil
}

// Compile-time interface checks: a trace Source is a full workload source.
var (
	_ workload.Source        = (*Source)(nil)
	_ workload.Snapshottable = (*Source)(nil)
	_ workload.Source        = (*Recorder)(nil)
	_ workload.Snapshottable = (*workload.Generator)(nil)
)

// SourceFor returns the workload source a run of (cfg, prof, seed) should
// consume: a replay of cfg.TracePath when the configuration is
// trace-driven, the live generator otherwise. For trace-driven configs the
// trace must match the job — same benchmark, same seed, and (when the
// config carries one) the same content digest — so a stale or mislabelled
// file fails loudly instead of silently simulating the wrong workload.
func SourceFor(cfg *config.Config, prof workload.Profile, seed uint64) (workload.Snapshottable, error) {
	if cfg.TracePath == "" {
		if cfg.TraceDigest != "" {
			return nil, fmt.Errorf("trace: config demands trace digest %s but names no trace file", cfg.TraceDigest)
		}
		return prof.New(seed), nil
	}
	t, err := Cached(cfg.TracePath)
	if err != nil {
		return nil, err
	}
	m := t.Meta()
	if m.Bench != prof.Name {
		return nil, fmt.Errorf("trace: %s records %q, job runs %q", cfg.TracePath, m.Bench, prof.Name)
	}
	if m.Seed != seed {
		return nil, fmt.Errorf("trace: %s records seed %d, job runs seed %d", cfg.TracePath, m.Seed, seed)
	}
	if cfg.TraceDigest != "" && cfg.TraceDigest != m.Digest {
		return nil, fmt.Errorf("trace: %s has content digest %s, config demands %s (file replaced since the config was keyed?)",
			cfg.TracePath, m.Digest, cfg.TraceDigest)
	}
	return t.Source()
}

// Resolve stamps cfg.TraceDigest from the file at cfg.TracePath (a no-op
// for non-trace configs). Callers that key caches or artifacts off the
// configuration — sweep grids, bench points — resolve first, so the
// identity (config.Config.Hash, WarmKey, sweep job keys) is
// content-addressed rather than path-addressed.
func Resolve(cfg *config.Config) error {
	if cfg.TracePath == "" {
		return nil
	}
	t, err := Cached(cfg.TracePath)
	if err != nil {
		return err
	}
	cfg.TraceDigest = t.Meta().Digest
	return nil
}

// BenchPath is the naming convention binding a benchmark instantiation to
// a trace file inside a directory: <dir>/<bench>-s<seed>.elt. cmd/elsqtrace
// record writes it; the -tracedir modes of cmd/elsqsweep and cmd/elsqbench
// expect it.
func BenchPath(dir, bench string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-s%d.elt", bench, seed))
}

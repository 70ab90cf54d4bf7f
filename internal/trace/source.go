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
// committed memory references. A run never reads past its recording
// (CheckLength refuses a trace shorter than the run), so reading past it
// panics.
type Source struct {
	t  *Trace
	wp *workload.WrongPathSynth

	pos      uint64     // next record index (== instructions consumed)
	buf      []isa.Inst // current block, shared via Trace.Block — never written
	bufStart uint64     // record index of buf[0]; len(buf) == 0 means no block loaded
}

// Source returns a fresh replay cursor at the start of the trace. The
// first call fully verifies the trace (block and content digests), so a
// corrupt file fails here rather than mid-simulation; later calls reuse
// the kept verdict.
func (t *Trace) Source() (*Source, error) { return t.WarmSource(0, nil) }

// WarmSource returns a replay cursor past the first n records, with their
// memory references fed to access and to the wrong-path synthesiser: what
// Source followed by Warmup(n, access) returns. On a trace not yet
// verified the warm-up rides on the verification pass, so each block is
// decoded once, and the verdict is kept as Verify's. Every check still
// runs: an error anywhere in the trace, past the first n records or in the
// trailer, fails the call with Verify's error, after access may have seen
// records, so the caller discards what access built.
//
// The pass runs under Verify's once, so a concurrent Verify, Source or
// WarmSource on t waits for it, and a waiting WarmSource then warms
// through the shared block cache. access must not call back into t.
func (t *Trace) WarmSource(n uint64, access func(addr uint64)) (*Source, error) {
	if n > t.meta.Records {
		return nil, fmt.Errorf("trace: %s records %d instructions, the warm-up reads %d", t.meta.Bench, t.meta.Records, n)
	}
	s := &Source{t: t, wp: workload.NewWrongPathSynth(t.meta.WPInit)}
	warmed := false
	t.verifyOnce.Do(func() {
		warmed = true
		// Stands if access panics out of the pass: the trace is not verified.
		t.verifyErr = fmt.Errorf("trace: %s: verification did not finish", t.meta.Bench)
		t.verifyErr = t.verify(func(recs []isa.Inst) {
			s.warm(recs[:min(uint64(len(recs)), n-s.pos)], access)
		})
	})
	if t.verifyErr != nil {
		return nil, t.verifyErr
	}
	if !warmed {
		s.Warmup(n, access)
	}
	return s, nil
}

// Name implements workload.Source.
func (s *Source) Name() string { return s.t.meta.Bench }

// Suite implements workload.Source.
func (s *Source) Suite() workload.Suite { return s.t.meta.Suite }

// loadBlock points the cursor at the block holding record index pos,
// fetched through the trace's shared decoded-block cache so Sources
// replaying the same recording close together decode each block once.
// The trace was fully verified at Source construction and the file image is
// immutable in memory, so a decode failure here is unreachable short of
// memory corruption — it panics rather than returning an error the Source
// interface has no channel for. So does a read past the recording, which
// CheckLength keeps out of every run.
func (s *Source) loadBlock(pos uint64) {
	if pos >= s.t.meta.Records {
		panic(fmt.Sprintf("trace: read of instruction %d past the %d-instruction recording of %s",
			pos, s.t.meta.Records, s.t.meta.Bench))
	}
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

// Next implements workload.Source. It panics past the recording.
func (s *Source) Next(out *isa.Inst) {
	if !s.inBuf(s.pos) {
		s.loadBlock(s.pos)
	}
	*out = s.buf[s.pos-s.bufStart]
	s.pos++
	if out.IsMem() {
		s.wp.NoteMem(out.Addr)
	}
}

// WrongPath implements workload.Source.
func (s *Source) WrongPath(out *isa.Inst) { s.wp.WrongPath(out) }

// Warmup implements workload.Source in count mode: records are walked in
// the block buffer — counted, memory references fed to access and the
// wrong-path ring — without being copied out one instruction at a time.
// It panics past the recording.
func (s *Source) Warmup(n uint64, access func(addr uint64)) {
	for n > 0 {
		if !s.inBuf(s.pos) {
			s.loadBlock(s.pos)
		}
		base := s.pos - s.bufStart
		span := min(uint64(len(s.buf))-base, n)
		s.warm(s.buf[base:base+span], access)
		n -= span
	}
}

// warm is the per-record walk of a count-mode warm-up, shared by Warmup
// and WarmSource's verification pass: each memory reference of recs goes
// to the wrong-path ring, then to access, and the cursor moves past recs.
func (s *Source) warm(recs []isa.Inst, access func(addr uint64)) {
	for i := range recs {
		if in := &recs[i]; in.IsMem() {
			s.wp.NoteMem(in.Addr)
			access(in.Addr)
		}
	}
	s.pos += uint64(len(recs))
}

// Snapshot implements workload.Snapshottable: the position plus the
// wrong-path synthesiser.
func (s *Source) Snapshot() *workload.SourceState {
	st := &workload.SourceState{
		Version:  workload.StateVersion,
		Bench:    s.t.meta.Bench,
		Seed:     s.t.meta.Seed,
		Consumed: s.pos,
	}
	s.wp.CaptureTo(st)
	return st
}

// Restore implements workload.Snapshottable by an O(1) seek (one block
// decode on the next read). A position past the recording is refused.
func (s *Source) Restore(st *workload.SourceState) error {
	switch {
	case st.Version != workload.StateVersion:
		return fmt.Errorf("trace: snapshot state version %d, this build speaks %d", st.Version, workload.StateVersion)
	case st.Bench != s.t.meta.Bench:
		return fmt.Errorf("trace: snapshot of %q cannot restore trace of %q", st.Bench, s.t.meta.Bench)
	case st.Seed != s.t.meta.Seed:
		return fmt.Errorf("trace: snapshot of %s seed %d cannot restore seed %d", st.Bench, st.Seed, s.t.meta.Seed)
	case st.Consumed > s.t.meta.Records:
		return fmt.Errorf("trace: snapshot of %s at instruction %d is past the %d-instruction recording",
			st.Bench, st.Consumed, s.t.meta.Records)
	}
	if err := s.wp.RestoreFrom(st); err != nil {
		return err
	}
	s.pos = st.Consumed
	return nil
}

// Compile-time interface checks: a trace Source is a full workload source.
var (
	_ workload.Source        = (*Source)(nil)
	_ workload.Snapshottable = (*Source)(nil)
	_ workload.Snapshottable = (*workload.Generator)(nil)
)

// SourceFor returns the workload source a run of (cfg, prof, seed) should
// consume: a replay of cfg.TracePath when the configuration is
// trace-driven, the live generator otherwise. For trace-driven configs the
// trace must match the job — same benchmark, same seed, and (when the
// config carries one) the same content digest — so a stale or mislabelled
// file fails loudly instead of silently simulating the wrong workload.
func SourceFor(cfg *config.Config, prof workload.Profile, seed uint64) (workload.Snapshottable, error) {
	return WarmSourceFor(cfg, prof, seed, 0, nil)
}

// WarmSourceFor is SourceFor followed by a count-mode warm-up of the first
// n instructions, their memory references fed to access. A trace-driven
// source is built by Trace.WarmSource, so the first warm-up of a trace
// rides on its verification pass.
func WarmSourceFor(cfg *config.Config, prof workload.Profile, seed, n uint64, access func(addr uint64)) (workload.Snapshottable, error) {
	if cfg.TracePath == "" {
		if cfg.TraceDigest != "" {
			return nil, fmt.Errorf("trace: config demands trace digest %s but names no trace file", cfg.TraceDigest)
		}
		g := prof.New(seed)
		g.Warmup(n, access)
		return g, nil
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
	return t.WarmSource(n, access)
}

// CheckLength returns an error when cfg is trace-driven and its recording
// holds fewer than the n instructions the caller reads from it.
func CheckLength(cfg *config.Config, n uint64) error {
	if cfg.TracePath == "" {
		return nil
	}
	t, err := Cached(cfg.TracePath)
	if err != nil {
		return err
	}
	if have := t.Meta().Records; have < n {
		return fmt.Errorf("trace: %s records %d instructions, the run reads %d", cfg.TracePath, have, n)
	}
	return nil
}

// Resolve stamps cfg.TraceDigest from the file at cfg.TracePath (a no-op
// for non-trace configs). Callers that key caches or artifacts off the
// configuration — sweep grids, simrun points — resolve first, so the
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
// record writes it; cmd/elsqsweep -tracedir expects it.
func BenchPath(dir, bench string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-s%d.elt", bench, seed))
}

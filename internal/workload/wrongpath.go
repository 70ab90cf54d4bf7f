package workload

// WrongPathSynth exposes the wrong-path instruction synthesiser as a
// standalone component, so Source implementations outside this package
// (internal/trace's file-backed source) can reproduce exactly the
// wrong-path stream an equally positioned Generator would synthesise. The contract mirrors wpSynth's embedding in Generator:
// construct it from the RNG state a fresh source of the same (benchmark,
// seed) starts with, call NoteMem for every committed-path memory
// reference delivered, and WrongPath yields bit-identical speculative
// instructions.

import "repro/internal/isa"

// WrongPathSynth synthesises the wrong-path instruction stream for an
// external Source implementation. The zero value is not usable; construct
// with NewWrongPathSynth.
type WrongPathSynth struct {
	s wpSynth
}

// NewWrongPathSynth returns a synthesiser whose RNG resumes from rngState —
// for a source starting at position zero, the WpRNG a fresh same-benchmark
// source's Snapshot reports.
func NewWrongPathSynth(rngState uint64) *WrongPathSynth {
	w := &WrongPathSynth{}
	w.s.rng.SetState(rngState)
	return w
}

// WrongPath fills out with the next wrong-path instruction (see
// wpSynth.WrongPath for the modelled mix).
func (w *WrongPathSynth) WrongPath(out *isa.Inst) { w.s.WrongPath(out) }

// NoteMem records a committed-path memory address in the recent ring the
// synthesiser wanders near. Call it for every committed memory instruction
// delivered, exactly as Generator.Next does.
func (w *WrongPathSynth) NoteMem(addr uint64) { w.s.noteMem(addr) }

// CaptureTo writes the synthesiser's state into the wrong-path fields of a
// SourceState being assembled by an external Source's Snapshot.
func (w *WrongPathSynth) CaptureTo(st *SourceState) { w.s.captureTo(st) }

// RestoreFrom overwrites the synthesiser's state from the wrong-path fields
// of a snapshot, resuming the speculative stream exactly where CaptureTo
// left it.
func (w *WrongPathSynth) RestoreFrom(st *SourceState) error { return w.s.restoreFrom(st) }

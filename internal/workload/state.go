package workload

// Source checkpointing: a SourceState captures every mutable bit of a
// Generator — committed-path RNG, kernel interior state, the
// wrong-path synthesiser and the emission queue surplus — so a warm source
// can be reconstructed in O(state) instead of re-consuming the warm-up
// prefix instruction by instruction. internal/ckpt persists SourceStates
// next to the cache image they were captured with.
//
// Determinism contract: for any Source s and fresh source f of the same
// (benchmark, seed), after f.Restore(s.Snapshot()) the two sources produce
// bit-identical committed-path AND wrong-path streams forever. The contract
// is enforced by TestSnapshotRestoreEquivalence over every benchmark.

import (
	"fmt"

	"repro/internal/isa"
)

// StateVersion is bumped whenever the kernel state layout changes, so
// persisted checkpoints from older builds fail loudly instead of silently
// resuming from misinterpreted state.
const StateVersion = 1

// SourceState is the serialisable mutable state of a Source. Produce it
// with Snapshot, consume it with Restore on a freshly built source of the
// same benchmark and seed.
type SourceState struct {
	// Version is the state-layout version (StateVersion at capture time).
	Version int `json:"version"`
	// Bench and Seed identify the source instantiation the state belongs to.
	Bench string `json:"bench"`
	Seed  uint64 `json:"seed"`
	// Consumed is the number of committed-path instructions delivered so
	// far (the next instruction's sequence number).
	Consumed uint64 `json:"consumed"`
	// RNG is the committed-path generator state (splitmix64 raw state).
	RNG uint64 `json:"rng"`
	// WpRNG, WpSeq, Recent, RecentPos and RecentSeen are the wrong-path
	// synthesiser: its independent RNG, sequence counter and the ring of
	// recently committed memory addresses wrong-path fetch wanders near.
	WpRNG      uint64   `json:"wp_rng"`
	WpSeq      uint64   `json:"wp_seq"`
	Recent     []uint64 `json:"recent"`
	RecentPos  int      `json:"recent_pos"`
	RecentSeen bool     `json:"recent_seen"`
	// Kernel is the kernel-interior state as a flat word list in emission-
	// tree order (nil for trace-source snapshots within the recording).
	Kernel []uint64 `json:"kernel,omitempty"`
	// Queue is the emitted-but-undelivered instruction surplus: warm-up can
	// stop mid-batch, leaving instructions queued for the measured phase.
	Queue []isa.Inst `json:"queue,omitempty"`
}

// Snapshottable is implemented by Sources whose position can be captured
// and restored (Generator and internal/trace's Source).
type Snapshottable interface {
	Source
	// Snapshot captures the source's complete mutable state.
	Snapshot() *SourceState
	// Restore overwrites the source's state with a snapshot previously
	// taken from a source of the same benchmark and seed.
	Restore(*SourceState) error
}

// kstate is a cursor over the flat kernel state words. Save and load walk
// the kernel tree in the same deterministic order, so the layout needs no
// per-field tags — the version field guards against layout drift.
type kstate struct {
	words     []uint64
	pos       int
	underflow bool
}

func (s *kstate) put(v uint64) { s.words = append(s.words, v) }

func (s *kstate) get() uint64 {
	if s.pos >= len(s.words) {
		s.underflow = true
		return 0
	}
	v := s.words[s.pos]
	s.pos++
	return v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- wpSynth capture ---

func (w *wpSynth) captureTo(st *SourceState) {
	st.WpRNG = w.rng.State()
	st.WpSeq = w.wpSeq
	st.Recent = append([]uint64(nil), w.recentAddrs[:]...)
	st.RecentPos = w.recentPos
	st.RecentSeen = w.recentSeen
}

func (w *wpSynth) restoreFrom(st *SourceState) error {
	if len(st.Recent) != len(w.recentAddrs) {
		return fmt.Errorf("workload: snapshot recent-ring size %d, want %d", len(st.Recent), len(w.recentAddrs))
	}
	w.rng.SetState(st.WpRNG)
	w.wpSeq = st.WpSeq
	copy(w.recentAddrs[:], st.Recent)
	w.recentPos = st.RecentPos
	w.recentSeen = st.RecentSeen
	return nil
}

// --- Generator ---

// Snapshot implements Snapshottable.
func (g *Generator) Snapshot() *SourceState {
	st := &SourceState{
		Version:  StateVersion,
		Bench:    g.name,
		Seed:     g.seed,
		Consumed: g.seq,
		RNG:      g.rng.State(),
	}
	g.wpSynth.captureTo(st)
	ks := &kstate{}
	g.k.save(ks)
	st.Kernel = ks.words
	if g.head < len(g.queue) {
		st.Queue = append([]isa.Inst(nil), g.queue[g.head:]...)
	}
	return st
}

// Restore implements Snapshottable. The receiver must be a freshly built
// (or at least same-benchmark, same-seed) generator; its state is fully
// overwritten.
func (g *Generator) Restore(st *SourceState) error {
	if err := g.checkState(st); err != nil {
		return err
	}
	if st.Kernel == nil {
		return fmt.Errorf("workload: snapshot of %s has no kernel state (taken from a trace source?)", st.Bench)
	}
	g.rng.SetState(st.RNG)
	g.seq = st.Consumed
	if err := g.wpSynth.restoreFrom(st); err != nil {
		return err
	}
	ks := &kstate{words: st.Kernel}
	g.k.load(ks)
	if ks.underflow || ks.pos != len(ks.words) {
		return fmt.Errorf("workload: %s kernel state is %d words, this build's layout needs %d (checkpoint from a different build?)",
			st.Bench, len(ks.words), ks.pos)
	}
	g.queue = append(g.queue[:0], st.Queue...)
	g.head = 0
	return nil
}

func (g *Generator) checkState(st *SourceState) error {
	switch {
	case st.Version != StateVersion:
		return fmt.Errorf("workload: snapshot state version %d, this build speaks %d", st.Version, StateVersion)
	case st.Bench != g.name:
		return fmt.Errorf("workload: snapshot of %q cannot restore %q", st.Bench, g.name)
	case st.Seed != g.seed:
		return fmt.Errorf("workload: snapshot of %s seed %d cannot restore seed %d", st.Bench, st.Seed, g.seed)
	}
	return nil
}

// --- kernel state layouts ---
//
// Each kernel saves exactly the fields its emission mutates, in declaration
// order; construction-time parameters are re-derived by Profile.New and not
// stored. Lazily-defaulted fields (coldStream.burst, hot/window/block sizes)
// ARE stored: they are pure functions of the config today, but storing them
// keeps a snapshot valid even if the defaulting rules change underneath it.

func (c *coldStream) save(s *kstate) {
	s.put(uint64(c.burst))
	s.put(c.n)
	s.put(c.nDep)
	s.put(c.off)
}

func (c *coldStream) load(s *kstate) {
	c.burst = int(s.get())
	c.n = s.get()
	c.nDep = s.get()
	c.off = s.get()
}

func (k *streamKernel) save(s *kstate) {
	s.put(k.blockBytes)
	s.put(k.offset)
	s.put(k.blockBase)
	s.put(uint64(k.pass))
	k.cold.save(s)
}

func (k *streamKernel) load(s *kstate) {
	k.blockBytes = s.get()
	k.offset = s.get()
	k.blockBase = s.get()
	k.pass = int(s.get())
	k.cold.load(s)
}

func (k *stencilKernel) save(s *kstate) {
	s.put(k.windowBytes)
	s.put(k.offset)
	s.put(k.winBase)
	s.put(uint64(k.pass))
	k.cold.save(s)
}

func (k *stencilKernel) load(s *kstate) {
	k.windowBytes = s.get()
	k.offset = s.get()
	k.winBase = s.get()
	k.pass = int(s.get())
	k.cold.load(s)
}

func (k *blockedKernel) save(s *kstate) { k.cold.save(s) }

func (k *blockedKernel) load(s *kstate) { k.cold.load(s) }

func (k *chaseKernel) save(s *kstate) {
	s.put(k.hotBytes)
	s.put(k.hops)
	var pending uint64
	for i, p := range k.pendingHome {
		pending |= b2u(p) << uint(i)
	}
	s.put(pending)
}

func (k *chaseKernel) load(s *kstate) {
	k.hotBytes = s.get()
	k.hops = s.get()
	pending := s.get()
	for i := range k.pendingHome {
		k.pendingHome[i] = pending&(1<<uint(i)) != 0
	}
}

func (k *hashKernel) save(s *kstate) {
	s.put(k.hotBytes)
	k.cold.save(s)
}

func (k *hashKernel) load(s *kstate) {
	k.hotBytes = s.get()
	k.cold.load(s)
}

func (k *stackKernel) save(s *kstate) { s.put(k.depth) }

func (k *stackKernel) load(s *kstate) { k.depth = s.get() }

func (k *localKernel) save(s *kstate) {
	s.put(k.hotBytes)
	k.cold.save(s)
}

func (k *localKernel) load(s *kstate) {
	k.hotBytes = s.get()
	k.cold.load(s)
}

func (k *intStreamKernel) save(s *kstate) {
	s.put(k.offset)
	k.cold.save(s)
}

func (k *intStreamKernel) load(s *kstate) {
	k.offset = s.get()
	k.cold.load(s)
}

func (k *mixKernel) save(s *kstate) {
	for _, p := range k.parts {
		p.save(s)
	}
}

func (k *mixKernel) load(s *kstate) {
	for _, p := range k.parts {
		p.load(s)
	}
}

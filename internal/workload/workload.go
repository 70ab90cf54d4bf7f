// Package workload generates the synthetic SPEC CPU 2000-like instruction
// streams that substitute for the paper's Alpha SimPoint traces (see
// DESIGN.md, "Substitutions"). Each benchmark is a deterministic kernel
// parameterised to reproduce the statistical properties that drive the
// paper's results: load/store fractions, the decode→address-calculation
// locality split of Figure 1, L2 miss rates and memory-level parallelism,
// store→load forwarding distances, and control-speculation quality.
//
// The committed-path stream of a generator is a pure function of its seed:
// wrong-path synthesis draws from an independent forked RNG so speculation
// depth cannot perturb the committed path.
package workload

import (
	"fmt"
	"strings"

	"repro/internal/filter"
	"repro/internal/isa"
	"repro/internal/xrand"
)

// Suite labels a benchmark as part of the integer or floating-point suite.
type Suite uint8

const (
	// SuiteInt is the SPEC INT 2000-like suite.
	SuiteInt Suite = iota
	// SuiteFP is the SPEC FP 2000-like suite.
	SuiteFP
)

// String implements fmt.Stringer.
func (s Suite) String() string {
	if s == SuiteInt {
		return "SPEC INT"
	}
	return "SPEC FP"
}

// ParseSuite parses a suite name ("int", "fp", "SPEC INT", "spec-fp", ...).
func ParseSuite(name string) (Suite, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "int", "spec int", "spec-int", "specint":
		return SuiteInt, nil
	case "fp", "spec fp", "spec-fp", "specfp":
		return SuiteFP, nil
	}
	return 0, fmt.Errorf("workload: unknown suite %q (want int | fp)", name)
}

// MarshalText implements encoding.TextMarshaler.
func (s Suite) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *Suite) UnmarshalText(b []byte) error {
	v, err := ParseSuite(string(b))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// kernel is a synthetic program: each Emit call appends at least one
// committed-path instruction to the generator's queue. save and load
// serialise the kernel's mutable interior state for checkpointing (see
// state.go for the layout contract).
type kernel interface {
	emit(g *Generator)
	save(s *kstate)
	load(s *kstate)
}

// Source is the instruction supply the pipeline model consumes: the
// committed-path stream plus on-demand wrong-path synthesis. Generator
// produces it live; internal/trace's Source replays a recorded .elt file.
type Source interface {
	// Name returns the benchmark name.
	Name() string
	// Suite returns the benchmark's suite.
	Suite() Suite
	// Next fills out with the next committed-path instruction.
	Next(out *isa.Inst)
	// WrongPath fills out with the next wrong-path instruction.
	WrongPath(out *isa.Inst)
	// Warmup advances the committed path by n instructions, invoking
	// access for each memory reference. It is exactly equivalent to n
	// Next calls that feed access(in.Addr) for memory instructions —
	// cache warm-up without the per-instruction copy out of the stream.
	Warmup(n uint64, access func(addr uint64))
}

// wpSynth synthesises the wrong-path stream from its own RNG (independent
// of committed-path randomness, so speculation depth cannot perturb the
// committed path) and a ring of recently committed memory addresses;
// wrong-path fetch runs through the program's own neighbourhood, so
// speculative accesses touch nearby lines (mild pollution, occasional
// prefetch) rather than foreign memory. It is embedded by value in
// Generator and wrapped by WrongPathSynth for sources outside the package.
type wpSynth struct {
	rng         xrand.RNG
	wpSeq       uint64
	recentAddrs [16]uint64
	recentPos   int
	recentSeen  bool
}

// noteMem records a committed-path memory address in the recent ring.
func (w *wpSynth) noteMem(addr uint64) {
	w.recentAddrs[w.recentPos] = addr
	w.recentPos = (w.recentPos + 1) % len(w.recentAddrs)
	w.recentSeen = true
}

// wpAddr synthesises a wrong-path address: a recently touched address
// perturbed by a few cache lines.
func (w *wpSynth) wpAddr() uint64 {
	if !w.recentSeen {
		return align(w.rng.Uint64n(1<<20), 8)
	}
	base := w.recentAddrs[w.rng.Intn(len(w.recentAddrs))]
	delta := int64(w.rng.Intn(17)-8) * 32 // within +-8 lines
	a := int64(base) + delta
	if a < 0 {
		a = int64(base)
	}
	return align(uint64(a), 8)
}

// WrongPath fills out with a plausible wrong-path instruction: the mix a
// fetch unit would stream in past a mispredicted branch — ALU ops plus loads
// and stores to addresses near the benchmark's recent working set. These
// consume pipeline and LSQ resources and are squashed at branch resolution.
func (w *wpSynth) WrongPath(out *isa.Inst) {
	*out = isa.Inst{WrongPath: true, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
	r := w.rng.Float64()
	switch {
	case r < 0.22:
		out.Op = isa.OpLoad
		out.Addr = w.wpAddr()
		out.Size = 8
		out.Src1 = 0
		out.Dst = int16(1 + w.rng.Intn(isa.NumIntRegs-1))
	case r < 0.30:
		out.Op = isa.OpStore
		out.Addr = w.wpAddr()
		out.Size = 8
		out.Src1, out.Src2 = 0, 0
	case r < 0.42:
		out.Op = isa.OpBranch
		out.Src1 = 0
	default:
		out.Op = isa.OpIntAlu
		out.Src1 = 0
		out.Dst = int16(1 + w.rng.Intn(isa.NumIntRegs-1))
	}
	out.Seq = isa.WrongPathSeqBit | w.wpSeq // disjoint from committed-path sequence space
	w.wpSeq++
}

// Generator produces the dynamic instruction stream of one benchmark.
type Generator struct {
	wpSynth
	name  string
	suite Suite
	seed  uint64
	k     kernel
	rng   *xrand.RNG // committed-path randomness
	queue []isa.Inst
	head  int
	seq   uint64
	// warmAccess, when non-nil, puts emission into warm-up count mode:
	// helpers skip the queue, count instructions in warmCount, and feed
	// memory references straight to warmAccess. Randomness draws are
	// unchanged, so the committed-path stream state evolves exactly as in
	// normal emission. See Warmup.
	warmAccess func(addr uint64)
	warmCount  uint64
	// warmScratch is the discard target of count-mode emission (one per
	// generator: sweeps run generators concurrently).
	warmScratch isa.Inst
}

// Name returns the benchmark name.
func (g *Generator) Name() string { return g.name }

// Suite returns the benchmark's suite.
func (g *Generator) Suite() Suite { return g.suite }

// Next fills out with the next committed-path instruction.
func (g *Generator) Next(out *isa.Inst) {
	for g.head >= len(g.queue) {
		g.queue = g.queue[:0]
		g.head = 0
		g.k.emit(g)
	}
	*out = g.queue[g.head]
	g.head++
	out.Seq = g.seq
	g.seq++
	if out.IsMem() {
		g.noteMem(out.Addr)
	}
}

// warmupSafety bounds the emission-batch size count mode relies on: while
// more than this many warm-up instructions remain, a whole batch can be
// consumed without crossing the budget boundary. Kernel batches are tens
// of instructions; the margin is two orders above that and overshoot is a
// hard error, so the budget accounting can never silently drift.
const warmupSafety = 4096

// Warmup implements Source. Far from the budget boundary it runs emission
// in count mode — instructions are tallied and memory references fed to
// access without ever touching the queue; near the boundary it falls back
// to queued emission walked one instruction at a time, leaving any surplus
// queued for the measurement phase exactly as n Next calls would.
func (g *Generator) Warmup(n uint64, access func(addr uint64)) {
	// Drain instructions already emitted to the queue.
	for n > 0 && g.head < len(g.queue) {
		in := &g.queue[g.head]
		g.head++
		g.seq++
		n--
		if in.IsMem() {
			g.noteMem(in.Addr)
			access(in.Addr)
		}
	}
	// Count-mode emission for the bulk of the budget.
	if n > warmupSafety {
		g.warmAccess = access
		for n > warmupSafety {
			g.warmCount = 0
			g.k.emit(g)
			if g.warmCount > n {
				panic("workload: warm-up emission batch overshot the budget")
			}
			n -= g.warmCount
			g.seq += g.warmCount
		}
		g.warmAccess = nil
	}
	// Tail: queued emission, per-instruction walk.
	for i := uint64(0); i < n; i++ {
		for g.head >= len(g.queue) {
			g.queue = g.queue[:0]
			g.head = 0
			g.k.emit(g)
		}
		in := &g.queue[g.head]
		g.head++
		g.seq++
		if in.IsMem() {
			g.noteMem(in.Addr)
			access(in.Addr)
		}
	}
}

// --- emission helpers used by kernels ---

// emitSlot extends the queue by one zeroed instruction and returns it, so
// helpers write fields in place — the emission path runs once per dynamic
// instruction and a build-then-copy literal costs two extra 32-byte moves.
func (g *Generator) emitSlot() *isa.Inst {
	if g.warmAccess != nil {
		// Warm-up count mode: hand out a scratch slot; the caller's writes
		// are discarded. Memory and branch helpers handle their own
		// accounting before reaching here.
		g.warmCount++
		g.warmScratch = isa.Inst{}
		return &g.warmScratch
	}
	g.queue = append(g.queue, isa.Inst{})
	return &g.queue[len(g.queue)-1]
}

func (g *Generator) push(in isa.Inst) {
	if g.warmAccess != nil {
		g.warmCount++
		if in.IsMem() {
			g.noteMem(in.Addr)
			g.warmAccess(in.Addr)
		}
		return
	}
	g.queue = append(g.queue, in)
}

// ialu emits dst <- op(src1, src2).
func (g *Generator) ialu(dst, src1, src2 int16) {
	in := g.emitSlot()
	in.Op = isa.OpIntAlu
	in.Dst, in.Src1, in.Src2 = dst, src1, src2
}

// imul emits a multi-cycle integer op.
func (g *Generator) imul(dst, src1, src2 int16) {
	in := g.emitSlot()
	in.Op = isa.OpIntMul
	in.Dst, in.Src1, in.Src2 = dst, src1, src2
}

// falu and fmul emit floating-point ops.
func (g *Generator) falu(dst, src1, src2 int16) {
	in := g.emitSlot()
	in.Op = isa.OpFpAlu
	in.Dst, in.Src1, in.Src2 = dst, src1, src2
}

func (g *Generator) fmul(dst, src1, src2 int16) {
	in := g.emitSlot()
	in.Op = isa.OpFpMul
	in.Dst, in.Src1, in.Src2 = dst, src1, src2
}

// load emits dst <- mem[addr], with addrSrc the address-producing register.
func (g *Generator) load(dst, addrSrc int16, addr uint64, size uint8) {
	filter.AssertIndexable(addr, size, "workload load")
	if g.warmAccess != nil {
		g.warmCount++
		g.noteMem(addr)
		g.warmAccess(addr)
		return
	}
	in := g.emitSlot()
	in.Op = isa.OpLoad
	in.Dst, in.Src1, in.Src2 = dst, addrSrc, isa.NoReg
	in.Addr, in.Size = addr, size
}

// store emits mem[addr] <- dataSrc, with addrSrc the address producer.
func (g *Generator) store(addrSrc, dataSrc int16, addr uint64, size uint8) {
	filter.AssertIndexable(addr, size, "workload store")
	if g.warmAccess != nil {
		g.warmCount++
		g.noteMem(addr)
		g.warmAccess(addr)
		return
	}
	in := g.emitSlot()
	in.Op = isa.OpStore
	in.Dst, in.Src1, in.Src2 = isa.NoReg, addrSrc, dataSrc
	in.Addr, in.Size = addr, size
}

// branch emits a conditional branch on condSrc; mispredicted with
// probability p.
func (g *Generator) branch(condSrc int16, p float64) {
	in := g.emitSlot()
	in.Op = isa.OpBranch
	in.Dst, in.Src1, in.Src2 = isa.NoReg, condSrc, isa.NoReg
	in.Taken, in.Mispred = g.rng.Bool(0.5), g.rng.Bool(p)
}

// align rounds addr down to a multiple of size.
func align(addr uint64, size uint64) uint64 { return addr &^ (size - 1) }

// Profile describes one synthetic benchmark.
type Profile struct {
	// Name is the SPEC-like benchmark name.
	Name string
	// Suite is INT or FP.
	Suite Suite
	// build constructs the kernel from a seed.
	build func(r *xrand.RNG) kernel
}

// New instantiates the benchmark's generator with the given seed.
func (p Profile) New(seed uint64) *Generator {
	r := xrand.New(seed ^ hashName(p.Name))
	// Draw order matters for determinism: the kernel consumes committed-path
	// randomness first, then the wrong-path stream is forked — exactly the
	// construction order every recorded stream was produced with.
	k := p.build(r)
	g := &Generator{name: p.Name, suite: p.Suite, seed: seed, k: k, rng: r}
	g.wpSynth.rng = *r.Fork()
	return g
}

// hashName mixes the benchmark name into the seed so different benchmarks
// with the same seed diverge.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range append(IntSuite(), FPSuite()...) {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// SuiteOf returns all profiles of the given suite.
func SuiteOf(s Suite) []Profile {
	if s == SuiteInt {
		return IntSuite()
	}
	return FPSuite()
}

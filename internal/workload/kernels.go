package workload

import (
	"repro/internal/isa"
	"repro/internal/xrand"
)

// Register-role conventions shared by the kernels. Integer registers:
// r0 is a long-lived base (written once, effectively always ready), r1-r5
// are induction/index registers, r6-r9 address temporaries, r10-r18 pointer
// chase registers, r20-r29 data temporaries. FP registers f32+ hold stream
// data and accumulators.
const (
	regBase  = int16(0)
	regInd   = int16(1)
	regInd2  = int16(2)
	regSP    = int16(3)
	regIdx   = int16(6)
	regChase = int16(10) // +chain
	regTmp   = int16(20) // +k
	fpData   = int16(isa.NumIntRegs)
	fpAcc    = int16(isa.NumIntRegs + 16)
)

// Defaults the kernels give a zero size field on first use.
const (
	defaultBlockBytes    = uint64(8 << 10)   // streamKernel.blockBytes
	defaultWindowBytes   = uint64(1 << 20)   // stencilKernel.windowBytes
	defaultChaseHotBytes = uint64(512 << 10) // chaseKernel.hotBytes
	defaultTableHotBytes = uint64(24 << 10)  // hashKernel and localKernel hotBytes
)

// Distinct, widely separated address regions so kernels composed in a mix
// never alias by accident.
const (
	regionStream = uint64(0x1000_0000)
	regionTable  = uint64(0x4000_0000)
	regionHeap   = uint64(0x8000_0000)
	regionStack  = uint64(0xF000_0000)
	regionHome   = uint64(0x0800_0000)
	regionCold   = uint64(0x100_0000_0000)
)

// coldStream injects uniformly spaced compulsory memory misses: every
// "every"-th call emits one load from a monotonically advancing region no
// cache level can retain. This models each benchmark's irreducible
// memory-miss rate (new input data, first-touch pages) independently of its
// hot/warm locality.
type coldStream struct {
	every int
	// depEvery > 0 makes every depEvery-th cold load be followed by a
	// MISPREDICTED branch on the loaded value — the hard-to-predict
	// data-dependent control the paper blames for SPEC INT's limited
	// large-window gains: the window cannot grow past such a miss on
	// either processor.
	depEvery int
	// burst clusters the cold misses: the first `burst` emissions of every
	// burst*every-call period each inject one miss, then the stream goes
	// quiet. The mean rate stays 1/every, but programs alternate between
	// memory phases and compute phases — the behaviour behind Figure 11's
	// low-power residency windows. Default 6.
	burst   int
	n, nDep uint64
	off     uint64
	lane    uint64
}

func (c *coldStream) maybe(g *Generator) {
	if c.every <= 0 {
		return
	}
	if c.burst <= 0 {
		c.burst = defaultBurst(c.every)
	}
	pos := c.n % uint64(c.every*c.burst)
	c.n++
	if pos >= uint64(c.burst) {
		return
	}
	g.load(regTmp+10, regInd, regionCold+(c.lane<<40)+c.off, 8)
	c.off += 32
	if c.depEvery > 0 {
		c.nDep++
		if c.nDep%uint64(c.depEvery) == 0 {
			g.push(isaBranchOn(regTmp+10, true))
		}
	}
}

// defaultBurst scales the burst so one memory phase plus its quiet period
// spans ~10-20k instructions — long enough for the Memory Processor to
// drain and power down between phases, short enough that a measurement
// window samples several phases.
func defaultBurst(every int) int { return min(max(1200/every, 4), 48) }

// isaBranchOn builds a branch instruction on the given condition register
// with a forced prediction outcome.
func isaBranchOn(cond int16, mispred bool) isa.Inst {
	return isa.Inst{Op: isa.OpBranch, Dst: isa.NoReg, Src1: cond, Src2: isa.NoReg,
		Taken: true, Mispred: mispred}
}

// streamKernel models array-streaming FP codes (swim, applu, lucas, art …):
// per iteration one load from each of nStreams arrays, a short FP chain, a
// store to an output array, induction update and a well-predicted loop
// branch. Working sets far beyond L2 give one miss per line per stream —
// independent across streams, hence high memory-level parallelism that a
// large window converts into speed-up.
type streamKernel struct {
	nStreams int
	wsBytes  uint64
	elem     uint64
	fpOps    int
	mispred  float64
	// reuse is the number of passes over each block before advancing
	// (temporal blocking: passes beyond the first hit the L1), controlling
	// the memory-miss intensity. blockBytes defaults to 8 KiB.
	reuse      int
	blockBytes uint64
	cold       coldStream
	offset     uint64
	blockBase  uint64
	pass       int
}

func (k *streamKernel) step() {
	if k.blockBytes == 0 {
		k.blockBytes = defaultBlockBytes
	}
	k.offset += k.elem
	if k.offset >= k.blockBytes {
		k.offset = 0
		// reuse < 0: stationary hot block (time-invariant behaviour; the
		// memory-miss rate comes entirely from the cold stream).
		if k.reuse >= 1 {
			k.pass++
			if k.pass >= k.reuse {
				k.pass = 0
				k.blockBase = (k.blockBase + k.blockBytes) % k.wsBytes
			}
		}
	}
}

func (k *streamKernel) emit(g *Generator) {
	for s := 0; s < k.nStreams; s++ {
		// Stagger bases by a non-power-of-two stride so concurrent streams
		// never alias onto one cache set (real arrays are not set-aligned).
		base := regionStream + uint64(s)<<34 + uint64(s)*4160
		addr := base + k.blockBase + k.offset
		g.load(fpData+int16(s), regInd, align(addr, k.elem), uint8(k.elem))
	}
	// FP chain folding stream values into an accumulator.
	prev := fpData
	for i := 0; i < k.fpOps; i++ {
		src2 := fpData + int16(i%k.nStreams)
		dst := fpAcc + int16(i%4)
		if i%2 == 0 {
			g.fmul(dst, prev, src2)
		} else {
			g.falu(dst, prev, src2)
		}
		prev = dst
	}
	out := regionStream + uint64(k.nStreams)<<34 + uint64(k.nStreams)*4160 + k.blockBase + k.offset
	g.store(regInd, prev, align(out, k.elem), uint8(k.elem))
	g.ialu(regInd, regInd, isa.NoReg) // induction update
	g.ialu(regInd2, regInd2, isa.NoReg)
	g.branch(regInd2, k.mispred)
	k.cold.maybe(g)
	k.step()
}

// stencilKernel models grid codes (mgrid, apsi): three neighbour loads where
// two rows are recently touched (L1 hits) and one streams (periodic L2/mem
// miss), an FP chain and a store back.
type stencilKernel struct {
	rowBytes uint64
	wsBytes  uint64
	fpOps    int
	mispred  float64
	// reuse is the number of smoothing passes over each L2-resident window
	// before the sweep advances (multigrid-style temporal blocking);
	// windowBytes defaults to 1 MiB.
	reuse       int
	windowBytes uint64
	cold        coldStream
	offset      uint64
	winBase     uint64
	pass        int
}

func (k *stencilKernel) init() {
	if k.windowBytes == 0 {
		k.windowBytes = defaultWindowBytes
	}
}

func (k *stencilKernel) step() {
	k.offset += 8
	if k.offset >= k.windowBytes {
		k.offset = 0
		// reuse < 0: stationary window (see streamKernel.step).
		if k.reuse >= 1 {
			k.pass++
			if k.pass >= k.reuse {
				k.pass = 0
				k.winBase = (k.winBase + k.windowBytes) % k.wsBytes
			}
		}
	}
}

func (k *stencilKernel) emit(g *Generator) {
	k.init()
	base := regionStream + k.winBase
	cur := k.offset
	up := (k.offset + k.windowBytes - k.rowBytes) % k.windowBytes
	down := (k.offset + k.rowBytes) % k.windowBytes
	g.load(fpData, regInd, align(base+up, 8), 8)
	g.load(fpData+1, regInd, align(base+cur, 8), 8)
	g.load(fpData+2, regInd, align(base+down, 8), 8)
	prev := fpData
	for i := 0; i < k.fpOps; i++ {
		dst := fpAcc + int16(i%3)
		if i%2 == 0 {
			g.falu(dst, prev, fpData+int16(i%3))
		} else {
			g.fmul(dst, prev, fpData+int16(i%3))
		}
		prev = dst
	}
	g.store(regInd, prev, align(base+(uint64(3)<<34)+cur, 8), 8)
	g.ialu(regInd, regInd, isa.NoReg)
	g.branch(regInd, k.mispred)
	k.cold.maybe(g)
	k.step()
}

// blockedKernel models cache-resident compute-bound FP codes (sixtrack,
// galgel, mesa, fma3d): deep FP chains over a working set that fits in L2
// (mostly L1), rare misses, excellent speculation. These gain little from a
// large window and anchor the FP suite's locality average.
type blockedKernel struct {
	wsBytes uint64
	fpOps   int
	intOps  int
	mispred float64
	cold    coldStream
	r       *xrand.RNG
}

func (k *blockedKernel) emit(g *Generator) {
	addr := regionStream + align(k.r.Uint64n(k.wsBytes), 8)
	g.load(fpData, regInd, addr, 8)
	g.load(fpData+1, regInd, align(regionStream+k.r.Uint64n(k.wsBytes), 8), 8)
	g.load(fpData+2, regInd, align(regionStream+k.r.Uint64n(k.wsBytes), 8), 8)
	prev := fpData
	for i := 0; i < k.fpOps; i++ {
		dst := fpAcc + int16(i%6)
		if i%3 == 0 {
			g.fmul(dst, prev, fpData+1)
		} else {
			g.falu(dst, prev, fpData)
		}
		prev = dst
	}
	for i := 0; i < k.intOps; i++ {
		g.ialu(regTmp+int16(i%4), regInd, regTmp+int16(i%4))
	}
	g.store(regInd, prev, addr, 8)
	g.ialu(regInd, regInd, isa.NoReg)
	g.branch(regInd, k.mispred)
	k.cold.maybe(g)
}

// chaseKernel models pointer-chasing codes (mcf, parser, ammp): nChains
// linked-list walks whose next address depends on the loaded value — the
// archetypal low-locality load. A huge working set makes nearly every hop a
// memory miss; the chains are independent so a large window overlaps at most
// nChains misses. workPerHop integer ops depend on the loaded pointer
// (low-locality compute). Every homeEvery hops the chase value is stored to
// a per-chain home slot and reloaded shortly after by an address-ready load:
// the low-locality-store → high-locality-load forwarding that makes the
// Store Queue Mirror matter (Section 5.3).
type chaseKernel struct {
	nChains   int
	wsBytes   uint64
	workPer   int
	mispred   float64
	homeEvery int
	fp        bool // FP payload (equake/ammp style)
	// fpStoreAddr: store addresses are derived from the chased pointer
	// (equake's smvp() multilevel dereferencing) — these stores have
	// low-locality *address* calculations, the RSAC worst case.
	fpStoreAddr bool
	// hotFrac is the probability a hop lands in a small cache-resident
	// region (hotBytes, default 512 KiB) instead of the full working set —
	// linked structures revisit hot nodes.
	hotFrac  float64
	hotBytes uint64
	r        *xrand.RNG
	hops     uint64
	// pendingHome marks chains whose home slot was stored last round and
	// is reloaded on the next hop — tens of instructions later, when the
	// store has migrated to the LL-SQ, making the reload the
	// high-locality-load ← low-locality-store forwarding the Store Queue
	// Mirror accelerates.
	pendingHome [16]bool
}

// target picks a chase destination respecting the hot fraction.
func (k *chaseKernel) target() uint64 {
	if k.hotBytes == 0 {
		k.hotBytes = defaultChaseHotBytes
	}
	if k.hotFrac > 0 && k.r.Bool(k.hotFrac) {
		return align(k.r.Uint64n(k.hotBytes), 8)
	}
	return align(k.r.Uint64n(k.wsBytes), 8)
}

func (k *chaseKernel) emit(g *Generator) {
	for c := 0; c < k.nChains; c++ {
		creg := regChase + int16(c)
		if k.pendingHome[c] {
			k.pendingHome[c] = false
			// Reload of the home slot stored on the previous hop: a
			// high-locality load that forwards from the migrated,
			// data-pending store.
			g.load(regTmp+9, regBase, regionHome+uint64(c)*64, 8)
			g.ialu(regTmp+9, regTmp+9, isa.NoReg)
		}
		// Next hop: address is value-dependent on the previous load.
		addr := regionHeap + uint64(c)<<36 + k.target()
		g.load(creg, creg, addr, 8)
		// Field access off the chased pointer (same node, same line).
		g.load(regTmp+int16(c%4), creg, addr^8, 8)
		for i := 0; i < k.workPer; i++ {
			if k.fp && i%2 == 1 {
				g.falu(fpAcc+int16(c%4), fpAcc+int16(c%4), fpData+int16(c%4))
			} else {
				g.ialu(regTmp+int16(i%6), creg, regTmp+int16(i%6))
			}
		}
		if k.fpStoreAddr {
			// Store whose address derives from the chased pointer: a
			// low-locality store address calculation.
			saddr := regionHeap + uint64(c)<<36 + k.target()
			g.store(creg, regTmp, saddr, 8)
		}
		if k.homeEvery > 0 && k.hops%uint64(k.homeEvery) == uint64(k.homeEvery)-1 {
			// Store data depends on the chase (low-locality data), address
			// is a ready base register (high-locality address). The reload
			// happens on the chain's next hop (see pendingHome).
			g.store(regBase, regTmp, regionHome+uint64(c)*64, 8)
			if c < len(k.pendingHome) {
				k.pendingHome[c] = true
			}
		}
		g.branch(regTmp, k.mispred)
		k.hops++
	}
}

// hashKernel models table-lookup codes (gap, vortex, crafty, perlbmk):
// computed index (ready quickly → high-locality address), load from a large
// table (frequent L2 miss), then a branch on the loaded value — a
// data-dependent branch that resolves only after the miss, the source of
// deep wrong-path fetch in the integer suite.
type hashKernel struct {
	tableBytes uint64
	intOps     int
	mispred    float64
	storeFrac  float64
	// hotFrac is the probability a probe hits an L1-resident subtable
	// (hotBytes, default 24 KiB) — hash tables have skewed key popularity;
	// the rest of the probes span tableBytes (sized for L2 residency).
	// cold injects the benchmark's irreducible memory-miss rate.
	hotFrac  float64
	hotBytes uint64
	cold     coldStream
	r        *xrand.RNG
}

func (k *hashKernel) probe() uint64 {
	if k.hotBytes == 0 {
		k.hotBytes = defaultTableHotBytes
	}
	if k.hotFrac > 0 && k.r.Bool(k.hotFrac) {
		return align(k.r.Uint64n(k.hotBytes), 8)
	}
	return align(k.r.Uint64n(k.tableBytes), 8)
}

func (k *hashKernel) emit(g *Generator) {
	g.imul(regIdx, regInd, regInd2)
	g.ialu(regIdx, regIdx, regBase)
	addr := regionTable + k.probe()
	g.load(regTmp, regIdx, addr, 8)
	g.load(regTmp+5, regIdx, addr^8, 8)
	for i := 0; i < k.intOps; i++ {
		g.ialu(regTmp+int16(1+i%4), regTmp, regTmp+int16(1+i%4))
	}
	// Data-dependent branch on the loaded value.
	g.branch(regTmp, k.mispred)
	if k.r.Bool(k.storeFrac) {
		g.store(regIdx, regTmp+1, addr, 8)
	}
	g.ialu(regInd, regInd, isa.NoReg)
	k.cold.maybe(g)
}

// stackKernel models call-heavy codes (gcc, eon, perlbmk): register
// spills at call (stores to the stack, address from the always-ready stack
// pointer) and fills at return (loads of the same addresses a short distance
// later) — the close store→load pairs that local, same-epoch or HL-HL
// forwarding captures. Stack frames live in the L1.
type stackKernel struct {
	frameRegs int
	opsPer    int
	mispred   float64
	depth     uint64
	maxDepth  uint64
	r         *xrand.RNG
}

func (k *stackKernel) emit(g *Generator) {
	if k.depth < k.maxDepth && (k.depth == 0 || k.r.Bool(0.5)) {
		// Call: spill the caller-saved registers of the current frame,
		// then descend. The matching fill happens when this depth is
		// returned to — typically dozens of instructions later, after the
		// spilling stores have migrated to the LL-SQ.
		sp := regionStack - k.depth*256
		g.store(regSP, regSP, sp, 8) // save frame pointer
		for i := 1; i < k.frameRegs; i++ {
			g.store(regSP, regTmp+int16(i), sp-uint64(8*i), 8)
		}
		k.work(g)
		g.branch(regTmp, k.mispred)
		k.depth++
		return
	}
	// Return: pop and fill the frame spilled on the way down. The first
	// fill restores the frame pointer itself, so every later stack address
	// calculation depends on it — store→load forwarding latency for fills
	// sits on the address-generation critical path, exactly the
	// low-locality-store → high-locality-load case the Store Queue Mirror
	// accelerates.
	k.depth--
	sp := regionStack - k.depth*256
	k.work(g)
	g.branch(regTmp, k.mispred)
	g.load(regSP, regSP, sp, 8)
	for i := 1; i < k.frameRegs; i++ {
		g.load(regTmp+int16(i), regSP, sp-uint64(8*i), 8)
	}
}

// work emits the frame body: ALU ops with occasional local loads.
func (k *stackKernel) work(g *Generator) {
	sp := regionStack - k.depth*256
	for i := 0; i < k.opsPer; i++ {
		if i%5 == 4 {
			g.load(regTmp+int16(i%k.frameRegs), regSP, sp-uint64(8*(i%k.frameRegs)), 8)
		} else {
			g.ialu(regTmp+int16(i%8), regTmp+int16((i+1)%8), regTmp+int16(i%8))
		}
	}
}

// localKernel models place-and-route style codes (twolf, vpr): random
// accesses over a working set around L2 size — a mix of L1/L2 hits and
// occasional memory misses — with moderately predictable branches.
type localKernel struct {
	wsBytes   uint64
	intOps    int
	mispred   float64
	storeFrac float64
	// hotFrac/hotBytes/cold: see hashKernel.
	hotFrac  float64
	hotBytes uint64
	cold     coldStream
	r        *xrand.RNG
}

func (k *localKernel) pick() uint64 {
	if k.hotBytes == 0 {
		k.hotBytes = defaultTableHotBytes
	}
	if k.hotFrac > 0 && k.r.Bool(k.hotFrac) {
		return align(k.r.Uint64n(k.hotBytes), 4)
	}
	return align(k.r.Uint64n(k.wsBytes), 4)
}

func (k *localKernel) emit(g *Generator) {
	addr := regionTable + k.pick()
	g.load(regTmp, regInd, addr, 4)
	g.load(regTmp+6, regInd, regionTable+k.pick(), 4)
	for i := 0; i < k.intOps; i++ {
		g.ialu(regTmp+int16(1+i%5), regTmp+int16(i%5), regInd)
	}
	if k.r.Bool(k.storeFrac) {
		g.store(regInd, regTmp+1, regionTable+k.pick(), 4)
	}
	g.branch(regTmp+1, k.mispred)
	g.ialu(regInd, regInd, isa.NoReg)
	k.cold.maybe(g)
}

// mixKernel interleaves sub-kernels with weights, for benchmarks whose
// behaviour spans archetypes (gcc = stack + hash, bzip2 = stream + local …).
type mixKernel struct {
	parts   []kernel
	weights []float64
	r       *xrand.RNG
}

func newMix(r *xrand.RNG, weights []float64, parts ...kernel) *mixKernel {
	if len(weights) != len(parts) || len(parts) == 0 {
		panic("workload: mix weights/parts mismatch")
	}
	return &mixKernel{parts: parts, weights: weights, r: r}
}

func (k *mixKernel) emit(g *Generator) {
	x := k.r.Float64()
	var cum float64
	for i, w := range k.weights {
		cum += w
		if x < cum {
			k.parts[i].emit(g)
			return
		}
	}
	k.parts[len(k.parts)-1].emit(g)
}

// intStreamKernel models integer streaming (gzip/bzip2 inner loops): byte
// runs over buffers around L2 size with counters and table updates.
type intStreamKernel struct {
	wsBytes   uint64
	intOps    int
	mispred   float64
	storeFrac float64
	cold      coldStream
	offset    uint64
	r         *xrand.RNG
}

func (k *intStreamKernel) emit(g *Generator) {
	addr := regionStream + (k.offset % k.wsBytes)
	g.load(regTmp, regInd, align(addr, 4), 4)
	g.load(regTmp+6, regInd, align(regionTable+uint64(0x10000)+(k.offset%(1<<15)), 4), 4)
	for i := 0; i < k.intOps; i++ {
		g.ialu(regTmp+int16(1+i%4), regTmp, regTmp+int16(1+i%4))
	}
	if k.r.Bool(k.storeFrac) {
		g.store(regInd, regTmp+1, align(regionTable+(k.offset%(1<<16)), 4), 4)
	}
	g.branch(regTmp+1, k.mispred)
	g.ialu(regInd, regInd, isa.NoReg)
	k.cold.maybe(g)
	k.offset += 4
}

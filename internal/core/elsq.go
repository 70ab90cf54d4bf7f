// Package core implements the paper's contribution: the Epoch-based
// Load/Store Queue (ELSQ), a two-level LSQ organised around Execution
// Locality.
//
// High-locality memory instructions live in small conventional CAM queues
// (HL-LQ/HL-SQ) next to the Cache Processor. Low-locality (miss-dependent)
// instructions migrate, in age order, into epochs — per-memory-engine banks
// of the LL-LSQ. Disambiguation is two-level (Section 3.4): a load first
// searches its local store queue (HL-SQ for high-locality loads, its own
// epoch's LL-SQ for low-locality loads); on a local miss, a global search is
// guarded by the Epoch Resolution Table (ERT), a per-epoch bit-vector filter
// indexed either by address hash (Bloom-style) or by L1 cache line — the
// latter requiring referenced lines to be allocated and locked in the L1.
// The optional Store Queue Mirror (SQM, Section 4) replicates LL store
// state next to the ERT so high-locality loads forward from low-locality
// stores without a CP<->MP network round trip.
//
// Restricted disambiguation (Section 3.3) is split between this package and
// the pipeline model: the structural consequences (which ERTs exist and are
// searched) are handled here, while the migration stalls (RSAC) and address-
// calculation stalls (RLAC) are enforced by the pipeline.
package core

import (
	"math/bits"

	"repro/internal/config"
	"repro/internal/filter"
	"repro/internal/fmc"
	"repro/internal/lsq"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/stats"
)

// ertLockStallCycles is the retry interval when a high-locality insertion
// cannot allocate an L1 line because every way of the set is locked
// (line-based ERT only). The paper stalls the insertion until a line
// unlocks; epochs unlock lines at commit, so a fraction of the L2 round
// trip is a representative retry quantum.
const ertLockStallCycles = 40

// ELSQ is the Epoch-based Load/Store Queue.
type ELSQ struct {
	cfg *config.Config
	// fab carries every network trip the two-level search pays: CP<->MP
	// bus round trips and engine-to-engine mesh routes.
	fab noc.Fabric
	// banks resolves virtual epoch ids to the physical bank hosting them
	// (the live fmc.Epochs under pluggable placement, mod-N otherwise).
	banks fmc.BankMap
	l1    *mem.Cache

	// ert holds the two bit-vector tables (loads and stores); entries are
	// hash buckets or L1 line slots depending on cfg.ERT.
	ert *filter.EpochBitTable

	// activeVirtual maps a physical epoch bank to the virtual (monotonic)
	// epoch id currently occupying it, or -1.
	activeVirtual []int64

	// releaseAt[p] is the cycle bank p's occupant fully committed (0 = still
	// live). The bank's filter state is invisible to searches at or after
	// this cycle and is physically cleared when the bank is reclaimed —
	// program-order processing computes commit times ahead of younger
	// instructions' issue times, so clearing must be timestamp-guarded.
	releaseAt []int64

	// lockedSlots records, per physical bank, the L1 slots this epoch
	// locked (line-based ERT), released on epoch commit or squash.
	lockedSlots [][]mem.LineSlot

	// noLQ removes the associative load queues (SVW composition): stores
	// perform no violation searches and the Load-ERT is absent.
	noLQ bool

	// bypassed[p] marks a live bank whose ERT state is incomplete: a store
	// bypassed filter insertion under pathological line-lock pressure, or
	// forceUnlockOne released one of the bank's locked lines (the line may
	// be evicted, losing the line-indexed filter entry). Searches must
	// conservatively visit such banks regardless of the mask, or a load
	// could miss the youngest matching store and silently read stale data.
	// Cleared when the bank is reclaimed or squashed.
	bypassed []bool

	// ev is the lane's event tally the queue searches, filter probes and
	// round trips are counted into.
	ev *stats.Tally

	// Per-LoadIssue scratch replacing a per-call map: the youngest matching
	// store per physical bank, stamped with a generation so no clearing is
	// needed. At most one virtual epoch is live per bank, and candidate
	// stores arrive ascending by age, so the live epoch's youngest match
	// wins the slot exactly as the map's per-virtual-epoch entry did.
	matchGen   []uint64
	matchV     []int64
	matchOp    []*lsq.MemOp
	gen        uint64
	candEpochs []int64

	// Per-StoreAddrReady scratch for the local/remote younger-load split.
	scratchLocal, scratchRemote []*lsq.MemOp
}

// Option configures optional ELSQ behaviour.
type Option func(*ELSQ)

// WithoutLoadQueue removes the associative load queue (used when composing
// with SVW re-execution, Section 3.5).
func WithoutLoadQueue() Option { return func(e *ELSQ) { e.noLQ = true } }

// New builds the ELSQ for the given configuration over the FMC interconnect
// fabric, (for the line-based ERT) the L1 cache, and the virtual-epoch bank
// mapping (nil = mod-N over NumEpochs banks), counting its events into ev.
func New(cfg *config.Config, fab noc.Fabric, l1 *mem.Cache, banks fmc.BankMap, ev *stats.Tally, opts ...Option) *ELSQ {
	if banks == nil {
		banks = fmc.HomeBanks(cfg.NumEpochs)
	}
	var table *filter.EpochBitTable
	if cfg.ERT == config.ERTLine {
		table = filter.NewEpochBitTable(l1.NumSlots(), cfg.NumEpochs)
	} else {
		table = filter.NewEpochBitTable(1<<uint(cfg.ERTHashBits), cfg.NumEpochs)
	}
	e := &ELSQ{
		cfg:           cfg,
		fab:           fab,
		banks:         banks,
		l1:            l1,
		ert:           table,
		activeVirtual: make([]int64, cfg.NumEpochs),
		releaseAt:     make([]int64, cfg.NumEpochs),
		lockedSlots:   make([][]mem.LineSlot, cfg.NumEpochs),
		bypassed:      make([]bool, cfg.NumEpochs),
		ev:            ev,
		matchGen:      make([]uint64, cfg.NumEpochs),
		matchV:        make([]int64, cfg.NumEpochs),
		matchOp:       make([]*lsq.MemOp, cfg.NumEpochs),
	}
	for i := range e.activeVirtual {
		e.activeVirtual[i] = -1
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements lsq.Scheme.
func (e *ELSQ) Name() string { return e.cfg.Name() }

// physical returns the bank holding virtual epoch v.
func (e *ELSQ) physical(v int64) int { return e.banks.Bank(v) }

// ertIndex maps an address to its ERT index. For the line-based ERT the
// line must be resident in the L1; ok=false means no ERT state can exist
// for the address (and hence no filter hit).
func (e *ELSQ) ertIndex(addr uint64) (int, bool) {
	if e.cfg.ERT == config.ERTHash {
		return filter.HashIndex(addr, e.cfg.ERTHashBits), true
	}
	slot, hit := e.l1.Lookup(addr)
	if !hit {
		return 0, false
	}
	return e.l1.SlotIndex(slot), true
}

// claim makes bank phys belong to virtual epoch v, physically clearing the
// previous occupant's filter state (its release time has necessarily
// passed: the bank-free constraint orders reuse after commit).
func (e *ELSQ) claim(phys int, v int64) {
	if e.activeVirtual[phys] == v {
		return
	}
	if e.activeVirtual[phys] >= 0 {
		e.ert.ClearEpoch(phys)
		for _, s := range e.lockedSlots[phys] {
			e.l1.Unlock(s)
		}
		e.lockedSlots[phys] = e.lockedSlots[phys][:0]
	}
	e.activeVirtual[phys] = v
	e.releaseAt[phys] = 0
	e.bypassed[phys] = false
}

// liveAt reports whether bank phys holds a still-uncommitted epoch at t.
func (e *ELSQ) liveAt(phys int, t int64) bool {
	return e.releaseAt[phys] == 0 || e.releaseAt[phys] > t
}

// insert records an op with a known address into the ERT (and locks its L1
// line for the line-based variant). It returns a stall in cycles when the
// line cannot be allocated and canStall is true; with canStall false the
// caller must squash instead (ok=false).
func (e *ELSQ) insert(op *lsq.MemOp, canStall bool) (stall int64, ok bool) {
	filter.AssertIndexable(op.Addr, op.Size, "ert insert")
	filter.AssertCommittedPath(op.Seq, "ert insert")
	phys := e.physical(int64(op.Epoch))
	e.claim(phys, int64(op.Epoch))
	idx := 0
	if e.cfg.ERT == config.ERTLine {
		slot, hit := e.l1.Lookup(op.Addr)
		if !hit {
			var allocated bool
			slot, allocated = e.l1.Allocate(op.Addr)
			for !allocated {
				if !canStall {
					e.ev[stats.ERTLockSquash]++
					return 0, false
				}
				// Stall the insertion until a line unlocks; model as a
				// fixed retry quantum and force an unlock by charging the
				// stall (the oldest epoch commits within it in practice).
				e.ev[stats.ERTLockStall]++
				stall += ertLockStallCycles
				if stall >= ertLockStallCycles*int64(e.cfg.NumEpochs) {
					// Pathological set pressure: give up and bypass the
					// filter for this op (counted; negligible at sane
					// associativity, dominant at 1-way — Figure 8b/c).
					// The bank's filter state is now incomplete, so
					// searches must visit it unconditionally.
					e.ev[stats.ERTLockBypass]++
					e.bypassed[phys] = true
					return stall, true
				}
				slot, allocated = e.l1.Allocate(op.Addr)
				if !allocated {
					// Evict the oldest epoch's first locked slot to make
					// progress, mirroring the eventual unlock at commit.
					e.forceUnlockOne()
				}
			}
		}
		e.l1.Lock(slot)
		e.lockedSlots[phys] = append(e.lockedSlots[phys], slot)
		idx = e.l1.SlotIndex(slot)
	} else {
		idx = filter.HashIndex(op.Addr, e.cfg.ERTHashBits)
	}
	if op.Store {
		e.ert.SetStore(idx, phys)
		e.ev[stats.ERTInsert]++
		if e.cfg.SQM {
			e.ev[stats.SQMUpdate]++
		}
	} else if !e.noLQ && e.cfg.Disamb != config.DisambRSAC {
		// The Load-ERT exists only when stores perform global violation
		// searches (full disambiguation or RLAC).
		e.ert.SetLoad(idx, phys)
		e.ev[stats.ERTInsert]++
	}
	return stall, true
}

// forceUnlockOne releases the oldest locked slot across banks; used only to
// guarantee forward progress under pathological line-locking pressure.
func (e *ELSQ) forceUnlockOne() {
	oldest := int64(1<<62 - 1)
	bank := -1
	for p, v := range e.activeVirtual {
		if v >= 0 && len(e.lockedSlots[p]) > 0 && v < oldest {
			oldest = v
			bank = p
		}
	}
	if bank < 0 {
		return
	}
	s := e.lockedSlots[bank][0]
	e.lockedSlots[bank] = e.lockedSlots[bank][1:]
	e.l1.Unlock(s)
	// The unlocked line may now be evicted, taking the bank's line-indexed
	// filter entry with it; the bank must be searched unconditionally.
	e.bypassed[bank] = true
}

// Migrate implements lsq.Scheme: the op enters epoch op.Epoch. Stores
// migrate whenever the Memory Processor is active (they must buffer until
// commit); loads migrate only when miss-dependent (completed loads release
// their HL-LQ entry early instead). Accesses are counted as LL-queue
// insertions — the dominant term of the Table 2 LL-SQ column. Ops whose
// address is already known are inserted into the ERT immediately; the rest
// insert at address resolution via AddrKnownInLL.
func (e *ELSQ) Migrate(op *lsq.MemOp, t int64) int64 {
	if op.Store {
		e.ev[stats.LLSQ]++
	} else {
		e.ev[stats.LLLQ]++
	}
	if op.AddrReady <= t {
		stall, _ := e.insert(op, true)
		return stall
	}
	// Claim the bank even when the address is unknown so age mapping holds.
	e.claim(e.physical(int64(op.Epoch)), int64(op.Epoch))
	return 0
}

// AddrKnownInLL implements lsq.Scheme: an op resolved its address while in
// the LL-LSQ. For the line-based ERT a lock overflow here cannot stall
// (younger locks may be held by younger loads — the deadlock case of
// Section 3.4) and squashes instead.
func (e *ELSQ) AddrKnownInLL(op *lsq.MemOp, t int64) bool {
	_, ok := e.insert(op, false)
	return !ok
}

// EpochCommitted implements lsq.Scheme: the epoch's two ERT columns become
// invisible from cycle t on and its line locks are released — the
// bulk-release that makes ELSQ checkpoint recovery cheap compared to the
// HSQ's per-store counter decrements. Bit clearing is deferred to bank
// reclaim (timestamp-guarded via releaseAt), but locks must drop at commit:
// they gate L1 replacement, and holding them to bank reuse would starve the
// cache.
func (e *ELSQ) EpochCommitted(epoch int, t int64) {
	phys := e.physical(int64(epoch))
	if e.activeVirtual[phys] != int64(epoch) {
		return
	}
	e.releaseAt[phys] = t
	// Dropping the locks lets the L1 evict the epoch's lines, and with them
	// the line-indexed filter entries — but the epoch stays searchable for
	// loads issuing before cycle t (program-order processing reaches them
	// after this release is computed). Until the bank is reclaimed its
	// filter state is therefore incomplete and searches must visit it
	// unconditionally.
	if len(e.lockedSlots[phys]) > 0 {
		e.bypassed[phys] = true
	}
	for _, s := range e.lockedSlots[phys] {
		e.l1.Unlock(s)
	}
	e.lockedSlots[phys] = e.lockedSlots[phys][:0]
}

// EpochSquashed implements lsq.Scheme: discard the epoch's filter state
// immediately.
func (e *ELSQ) EpochSquashed(epoch int) {
	phys := e.physical(int64(epoch))
	if e.activeVirtual[phys] != int64(epoch) {
		return
	}
	e.ert.ClearEpoch(phys)
	for _, s := range e.lockedSlots[phys] {
		e.l1.Unlock(s)
	}
	e.lockedSlots[phys] = e.lockedSlots[phys][:0]
	e.activeVirtual[phys] = -1
	e.releaseAt[phys] = 0
	e.bypassed[phys] = false
}

// epochMatch returns the youngest candidate store of virtual epoch v seen
// by the current LoadIssue pass, or nil.
func (e *ELSQ) epochMatch(v int64) *lsq.MemOp {
	p := e.physical(v)
	if e.matchGen[p] == e.gen && e.matchV[p] == v {
		return e.matchOp[p]
	}
	return nil
}

// LoadIssue implements lsq.Scheme: two-level disambiguation for a load.
// Forwarding is arbitrated by age across both levels — the youngest older
// overlapping store wins wherever it lives. Migration is not perfectly
// age-ordered in this model (a store dispatched while the Memory Processor
// was idle buffers in the HL-SQ while younger stores migrate past it), so a
// local hit is only final when it is the youngest match overall; otherwise
// the search continues into the other level and the extra searches are
// charged.
func (e *ELSQ) LoadIssue(ld *lsq.MemOp, ix *lsq.StoreIndex, t int64) lsq.LoadResult {
	// One pass over the candidate stores: the youngest match still in the
	// HL-SQ at t, the youngest match per virtual epoch (bank-indexed
	// scratch; only live epochs are ever queried and exactly one virtual
	// epoch is live per bank), and the youngest match overall. Candidates
	// are ascending by age, so later assignments win.
	var hlMatch, youngest *lsq.MemOp
	e.gen++
	for _, st := range ix.Candidates(ld, t) {
		if st.MigrateAt == 0 || st.MigrateAt > t {
			hlMatch = st
		} else {
			p := e.physical(int64(st.Epoch))
			e.matchGen[p] = e.gen
			e.matchV[p] = int64(st.Epoch)
			e.matchOp[p] = st
		}
		youngest = st
	}
	ld.UnresolvedOlderStore = ix.Unresolved(ld, t)

	// Level 1: local search. The local hit is final only when it is the
	// youngest overlapping store overall.
	if ld.Epoch == lsq.HLEpoch {
		e.ev[stats.HLSQ]++
		if hlMatch != nil && hlMatch == youngest {
			return lsq.Resolve(ld, hlMatch, t)
		}
	} else {
		e.ev[stats.LLSQ]++
		if m := e.epochMatch(int64(ld.Epoch)); m != nil && m == youngest {
			// Local same-epoch forwarding: no global search, no network.
			e.ev[stats.LLForwardLocal]++
			return lsq.Resolve(ld, m, t)
		}
	}

	// Level 2: global search, guarded by the Store-ERT. Epochs partition
	// program order contiguously, so the first match in the youngest-first
	// walk is the youngest LL match.
	e.ev[stats.ERT]++
	var mask filter.EpochMask
	if idx, present := e.ertIndex(ld.Addr); present {
		mask = e.ert.StoreMask(idx)
	}
	candidates := e.candidateEpochs(mask, ld, t)

	var best *lsq.MemOp
	var extra int64
	if len(candidates) > 0 {
		if ld.Epoch == lsq.HLEpoch {
			if e.cfg.SQM {
				// The SQM sits next to the ERT: one extra cycle, no trip.
				extra = 1
				e.ev[stats.SQMSearch]++
			} else {
				extra = e.fab.BusRoundTrip(t) - t
				e.ev[stats.RoundTrip]++
			}
		}
		prev := -1
		if ld.Epoch != lsq.HLEpoch {
			prev = e.physical(int64(ld.Epoch))
		}
		for _, v := range candidates {
			e.ev[stats.LLSQ]++
			extra++ // sequential epoch search
			if ld.Epoch != lsq.HLEpoch && prev >= 0 {
				now := t + extra
				extra += e.fab.Route(prev, e.physical(v), now) - now
			}
			prev = e.physical(v)
			if m := e.epochMatch(v); m != nil {
				e.ev[stats.LLForwardGlobal]++
				best = m
				break
			}
			e.ev[stats.ERTFalsePositive]++
		}
	}

	// Age arbitration across levels.
	if best != nil && best == youngest {
		res := lsq.Resolve(ld, best, t+extra)
		res.ExtraLatency = extra
		return res
	}
	if hlMatch != nil && hlMatch == youngest {
		// The youngest match buffers in the HL-SQ. An HL load already
		// searched it at level 1; an LL load reaches it over the network
		// (one memory-engine -> CP round trip, like the store-side HL-LQ
		// check).
		if ld.Epoch != lsq.HLEpoch {
			e.ev[stats.HLSQ]++
			e.ev[stats.RoundTrip]++
			now := t + extra
			extra += e.fab.BusRoundTrip(now) - now
		}
		res := lsq.Resolve(ld, hlMatch, t+extra)
		res.ExtraLatency = extra
		return res
	}
	return lsq.LoadResult{ExtraLatency: extra}
}

// candidateEpochs converts an ERT bank mask into the virtual epochs older
// than ld and still uncommitted at t, youngest first (the paper's search
// order). Banks flagged bypassed carry incomplete filter state and are
// included regardless of the mask. So are banks the current candidate pass
// proved displaced: program-order processing computes commit times ahead of
// younger instructions' issue times, so a bank can be reclaimed (and its
// filter state cleared) by a processing-order-later epoch while a load
// whose issue cycle precedes the reuse still needs the previous occupant —
// at cycle t that epoch physically still owned the bank and its filter
// bits, so real hardware would search it. The candidates scratch tells us
// exactly when that holds: it records an in-flight store of the bank's
// time-t occupant. The returned slice is scratch storage owned by the
// ELSQ, valid until the next call.
func (e *ELSQ) candidateEpochs(mask filter.EpochMask, ld *lsq.MemOp, t int64) []int64 {
	out := e.candEpochs[:0]
	for phys := 0; phys < e.cfg.NumEpochs; phys++ {
		v := e.activeVirtual[phys]
		if e.matchGen[phys] == e.gen && v >= 0 && e.matchV[phys] < v {
			// Displaced occupant with an in-flight candidate store at t:
			// banks are reused only after their occupant fully commits, so
			// the scratch epoch is the bank's owner as of cycle t. A
			// squashed bank (activeVirtual < 0) stays dead — its state was
			// discarded, not displaced.
			v = e.matchV[phys]
		} else {
			if !mask.Has(phys) && !e.bypassed[phys] {
				continue
			}
			if v < 0 || !e.liveAt(phys, t) {
				continue // stale bank bit (cleared or committed epoch)
			}
		}
		if ld.Epoch != lsq.HLEpoch && v >= int64(ld.Epoch) {
			continue // only strictly older epochs hold older stores
		}
		out = append(out, v)
	}
	// Youngest (highest virtual id) first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	// Insertion order of the mask scan is ascending physical, not virtual;
	// sort descending by virtual id (N<=16, simple insertion sort).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] > out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	e.candEpochs = out
	return out
}

// StoreAddrReady implements lsq.Scheme: violation detection at store
// address resolution.
func (e *ELSQ) StoreAddrReady(st *lsq.MemOp, younger []*lsq.MemOp, t int64) lsq.StoreResult {
	if e.noLQ {
		return lsq.StoreResult{} // SVW: re-execution catches violations
	}
	if st.MigrateAt == 0 || st.AddrReady <= st.MigrateAt {
		// The store's address resolved while it was still in the HL-LSQ
		// (or it never migrates): the violation check is a plain HL-LQ
		// search at issue — every younger issued load was high-locality at
		// that point. This is the common case Figure 1 predicts: store
		// addresses rarely depend on misses.
		e.ev[stats.HLLQ]++
		if ld := lsq.FindViolation(st, younger, t); ld != nil {
			return lsq.StoreResult{Violation: true, ViolatingLoad: ld}
		}
		return lsq.StoreResult{}
	}
	// Low-locality store (full disambiguation or RLAC): local epoch search,
	// then Load-ERT guarded searches of younger epochs, then the HL-LQ.
	// Under RSAC stores never reach the LL-LSQ, so this path never runs.
	e.ev[stats.LLLQ]++
	e.scratchLocal = e.scratchLocal[:0]
	e.scratchRemote = e.scratchRemote[:0]
	for _, ld := range younger {
		if ld.Epoch == st.Epoch {
			e.scratchLocal = append(e.scratchLocal, ld)
		} else {
			e.scratchRemote = append(e.scratchRemote, ld)
		}
	}
	if ld := lsq.FindViolation(st, e.scratchLocal, t); ld != nil {
		return lsq.StoreResult{Violation: true, ViolatingLoad: ld}
	}
	e.ev[stats.ERT]++
	idx, present := e.ertIndex(st.Addr)
	if present {
		mask := e.ert.LoadMask(idx)
		for w, word := range [2]uint64{mask.Lo, mask.Hi} {
			for m := word; m != 0; m &= m - 1 {
				phys := w*64 + bits.TrailingZeros64(m)
				v := e.activeVirtual[phys]
				if v < 0 || v <= int64(st.Epoch) || !e.liveAt(phys, t) {
					continue // only live younger epochs can hold violating loads
				}
				e.ev[stats.LLLQ]++
			}
		}
	}
	// The HL-LQ holds the youngest loads; an LL store must check it (one
	// network trip from the memory engine to the CP). The trip is counted
	// but deliberately not booked on the fabric: it overlaps the store's
	// own completion and delays nothing the timing model observes.
	e.ev[stats.HLLQ]++
	e.ev[stats.RoundTrip]++
	if ld := lsq.FindViolation(st, e.scratchRemote, t); ld != nil {
		return lsq.StoreResult{Violation: true, ViolatingLoad: ld}
	}
	return lsq.StoreResult{}
}

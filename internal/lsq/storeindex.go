package lsq

import "math"

// StoreIndex tracks the in-flight store window and answers the queries every
// disambiguation scheme needs in O(candidates) instead of O(window): the
// older overlapping stores for a load (via an 8-byte-block address index;
// with naturally aligned accesses of at most 8 bytes, overlap implies a
// shared block) and the presence of older address-unresolved stores.
//
// The bound holds because stores arrive in commit order. The pipeline model
// Adds each store once its commit cycle is fixed, and commit is in order, so
// every bucket chain, the recent ring and lateAddr list their stores
// youngest first with non-increasing Commit (0, not yet committed, counts as
// latest; Add panics on any other order). No store behind the first one
// committed by the query cycle t can be in flight at t, so every walk stops
// there: a query visits the stores in flight at t, plus one.
//
// The index is an oracle over the simulated program: it knows each store's
// eventual address even before its simulated AddrReady cycle. Queries expose
// only hardware-visible state by filtering on AddrReady and Commit against
// the query cycle, except CandidatesOracle, which the pipeline model uses to
// detect true ordering violations.
//
// The index owns the store records' storage: the pipeline model obtains each
// store's MemOp from NewOp and the index recycles it once the store retires,
// and stores of one bucket are chained intrusively through the records
// (youngest first), so the steady-state per-store path performs no heap
// allocation. Candidate query results are returned in scratch slices owned
// by the index and are only valid until the next call of the same query.
type StoreIndex struct {
	// buckets is a fixed open-hash table of intrusive store chains,
	// youngest first, indexed by hashed 8-byte block. Blocks that collide
	// share a chain and are told apart by the per-op block check in the
	// queries — pure array writes on Add, no map machinery on the
	// per-store path. A chain holds every live store of its blocks, which
	// in a hot block runs to hundreds; queries stay short because they stop
	// at the first committed store, not because chains are.
	buckets []*MemOp
	// oldest and youngest delimit the live stores in Add order, linked
	// through addNext. Retirement pops oldest: commit order makes it the
	// tail of its chain and, when late-address, the front of lateAddr.
	oldest, youngest *MemOp
	// lateAddr[lateHead:] holds, in Add order, the live stores whose
	// address resolves long after dispatch (the only ones that can be
	// "unresolved" at a later load's issue, beyond the handful of
	// just-dispatched stores tracked in recent).
	lateAddr []*MemOp
	lateHead int
	// recent is a short ring of the youngest stores, whose addresses may
	// not have resolved yet relative to a load issued immediately after.
	// Soundness of Unresolved requires the ring and lateSlack to compose: a
	// store evicted from the ring has at least len(recent) younger stores,
	// so any load that could still query it dispatched at least
	// len(recent)/FetchWidth cycles later and issued at least one cycle
	// after that — by which point every store with AddrReady within
	// Dispatch+lateSlack has resolved, provided lateSlack <=
	// len(recent)/FetchWidth (TuneLateSlack derives it so).
	recent [64]*MemOp
	rpos   int
	// lateSlack is the dispatch-to-AddrReady margin below which a store is
	// tracked only by the recent ring (see recent). Stores resolving later
	// than Dispatch+lateSlack go to lateAddr.
	lateSlack int64
	// maxDispatch is the largest dispatch cycle ever Added. Retired stores
	// always dispatched (and committed) far behind it, so it equals the
	// maximum over the live stores, without a scan.
	maxDispatch int64
	// lateMax is the largest AddrReady ever appended to lateAddr. When it
	// is <= the query time no lateAddr entry can satisfy AddrReady > t, so
	// Unresolved skips the walk entirely — the common case once a phase's
	// address-producing misses drain.
	lateMax int64
	// lastCommit is the previous Add's commit cycle, math.MaxInt64 for a
	// store not yet committed; Add rejects a store that sorts before it.
	lastCommit int64

	// freeOps recycles retired MemOps. No chain or lateAddr entry points at
	// a retired record, but recent may: the ring has 64 slots, and stores
	// sparser than 64 per retirement horizon retire while still in it. The
	// ring walk tolerates such a stale slot (see Unresolved).
	freeOps []*MemOp

	candScratch   []*MemOp
	oracleScratch []*MemOp
}

// storeIndexBucketBits sizes the bucket table (1<<bits buckets), a few
// times the live store count the retirement horizon allows.
const storeIndexBucketBits = 14

// retireHorizon is how far, in cycles, a store's commit must fall behind
// the youngest dispatch before the store retires. Queries run well within
// it of the youngest dispatch, so a retired store is out of every query's
// window.
const retireHorizon = 1 << 14

// NewStoreIndex returns an empty index.
func NewStoreIndex() *StoreIndex {
	return &StoreIndex{
		buckets:   make([]*MemOp, 1<<storeIndexBucketBits),
		lateSlack: 8,
	}
}

// TuneLateSlack sizes the dispatch-to-AddrReady margin below which a store
// is tracked only by the recent ring, for a pipeline fetching fetchWidth
// instructions per cycle. Soundness of Unresolved requires slack <=
// len(recent)/fetchWidth (see the recent field), which this derives from
// the ring's actual length; the result is clamped to [1, 8] — 8 is the
// precision sweet spot, lower values only grow lateAddr.
func (ix *StoreIndex) TuneLateSlack(fetchWidth int) {
	if fetchWidth < 1 {
		fetchWidth = 1
	}
	slack := int64(len(ix.recent) / fetchWidth)
	if slack < 1 {
		slack = 1
	}
	if slack > 8 {
		slack = 8
	}
	ix.lateSlack = slack
}

func blockOf(addr uint64) uint64 { return addr >> 3 }

// bucketOf hashes a block to its bucket (Fibonacci hashing).
func bucketOf(b uint64) int {
	return int((b * 0x9E3779B97F4A7C15) >> (64 - storeIndexBucketBits))
}

// NewOp returns a zeroed MemOp for a store that will be Added to the index.
// The record is recycled after the store retires from the index; callers
// must not retain it past that point (the simulator's program-order
// processing guarantees this: all uses of a store finish within its
// in-flight window).
func (ix *StoreIndex) NewOp() *MemOp {
	if n := len(ix.freeOps); n > 0 {
		op := ix.freeOps[n-1]
		ix.freeOps = ix.freeOps[:n-1]
		*op = MemOp{}
		return op
	}
	return &MemOp{}
}

// Add registers a processed store (all its times already computed). Stores
// must arrive in commit order: Commit never below the previous store's, and
// a store not yet committed (Commit == 0) followed only by such stores. Add
// panics otherwise, because every query's early exit relies on that order.
// Adding a store first retires the stores that committed a full horizon
// behind the youngest dispatch.
func (ix *StoreIndex) Add(st *MemOp) {
	if !st.Store {
		panic("lsq: StoreIndex.Add of a load")
	}
	commit := st.Commit
	if commit == 0 {
		commit = math.MaxInt64
	}
	if commit < ix.lastCommit {
		panic("lsq: StoreIndex.Add out of commit order")
	}
	ix.lastCommit = commit
	if st.Dispatch > ix.maxDispatch {
		ix.maxDispatch = st.Dispatch
	}
	ix.retire()

	i := bucketOf(blockOf(st.Addr))
	st.blockNext, st.blockPrev, st.addNext = ix.buckets[i], nil, nil
	if st.blockNext != nil {
		st.blockNext.blockPrev = st
	}
	ix.buckets[i] = st
	if ix.youngest == nil {
		ix.oldest = st
	} else {
		ix.youngest.addNext = st
	}
	ix.youngest = st
	if st.AddrReady > st.Dispatch+ix.lateSlack {
		ix.pushLate(st)
	}
	ix.recent[ix.rpos] = st
	ix.rpos = (ix.rpos + 1) % len(ix.recent)
}

// retire unlinks and recycles, oldest first, every store no longer in
// flight a full horizon behind the youngest dispatch. Commit order makes
// the retirees a prefix of Add order, so each is the tail of its chain and,
// if late-address, the front of lateAddr: O(1) per store.
func (ix *StoreIndex) retire() {
	horizon := ix.maxDispatch - retireHorizon
	for st := ix.oldest; st != nil && !st.InFlightAt(horizon); st = ix.oldest {
		ix.oldest = st.addNext
		if st.blockPrev != nil {
			st.blockPrev.blockNext = nil
		} else {
			ix.buckets[bucketOf(blockOf(st.Addr))] = nil
		}
		if ix.lateHead < len(ix.lateAddr) && ix.lateAddr[ix.lateHead] == st {
			ix.lateHead++
		}
		ix.freeOps = append(ix.freeOps, st)
	}
	if ix.oldest == nil {
		ix.youngest = nil
	}
}

// pushLate appends st to lateAddr. When the backing array is full and at
// least half of it is retired, the live entries first slide down to its
// start, so steady state reuses one array.
func (ix *StoreIndex) pushLate(st *MemOp) {
	if len(ix.lateAddr) == cap(ix.lateAddr) && ix.lateHead >= len(ix.lateAddr)/2 {
		n := copy(ix.lateAddr, ix.lateAddr[ix.lateHead:])
		ix.lateAddr, ix.lateHead = ix.lateAddr[:n], 0
	}
	ix.lateAddr = append(ix.lateAddr, st)
	if st.AddrReady > ix.lateMax {
		ix.lateMax = st.AddrReady
	}
}

// Candidates returns the older stores overlapping ld that are in flight at
// t with addresses known to the hardware by t, ascending by age. The
// returned slice is scratch storage owned by the index, valid until the
// next Candidates call.
func (ix *StoreIndex) Candidates(ld *MemOp, t int64) []*MemOp {
	out := ix.candScratch[:0]
	b := blockOf(ld.Addr)
	for st := ix.buckets[bucketOf(b)]; st != nil && st.InFlightAt(t); st = st.blockNext {
		if blockOf(st.Addr) == b && st.Seq < ld.Seq && st.AddrReady <= t && st.Overlaps(ld) {
			out = append(out, st)
		}
	}
	reverseOps(out)
	ix.candScratch = out
	return out
}

// reverseOps flips a chain walk (youngest first) into ascending age.
func reverseOps(ops []*MemOp) {
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
}

// CandidatesOracle returns every older in-flight store overlapping ld at t
// regardless of address resolution — the ground truth the pipeline model
// uses to detect store→load ordering violations. The returned slice is
// scratch storage owned by the index, valid until the next
// CandidatesOracle call.
func (ix *StoreIndex) CandidatesOracle(ld *MemOp, t int64) []*MemOp {
	out := ix.oracleScratch[:0]
	b := blockOf(ld.Addr)
	for st := ix.buckets[bucketOf(b)]; st != nil && st.InFlightAt(t); st = st.blockNext {
		if blockOf(st.Addr) == b && st.Seq < ld.Seq && st.Overlaps(ld) {
			out = append(out, st)
		}
	}
	reverseOps(out)
	ix.oracleScratch = out
	return out
}

// Unresolved reports whether any store older than ld and in flight at t had
// an unknown address at t (the no-unresolved-store-filter input). Both
// walks run youngest first and stop at the first store committed by t.
//
// A ring slot can be stale: its store retired and the record was recycled.
// The slot then shows the record's latest use — a newer store that its own,
// younger slot also shows — or, while the record waits in freeOps, a retired
// store, which ends the walk. Neither changes the answer: every store Added
// before a retired one committed before any feasible query.
func (ix *StoreIndex) Unresolved(ld *MemOp, t int64) bool {
	if ix.lateMax > t {
		for i := len(ix.lateAddr) - 1; i >= ix.lateHead && ix.lateAddr[i].InFlightAt(t); i-- {
			if st := ix.lateAddr[i]; st.Seq < ld.Seq && st.AddrReady > t {
				return true
			}
		}
	}
	for i := 1; i <= len(ix.recent); i++ {
		st := ix.recent[(ix.rpos-i+len(ix.recent))%len(ix.recent)]
		if st == nil || !st.InFlightAt(t) {
			break
		}
		if st.Seq < ld.Seq && st.AddrReady > t {
			return true
		}
	}
	return false
}

// Package lsq defines the load/store-queue abstraction the pipeline model
// drives, the in-flight memory-operation record shared by every scheme, and
// the two baseline organisations the paper compares against: the idealised
// unlimited single-cycle central LSQ and the conventional finite CAM LSQ of
// the OoO-64 processor. The paper's contribution, the Epoch-based LSQ,
// implements the same interface in package core; the SVW re-execution
// baseline composes with either in package svw.
package lsq

import "repro/internal/isa"

// HLEpoch marks a memory operation that lives in the high-locality queues
// (never migrated to a memory engine).
const HLEpoch = -1

// MemOp is the lifetime record of one in-flight memory instruction, filled
// in by the pipeline model as its timing resolves. All times are absolute
// cycles.
type MemOp struct {
	// Seq is the dynamic program-order sequence number.
	Seq uint64
	// Store distinguishes stores from loads.
	Store bool
	// Addr and Size give the access footprint.
	Addr uint64
	Size uint8
	// Dispatch is the cycle the op entered the window (decode/allocate).
	Dispatch int64
	// AddrReady is the cycle the effective address is known.
	AddrReady int64
	// DataReady is the cycle a store's data is available (loads: 0).
	DataReady int64
	// Issued is the cycle the op performed its queue search (loads: issue;
	// stores: address resolution).
	Issued int64
	// Done is the cycle a load's value is available.
	Done int64
	// Commit is the cycle the op leaves the window. Filled late; schemes
	// must treat ops with Commit == 0 as still in flight.
	Commit int64
	// LowLoc marks a low-locality (miss-dependent) op per the execution-
	// locality classification.
	LowLoc bool
	// Epoch is the LL-LSQ epoch (memory engine) holding the op, or HLEpoch.
	Epoch int
	// MigrateAt is the cycle the op moves from the HL queues to its epoch
	// (0 = never migrates). Before this cycle the op is searchable in the
	// high-locality queues.
	MigrateAt int64
	// UnresolvedOlderStore records whether, at load issue, some older store
	// still had an unknown address (the no-unresolved-store filter input).
	UnresolvedOlderStore bool

	// Forwarding provenance, filled by the pipeline model once the load's
	// value source is final (after any violation repair). FwdMask is the
	// bitmask of the load's bytes supplied by in-flight store-to-load
	// forwarding (bit i = byte Addr+i; 0 = no forwarding) and FwdSeq is the
	// sequence number of the supplying store (valid only when FwdMask != 0).
	// SVW starts the load's vulnerability window after FwdSeq; the oracle
	// certifies FwdSeq byte-wise against the sequential memory image.
	FwdSeq  uint64
	FwdMask uint8
	// ReadAt is the cycle of the load's final data-cache read for the bytes
	// not covered by FwdMask: issue for an ordinary load, the re-read point
	// after a partial-overlap wait or a violation repair, the commit-time
	// re-execution cycle under SVW. Bytes read from the cache at ReadAt
	// observe exactly the stores that committed by ReadAt.
	ReadAt int64

	// blockNext chains stores of the same 8-byte block inside the
	// StoreIndex, youngest first. Intrusive linking keeps the per-store
	// path of the index allocation-free.
	blockNext *MemOp
}

// InFlightAt reports whether the op still occupies its queue at cycle t.
func (op *MemOp) InFlightAt(t int64) bool { return op.Commit == 0 || op.Commit > t }

// Overlaps reports whether two ops' footprints overlap.
func (op *MemOp) Overlaps(other *MemOp) bool {
	return isa.Overlaps(op.Addr, op.Size, other.Addr, other.Size)
}

// Covers reports whether the store op fully covers the load ld (full
// forwarding possible; a partial overlap forces the load to wait for the
// store to commit, the Power4-style behaviour described in Section 2.1).
func (op *MemOp) Covers(ld *MemOp) bool {
	return op.Addr <= ld.Addr && op.Addr+uint64(op.Size) >= ld.Addr+uint64(ld.Size)
}

// LoadResult is the outcome of a load's disambiguation search.
type LoadResult struct {
	// ExtraLatency is added to the load's execution for remote searches
	// (network trips, sequential epoch searches, SQM access).
	ExtraLatency int64
	// Forwarded means an older in-flight store supplies the data.
	Forwarded bool
	// Source is the forwarding store (when Forwarded).
	Source *MemOp
	// DataAvailable is the cycle the forwarded data exists (max of search
	// completion and the store's data readiness).
	DataAvailable int64
	// Partial means the matching store only partially covers the load; the
	// load must wait for the store's commit and then read the cache.
	Partial bool
	// PartialStore is the matching store for the partial case.
	PartialStore *MemOp
	// Squash means the search could not proceed legally (line-based ERT
	// lock overflow for an LL-issued address) and the window must be
	// squashed from this load.
	Squash bool
}

// StoreResult is the outcome of a store's violation check at address
// resolution.
type StoreResult struct {
	// Violation means a younger load with an overlapping address already
	// issued and consumed stale data; the window squashes from that load.
	Violation bool
	// ViolatingLoad is the oldest such load.
	ViolatingLoad *MemOp
}

// Scheme is the LSQ organisation under test. The pipeline model invokes the
// hooks in program-order processing; implementations update their structures
// and count every search into the lane's stats.Tally under the Table 2
// column events (stats.HLLQ, HLSQ, LLLQ, LLSQ, ERT, RoundTrip).
type Scheme interface {
	// Name identifies the scheme for reports.
	Name() string

	// LoadIssue is called when a load searches for older matching stores.
	// ix indexes every older store still potentially in flight.
	LoadIssue(ld *MemOp, ix *StoreIndex, t int64) LoadResult

	// StoreAddrReady is called when a store's address resolves and it
	// checks younger already-issued loads for ordering violations.
	// youngerLoads is ascending by age (may be empty: the pipeline model
	// detects actual violations on the load side; this hook accounts the
	// searches the hardware performs).
	StoreAddrReady(st *MemOp, youngerLoads []*MemOp, t int64) StoreResult

	// Migrate is called when the op moves to low-locality epoch op.Epoch at
	// cycle t (FMC only). It returns an additional stall in cycles (e.g.
	// line-ERT allocation stalls).
	Migrate(op *MemOp, t int64) int64

	// AddrKnownInLL is called when an op that migrated with an unknown
	// address resolves it at cycle t. It reports whether the window must be
	// squashed from this op (line-ERT lock overflow).
	AddrKnownInLL(op *MemOp, t int64) bool

	// EpochCommitted is called when every instruction of an epoch has
	// committed (at cycle t); the scheme releases the epoch's filter state
	// from cycle t onward.
	EpochCommitted(epoch int, t int64)

	// EpochSquashed is called when an epoch's state is discarded on
	// recovery.
	EpochSquashed(epoch int)
}

// FindForward scans olderStores (ascending age) for the youngest store with
// a known address at t that overlaps ld. It also reports whether any older
// in-flight store's address was still unknown at t. This is the reference
// CAM search semantics every scheme builds on.
func FindForward(ld *MemOp, olderStores []*MemOp, t int64) (match *MemOp, unresolved bool) {
	for _, st := range olderStores {
		if !st.InFlightAt(t) {
			continue
		}
		if st.AddrReady > t {
			unresolved = true
			continue
		}
		if st.Overlaps(ld) {
			match = st // keep scanning: youngest match wins
		}
	}
	return match, unresolved
}

// FindViolation scans youngerLoads (ascending age) for the oldest load that
// already issued (before t) with an address overlapping st — a store→load
// ordering violation.
func FindViolation(st *MemOp, youngerLoads []*MemOp, t int64) *MemOp {
	for _, ld := range youngerLoads {
		if ld.Issued != 0 && ld.Issued < t && ld.Overlaps(st) {
			return ld
		}
	}
	return nil
}

// Resolve converts a forwarding match into a LoadResult, handling the
// partial-coverage case.
func Resolve(ld *MemOp, match *MemOp, searchDone int64) LoadResult {
	if match == nil {
		return LoadResult{}
	}
	if !match.Covers(ld) {
		return LoadResult{Partial: true, PartialStore: match}
	}
	avail := match.DataReady
	if searchDone > avail {
		avail = searchDone
	}
	return LoadResult{Forwarded: true, DataAvailable: avail, Source: match}
}

// Package filter implements the search filters of the paper: the Epoch
// Resolution Table (ERT) in both its hash-indexed and cache-line-indexed
// forms (Section 3.4) and the Store Sequence Bloom Filter (SSBF) used by the
// Store Vulnerability Window re-execution baseline (Section 5.6).
package filter

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// HashIndex maps an effective address to an n-bit ERT/SSBF index using the
// low address bits above 8-byte granularity, matching the paper's "set of
// the lower bits from the address". With naturally aligned accesses of at
// most 8 bytes (see Indexable), any two overlapping accesses map to the
// same index, so the filter never produces false negatives.
func HashIndex(addr uint64, nbits int) int {
	return int((addr >> 3) & ((1 << uint(nbits)) - 1))
}

// Indexable reports whether an access may rely on HashIndex's no-false-
// negative guarantee: a power-of-two size of at most 8 bytes, naturally
// aligned. Such an access lies within a single 8-byte granule, so any two
// overlapping accesses share a granule and therefore an index. An access
// violating this (e.g. one crossing an 8-byte boundary) could overlap an
// op indexed under a different granule and silently evade the ERT/SSBF —
// a disambiguation soundness hole, not just a precision loss.
func Indexable(addr uint64, size uint8) bool {
	return size > 0 && size <= 8 && size&(size-1) == 0 && addr&uint64(size-1) == 0
}

// Debug enables the alignment assertions at the points where memory ops
// enter the filters (workload emission, ERT insertion, SVW commit checks).
// The package tests switch it on; production hot paths pay one predictable
// branch.
var Debug = false

// AssertIndexable panics if Debug is set and the access violates the
// Indexable invariant. It inlines to the Debug branch.
func AssertIndexable(addr uint64, size uint8, site string) {
	if Debug {
		assertIndexable(addr, size, site)
	}
}

// assertIndexable is AssertIndexable's check, out of line: formatting its
// panic message would keep AssertIndexable from inlining.
//
//go:noinline
func assertIndexable(addr uint64, size uint8, site string) {
	if !Indexable(addr, size) {
		panic(fmt.Sprintf("filter: %s: access addr %#x size %d violates the aligned-pow2-<=8B invariant HashIndex soundness relies on", site, addr, size))
	}
}

// AssertCommittedPath panics if Debug is set and seq belongs to the
// wrong-path sequence space (isa.WrongPathSeqBit). Squashed wrong-path ops
// may search the queues and pollute the caches, but they must never update
// committed-state structures: the SSBF, the ERT, or the oracle's
// architectural memory image.
func AssertCommittedPath(seq uint64, site string) {
	if Debug && isa.IsWrongPathSeq(seq) {
		panic(fmt.Sprintf("filter: %s: wrong-path op (seq %#x) reached a committed-state structure", site, seq))
	}
}

// MaxEpochs is the widest epoch column set an EpochBitTable supports — the
// width of EpochMask. Engine-count scaling studies run the FMC up to this
// many memory engines.
const MaxEpochs = 128

// EpochMask is a bit-vector over physical epoch banks, one bit per bank up
// to MaxEpochs. The zero value is the empty mask; masks compare with ==.
type EpochMask struct {
	// Lo holds banks 0..63, Hi banks 64..127.
	Lo, Hi uint64
}

// Empty reports whether no epoch bit is set.
func (m EpochMask) Empty() bool { return m.Lo|m.Hi == 0 }

// Has reports whether epoch e's bit is set.
func (m EpochMask) Has(e int) bool {
	if e < 64 {
		return m.Lo&(1<<uint(e)) != 0
	}
	return m.Hi&(1<<uint(e-64)) != 0
}

// Set sets epoch e's bit.
func (m *EpochMask) Set(e int) {
	if e < 64 {
		m.Lo |= 1 << uint(e)
	} else {
		m.Hi |= 1 << uint(e-64)
	}
}

// Clear clears epoch e's bit.
func (m *EpochMask) Clear(e int) {
	if e < 64 {
		m.Lo &^= 1 << uint(e)
	} else {
		m.Hi &^= 1 << uint(e-64)
	}
}

// MaskOf builds the mask with exactly the given epoch bits set.
func MaskOf(epochs ...int) EpochMask {
	var m EpochMask
	for _, e := range epochs {
		m.Set(e)
	}
	return m
}

// EpochBitTable is the ERT core: for every index it keeps one bit per epoch
// for loads and one per epoch for stores. Both ERT variants share it — the
// hash ERT indexes it by HashIndex, the line ERT by the L1 line slot.
//
// Clearing an epoch's two columns on epoch commit/squash is the paper's
// cheap bulk-release mechanism (contrast with the HSQ's per-store counter
// decrements); it is O(entries touched by the epoch) here.
type EpochBitTable struct {
	loads, stores []EpochMask
	touchedLd     [][]int32
	touchedSt     [][]int32
}

// NewEpochBitTable returns a table with the given entry count and epoch
// count (<= MaxEpochs).
func NewEpochBitTable(entries, numEpochs int) *EpochBitTable {
	if entries <= 0 || numEpochs <= 0 || numEpochs > MaxEpochs {
		panic("filter: invalid ERT geometry")
	}
	t := &EpochBitTable{
		loads:     make([]EpochMask, entries),
		stores:    make([]EpochMask, entries),
		touchedLd: make([][]int32, numEpochs),
		touchedSt: make([][]int32, numEpochs),
	}
	return t
}

// SetLoad marks a low-locality load with the given index in epoch e.
func (t *EpochBitTable) SetLoad(idx, e int) {
	if !t.loads[idx].Has(e) {
		t.loads[idx].Set(e)
		t.touchedLd[e] = append(t.touchedLd[e], int32(idx))
	}
}

// SetStore marks a low-locality store with the given index in epoch e.
func (t *EpochBitTable) SetStore(idx, e int) {
	if !t.stores[idx].Has(e) {
		t.stores[idx].Set(e)
		t.touchedSt[e] = append(t.touchedSt[e], int32(idx))
	}
}

// LoadMask returns the epoch bit-vector of loads possibly matching idx.
func (t *EpochBitTable) LoadMask(idx int) EpochMask { return t.loads[idx] }

// StoreMask returns the epoch bit-vector of stores possibly matching idx.
func (t *EpochBitTable) StoreMask(idx int) EpochMask { return t.stores[idx] }

// ClearEpoch releases epoch e's two columns (on epoch commit or squash).
func (t *EpochBitTable) ClearEpoch(e int) {
	for _, idx := range t.touchedLd[e] {
		t.loads[idx].Clear(e)
	}
	t.touchedLd[e] = t.touchedLd[e][:0]
	for _, idx := range t.touchedSt[e] {
		t.stores[idx].Clear(e)
	}
	t.touchedSt[e] = t.touchedSt[e][:0]
}

// EpochsOf lists the epochs set in mask, youngest-first given the caller
// passes the recency order; here it simply extracts set bits ascending.
func EpochsOf(mask EpochMask) []int {
	out := make([]int, 0, bits.OnesCount64(mask.Lo)+bits.OnesCount64(mask.Hi))
	for m := mask.Lo; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros64(m))
	}
	for m := mask.Hi; m != 0; m &= m - 1 {
		out = append(out, 64+bits.TrailingZeros64(m))
	}
	return out
}

// ssbfEntry is one SSBF slot: the youngest committed store that hashed here,
// as a (sequence number, commit cycle) pair written atomically by
// CommitStore. Keeping the commit cycle inside the entry — rather than in a
// parallel table keyed by a second hash computation — guarantees the
// issued-before-commit filter and the matched sequence number always
// describe the same store.
type ssbfEntry struct {
	seq    uint64 // store sequence number + 1 (0 = never written)
	commit int64  // that store's commit cycle
}

// SSBF is the Store Sequence Bloom Filter of SVW (Roth, ISCA 2005): a
// direct-mapped table of the youngest committed store per address hash, each
// entry pairing the store's sequence number with its commit cycle. A load
// whose vulnerability window overlaps the stored sequence number must
// re-execute.
type SSBF struct {
	bitsN   int
	entries []ssbfEntry
}

// NewSSBF returns an SSBF with 2^nbits entries.
func NewSSBF(nbits int) *SSBF {
	if nbits < 1 || nbits > 24 {
		panic("filter: ssbf bits out of range")
	}
	return &SSBF{bitsN: nbits, entries: make([]ssbfEntry, 1<<uint(nbits))}
}

// CommitStore records that the store with sequence number seq to addr
// committed at cycle commit. Sequence numbers are offset by one internally
// so the zero value means "never written".
func (s *SSBF) CommitStore(addr uint64, seq uint64, commit int64) {
	AssertCommittedPath(seq, "ssbf commit-store")
	s.entries[HashIndex(addr, s.bitsN)] = ssbfEntry{seq: seq + 1, commit: commit}
}

// LastStore returns the sequence number and commit cycle of the youngest
// committed store that hashes with addr, and whether any exists.
func (s *SSBF) LastStore(addr uint64) (seq uint64, commit int64, ok bool) {
	e := s.entries[HashIndex(addr, s.bitsN)]
	if e.seq == 0 {
		return 0, 0, false
	}
	return e.seq - 1, e.commit, true
}

// Entries returns the table size.
func (s *SSBF) Entries() int { return len(s.entries) }

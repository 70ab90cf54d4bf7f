package svw

import (
	"testing"

	"repro/internal/config"
	"repro/internal/lsq"
	"repro/internal/stats"
)

func TestNoReexecWithoutStores(t *testing.T) {
	e := New(10, config.SVWBlind, new(stats.Tally))
	ld := &lsq.MemOp{Seq: 1, Addr: 0x100, Size: 8, Issued: 50}
	if e.LoadCommitting(ld) {
		t.Error("load re-executed with empty SSBF")
	}
}

func TestReexecWhenAliasingStoreCommitsAfterIssue(t *testing.T) {
	var ev stats.Tally
	e := New(10, config.SVWBlind, &ev)
	// Store to the same address commits at cycle 100; load issued at 50.
	e.StoreCommitted(0x100, 5, 100)
	ld := &lsq.MemOp{Seq: 9, Addr: 0x100, Size: 8, Issued: 50}
	if !e.LoadCommitting(ld) {
		t.Error("vulnerable load not re-executed")
	}
	if ev[stats.Reexec] != 1 {
		t.Error("reexec not counted")
	}
}

func TestNoReexecWhenStoreVisibleAtIssue(t *testing.T) {
	e := New(10, config.SVWBlind, new(stats.Tally))
	// Store committed at 40, load issued at 50: the load saw it in the
	// cache — not vulnerable.
	e.StoreCommitted(0x100, 5, 40)
	ld := &lsq.MemOp{Seq: 9, Addr: 0x100, Size: 8, Issued: 50}
	if e.LoadCommitting(ld) {
		t.Error("safe load re-executed")
	}
}

func TestCheckStoresFiltersResolvedLoads(t *testing.T) {
	blind := New(10, config.SVWBlind, new(stats.Tally))
	var ev stats.Tally
	check := New(10, config.SVWCheckStores, &ev)
	blind.StoreCommitted(0x200, 5, 100)
	check.StoreCommitted(0x200, 5, 100)
	// Load issued at 50 with NO unresolved older stores: CheckStores
	// (the no-unresolved-store filter) skips the re-execution, Blind pays.
	ld := &lsq.MemOp{Seq: 9, Addr: 0x200, Size: 8, Issued: 50}
	if !blind.LoadCommitting(ld) {
		t.Error("blind variant skipped a vulnerable hash")
	}
	ld2 := *ld
	if check.LoadCommitting(&ld2) {
		t.Error("CheckStores re-executed a fully resolved load")
	}
	if ev[stats.ReexecFiltered] != 1 {
		t.Error("filtered re-execution not counted")
	}
	// With an unresolved older store it must re-execute.
	ld3 := *ld
	ld3.UnresolvedOlderStore = true
	if !check.LoadCommitting(&ld3) {
		t.Error("CheckStores skipped an unresolved-store load")
	}
}

func TestAliasingCausesFalseReexec(t *testing.T) {
	// SSBF aliasing: a store to a different address with the same hash
	// triggers a false re-execution — fewer index bits, more aliasing
	// (the 8/10/12-bit sweep of Figure 10).
	e := New(8, config.SVWBlind, new(stats.Tally))
	a := uint64(0x100)
	b := a + (1 << (8 + 3)) // aliases under 8 bits
	e.StoreCommitted(b, 5, 100)
	ld := &lsq.MemOp{Seq: 9, Addr: a, Size: 8, Issued: 50}
	if !e.LoadCommitting(ld) {
		t.Error("aliased store did not trigger re-execution")
	}
	// Under 12 bits the same pair does not alias.
	e12 := New(12, config.SVWBlind, new(stats.Tally))
	e12.StoreCommitted(b, 5, 100)
	ld2 := &lsq.MemOp{Seq: 9, Addr: a, Size: 8, Issued: 50}
	if e12.LoadCommitting(ld2) {
		t.Error("12-bit SSBF aliased where it should not")
	}
}

// A load that forwarded from the youngest aliasing store is not vulnerable
// to it — the vulnerability window starts strictly after the forwarding
// source. The seq == FwdSeq case is the regression for the off-by-one this
// PR fixes: the committed store IS the forwarding source, so the load's
// value is current and must not spuriously re-execute.
func TestForwardedLoadNotVulnerableToItsSource(t *testing.T) {
	e := New(10, config.SVWBlind, new(stats.Tally))
	e.StoreCommitted(0x40, 7, 100)
	ld := &lsq.MemOp{Seq: 9, Addr: 0x40, Size: 8, Issued: 50, FwdSeq: 7, FwdMask: 0xff}
	if e.LoadCommitting(ld) {
		t.Error("load re-executed against its own forwarding source (seq == FwdSeq)")
	}
	// Forwarding from an even younger store than the committed one is safe
	// too (seq < FwdSeq).
	ld1 := &lsq.MemOp{Seq: 10, Addr: 0x40, Size: 8, Issued: 50, FwdSeq: 8, FwdMask: 0xff}
	if e.LoadCommitting(ld1) {
		t.Error("load re-executed although it forwarded from a younger store")
	}
	// But a YOUNGER aliasing store than the source still triggers it.
	e.StoreCommitted(0x40, 8, 120)
	ld2 := &lsq.MemOp{Seq: 12, Addr: 0x40, Size: 8, Issued: 50, FwdSeq: 7, FwdMask: 0xff}
	if !e.LoadCommitting(ld2) {
		t.Error("load not re-executed against a store younger than its source")
	}
}

// A partial forwarding mask must not unlock the forwarding-window skip: the
// bytes read from the cache are unprotected by the FwdSeq comparison.
func TestPartialForwardMaskStillVulnerable(t *testing.T) {
	e := New(10, config.SVWBlind, new(stats.Tally))
	e.StoreCommitted(0x40, 7, 100)
	ld := &lsq.MemOp{Seq: 9, Addr: 0x40, Size: 8, Issued: 50, FwdSeq: 7, FwdMask: 0x0f}
	if !e.LoadCommitting(ld) {
		t.Error("partially forwarded load skipped re-execution")
	}
}

// A load that re-read the cache after a partial-overlap wait (ReadAt past
// the store's commit) observed the store's bytes and must not re-execute.
func TestReReadAfterStoreCommitNotVulnerable(t *testing.T) {
	e := New(10, config.SVWBlind, new(stats.Tally))
	e.StoreCommitted(0x40, 7, 100)
	ld := &lsq.MemOp{Seq: 9, Addr: 0x40, Size: 8, Issued: 50, ReadAt: 100}
	if e.LoadCommitting(ld) {
		t.Error("load re-executed although its final cache read followed the store's commit")
	}
	// A read strictly before the commit stays vulnerable.
	ld2 := &lsq.MemOp{Seq: 9, Addr: 0x40, Size: 8, Issued: 50, ReadAt: 99}
	if !e.LoadCommitting(ld2) {
		t.Error("stale re-read not re-executed")
	}
}

// The commit cycle used by the issued-before-commit filter must belong to
// the same store as the matched sequence number, even when several stores
// hash into one SSBF entry: the youngest write owns both fields.
func TestEntryPairsSeqWithItsOwnCommitCycle(t *testing.T) {
	e := New(8, config.SVWBlind, new(stats.Tally))
	a := uint64(0x100)
	b := a + (1 << (8 + 3)) // aliases a under 8 bits
	e.StoreCommitted(a, 5, 40)
	e.StoreCommitted(b, 6, 100) // different store, same entry, later commit
	// A load that issued at 50 forwarded from store 6's value? No — it read
	// addr a. Store 5 (commit 40) was visible; the entry now claims seq 6 /
	// commit 100, which is a hash alias: conservative re-execution.
	ld := &lsq.MemOp{Seq: 9, Addr: a, Size: 8, Issued: 50}
	if !e.LoadCommitting(ld) {
		t.Error("aliased younger store with later commit not caught")
	}
	// The youngest write owns both fields: after both stores commit before
	// the load's read, the entry must report the last pair and judge the
	// load safe by that store's commit cycle.
	e2 := New(8, config.SVWBlind, new(stats.Tally))
	e2.StoreCommitted(b, 6, 30)
	e2.StoreCommitted(a, 7, 40)
	ld2 := &lsq.MemOp{Seq: 9, Addr: a, Size: 8, Issued: 50}
	if e2.LoadCommitting(ld2) {
		t.Error("entry mixed an evicted store's commit cycle with the new sequence number")
	}
}

func TestSSBFAccessCounting(t *testing.T) {
	e := New(10, config.SVWCheckStores, new(stats.Tally))
	e.StoreCommitted(0x40, 5, 5)
	ld := &lsq.MemOp{Seq: 3, Addr: 0x40, Size: 8, Issued: 1, UnresolvedOlderStore: true}
	e.LoadCommitting(ld)
	if e.SSBFReads() != 1 || e.SSBFWrites() != 1 {
		t.Errorf("SSBF reads %d, writes %d, want 1 each", e.SSBFReads(), e.SSBFWrites())
	}
	if e.Variant() != config.SVWCheckStores {
		t.Error("variant lost")
	}
}

// Package svw implements the load re-execution baseline of Sections 3.5 and
// 5.6: Store Vulnerability Windows (Roth, ISCA 2005) with a Store Sequence
// Bloom Filter, optionally combined with the no-unresolved-store filter
// (Cain & Lipasti, ISCA 2004) — the paper's "CheckStores" variant versus
// "Blind".
//
// The scheme removes the associative load queue: stores perform no
// violation search; instead a load consults the SSBF when it commits and
// re-executes (an extra data-cache access that also delays younger stores'
// commit) if a store inside its vulnerability window — younger than the
// store it forwarded from, committed after it executed — may alias its
// address.
package svw

import (
	"repro/internal/config"
	"repro/internal/filter"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/stats"
)

// Engine drives SVW re-execution at commit time.
type Engine struct {
	ssbf    *filter.SSBF
	variant config.SVWVariant
	ev      *stats.Tally
}

// New builds an SVW engine with a 2^bits-entry SSBF, counting its
// re-execution decisions into ev.
func New(bits int, variant config.SVWVariant, ev *stats.Tally) *Engine {
	return &Engine{ssbf: filter.NewSSBF(bits), variant: variant, ev: ev}
}

// Variant returns the configured filtering variant.
func (e *Engine) Variant() config.SVWVariant { return e.variant }

// SSBFReads returns the filter's read (vulnerability-test) count; the
// energy model prices reads and writes separately.
func (e *Engine) SSBFReads() uint64 { return e.ssbf.Reads }

// SSBFWrites returns the filter's write (store-commit update) count.
func (e *Engine) SSBFWrites() uint64 { return e.ssbf.Writes }

// StoreCommitted records a store's commit: its program-order sequence
// number and commit cycle are written into its SSBF entry atomically, so
// the vulnerability test always compares a single store's sequence number
// against that same store's commit cycle.
func (e *Engine) StoreCommitted(addr uint64, seq uint64, commitCycle int64) {
	e.ssbf.CommitStore(addr, seq, commitCycle)
}

// LoadCommitting decides whether the committing load must re-execute. The
// SSBF holds the youngest committed store that may alias the load's
// address; the load is vulnerable if that store committed after the load
// last read the data cache AND is strictly younger than the load's
// forwarding source. A load that forwarded from the youngest aliasing
// committed store (seq == FwdSeq) already holds that store's value — its
// window starts strictly after FwdSeq — and a load that re-read the cache
// at ReadAt (partial-overlap wait) observed every store committed by then.
// The CheckStores variant additionally skips loads that issued with no
// older address-unresolved store in flight — such loads saw every relevant
// address and cannot have been wrong.
func (e *Engine) LoadCommitting(ld *lsq.MemOp) bool {
	filter.AssertIndexable(ld.Addr, ld.Size, "svw load commit")
	filter.AssertCommittedPath(ld.Seq, "svw load commit")
	seq, commit, ok := e.ssbf.LastStore(ld.Addr)
	if !ok {
		return false
	}
	visibleAt := ld.Issued
	if ld.ReadAt > visibleAt {
		visibleAt = ld.ReadAt
	}
	if commit <= visibleAt {
		return false // the aliasing store was already visible at the read
	}
	// The forwarding-window skip is sound only for fully forwarded loads: a
	// partial mask would leave cache-read bytes unprotected by the FwdSeq
	// comparison.
	if ld.FwdMask == isa.FullMask(ld.Size) && seq <= ld.FwdSeq {
		return false // forwarded from that store: value is current
	}
	if e.variant == config.SVWCheckStores && !ld.UnresolvedOlderStore {
		e.ev[stats.ReexecFiltered]++
		return false
	}
	e.ev[stats.Reexec]++
	return true
}

package lsq

import (
	"repro/internal/noc"
	"repro/internal/stats"
)

// Central is the idealised unlimited-size, single-cycle centralized LSQ of
// Section 5.3, located in the Cache Processor. Loads executing in the Memory
// Processor pay the CP<->MP round-trip for every search; the queue itself
// never filters, stalls, or overflows.
type Central struct {
	fab noc.Fabric
	ev  *stats.Tally
}

// NewCentral builds the idealised queue over the given interconnect fabric
// (searches from the Memory Processor pay its CP<->MP round trip), counting
// its searches into ev.
func NewCentral(fab noc.Fabric, ev *stats.Tally) *Central {
	return &Central{fab: fab, ev: ev}
}

// Name implements Scheme.
func (s *Central) Name() string { return "central" }

// LoadIssue implements Scheme: one single-cycle search of the whole window;
// MP-resident loads pay a bus round trip.
func (s *Central) LoadIssue(ld *MemOp, ix *StoreIndex, t int64) LoadResult {
	s.ev[stats.HLSQ]++ // the central queue is counted as the HL structure
	var extra int64
	if ld.LowLoc {
		extra = s.fab.BusRoundTrip(t) - t
		s.ev[stats.RoundTrip]++
	}
	match, _ := FindForward(ld, ix.Candidates(ld, t), t)
	res := Resolve(ld, match, t+extra)
	res.ExtraLatency = extra
	return res
}

// StoreAddrReady implements Scheme.
func (s *Central) StoreAddrReady(st *MemOp, younger []*MemOp, t int64) StoreResult {
	s.ev[stats.HLLQ]++
	if st.LowLoc {
		s.ev[stats.RoundTrip]++
	}
	if ld := FindViolation(st, younger, t); ld != nil {
		return StoreResult{Violation: true, ViolatingLoad: ld}
	}
	return StoreResult{}
}

// Migrate implements Scheme (no structure to maintain).
func (s *Central) Migrate(op *MemOp, t int64) int64 { return 0 }

// AddrKnownInLL implements Scheme.
func (s *Central) AddrKnownInLL(op *MemOp, t int64) bool { return false }

// EpochCommitted implements Scheme.
func (s *Central) EpochCommitted(epoch int, t int64) {}

// EpochSquashed implements Scheme.
func (s *Central) EpochSquashed(epoch int) {}

// Conventional is the finite age-indexed CAM LSQ of the OoO-64 baseline:
// every load searches the store queue, every store searches the load queue,
// both at single-cycle latency. Capacity back-pressure is enforced by the
// pipeline model from the configured queue sizes. With NoLQ set the load
// queue is removed (OoO-64-SVW): stores skip their violation search and
// loads are checked by re-execution instead.
type Conventional struct {
	// NoLQ removes the associative load queue (SVW composition).
	NoLQ bool
	ev   *stats.Tally
}

// NewConventional builds the OoO-64 queue model, counting its searches
// into ev.
func NewConventional(noLQ bool, ev *stats.Tally) *Conventional {
	return &Conventional{NoLQ: noLQ, ev: ev}
}

// Name implements Scheme.
func (s *Conventional) Name() string {
	if s.NoLQ {
		return "conventional-svw"
	}
	return "conventional"
}

// LoadIssue implements Scheme.
func (s *Conventional) LoadIssue(ld *MemOp, ix *StoreIndex, t int64) LoadResult {
	s.ev[stats.HLSQ]++
	match, _ := FindForward(ld, ix.Candidates(ld, t), t)
	return Resolve(ld, match, t)
}

// StoreAddrReady implements Scheme.
func (s *Conventional) StoreAddrReady(st *MemOp, younger []*MemOp, t int64) StoreResult {
	if s.NoLQ {
		return StoreResult{} // violations caught by commit-time re-execution
	}
	s.ev[stats.HLLQ]++
	if ld := FindViolation(st, younger, t); ld != nil {
		return StoreResult{Violation: true, ViolatingLoad: ld}
	}
	return StoreResult{}
}

// Migrate implements Scheme.
func (s *Conventional) Migrate(op *MemOp, t int64) int64 { return 0 }

// AddrKnownInLL implements Scheme.
func (s *Conventional) AddrKnownInLL(op *MemOp, t int64) bool { return false }

// EpochCommitted implements Scheme.
func (s *Conventional) EpochCommitted(epoch int, t int64) {}

// EpochSquashed implements Scheme.
func (s *Conventional) EpochSquashed(epoch int) {}

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

// LoadIssue implements Scheme: one single-cycle search of the whole window;
// MP-resident loads pay a bus round trip.
func (s *Central) LoadIssue(ld *MemOp, ix *StoreIndex, t int64) LoadResult {
	s.ev[stats.HLSQ]++ // the central queue is counted as the HL structure
	var extra int64
	if ld.LowLoc {
		extra = s.fab.BusRoundTrip(t) - t
		s.ev[stats.RoundTrip]++
	}
	res := Resolve(ld, FindForward(ld, ix.Candidates(ld, t), t), t+extra)
	res.ExtraLatency = extra
	return res
}

// StoreAddrReady implements Scheme: one search of the central queue, plus
// a counted CP<->MP round trip for an MP-resident store.
func (s *Central) StoreAddrReady(st *MemOp, t int64) {
	s.ev[stats.HLLQ]++
	if st.LowLoc {
		s.ev[stats.RoundTrip]++
	}
}

// Migrate implements Scheme (no structure to maintain).
func (s *Central) Migrate(op *MemOp, t int64) int64 { return 0 }

// AddrKnownInLL implements Scheme.
func (s *Central) AddrKnownInLL(op *MemOp, t int64) bool { return false }

// EpochCommitted implements Scheme.
func (s *Central) EpochCommitted(epoch int, t int64) {}

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

// LoadIssue implements Scheme.
func (s *Conventional) LoadIssue(ld *MemOp, ix *StoreIndex, t int64) LoadResult {
	s.ev[stats.HLSQ]++
	return Resolve(ld, FindForward(ld, ix.Candidates(ld, t), t), t)
}

// StoreAddrReady implements Scheme: one load-queue search, none without a
// load queue (commit-time re-execution catches violations instead).
func (s *Conventional) StoreAddrReady(st *MemOp, t int64) {
	if !s.NoLQ {
		s.ev[stats.HLLQ]++
	}
}

// Migrate implements Scheme.
func (s *Conventional) Migrate(op *MemOp, t int64) int64 { return 0 }

// AddrKnownInLL implements Scheme.
func (s *Conventional) AddrKnownInLL(op *MemOp, t int64) bool { return false }

// EpochCommitted implements Scheme.
func (s *Conventional) EpochCommitted(epoch int, t int64) {}

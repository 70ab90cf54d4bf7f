package lsq

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func st(seq uint64, addr uint64, size uint8, addrReady, dataReady, commit int64) *MemOp {
	return &MemOp{Seq: seq, Store: true, Addr: addr, Size: size,
		AddrReady: addrReady, DataReady: dataReady, Commit: commit}
}

func ld(seq uint64, addr uint64, size uint8) *MemOp {
	return &MemOp{Seq: seq, Addr: addr, Size: size}
}

func TestInFlightAt(t *testing.T) {
	op := &MemOp{}
	if !op.InFlightAt(100) {
		t.Error("uncommitted op not in flight")
	}
	op.Commit = 50
	if op.InFlightAt(50) || op.InFlightAt(60) {
		t.Error("committed op still in flight")
	}
	if !op.InFlightAt(49) {
		t.Error("op not in flight before commit")
	}
}

func TestCovers(t *testing.T) {
	s := st(1, 100, 8, 0, 0, 0)
	if !s.Covers(ld(2, 100, 8)) || !s.Covers(ld(2, 104, 4)) {
		t.Error("full coverage not detected")
	}
	if s.Covers(ld(2, 104, 8)) {
		t.Error("partial overlap treated as covering")
	}
}

func TestFindForwardYoungestWins(t *testing.T) {
	l := ld(10, 100, 8)
	older := []*MemOp{
		st(1, 100, 8, 5, 5, 0),
		st(2, 200, 8, 5, 5, 0), // different address
		st(3, 100, 8, 6, 9, 0), // youngest match
	}
	m := FindForward(l, older, 50)
	if m == nil || m.Seq != 3 {
		t.Fatalf("match = %+v, want seq 3", m)
	}
}

func TestFindForwardSkipsCommittedAndUnknown(t *testing.T) {
	l := ld(10, 100, 8)
	older := []*MemOp{
		st(1, 100, 8, 5, 5, 40),  // committed before t=50
		st(2, 100, 8, 90, 90, 0), // address unknown at t=50
	}
	if m := FindForward(l, older, 50); m != nil {
		t.Errorf("matched ineligible store %+v", m)
	}
}

func TestResolve(t *testing.T) {
	l := ld(9, 100, 8)
	if r := Resolve(l, nil, 10); r.Forwarded || r.Partial {
		t.Error("nil match resolved to something")
	}
	full := st(1, 100, 8, 0, 30, 0)
	r := Resolve(l, full, 10)
	if !r.Forwarded || r.DataAvailable != 30 {
		t.Errorf("full forward = %+v", r)
	}
	r = Resolve(l, full, 60)
	if r.DataAvailable != 60 {
		t.Errorf("search completion must floor availability: %+v", r)
	}
	partial := st(2, 104, 4, 0, 0, 0)
	r = Resolve(l, partial, 10)
	if !r.Partial || r.PartialStore != partial {
		t.Errorf("partial case = %+v", r)
	}
}

func TestStoreIndexCandidates(t *testing.T) {
	ix := NewStoreIndex()
	ix.Add(st(1, 100, 8, 5, 5, 0))
	ix.Add(st(2, 100, 8, 90, 90, 0)) // unresolved at t=50
	ix.Add(st(3, 200, 8, 5, 5, 0))
	l := ld(10, 100, 8)
	c := ix.Candidates(l, 50)
	if len(c) != 1 || c[0].Seq != 1 {
		t.Fatalf("Candidates = %v", c)
	}
	oracle := ix.CandidatesOracle(l, 50)
	if len(oracle) != 2 {
		t.Fatalf("Oracle = %v", oracle)
	}
	// Loads only match older stores.
	young := ld(0, 100, 8)
	if len(ix.Candidates(young, 50)) != 0 {
		t.Error("younger store matched older load")
	}
}

func TestStoreIndexUnresolved(t *testing.T) {
	ix := NewStoreIndex()
	// A store whose address resolves long after dispatch.
	late := &MemOp{Seq: 1, Store: true, Addr: 0x500, Size: 8, Dispatch: 0, AddrReady: 400}
	ix.Add(late)
	l := ld(10, 0x900, 8)
	if !ix.Unresolved(l, 100) {
		t.Error("late-address store not seen as unresolved")
	}
	if ix.Unresolved(l, 500) {
		t.Error("resolved store still flagged")
	}
	// Younger stores never make an older load unresolved... (seq order)
	older := ld(0, 0x900, 8)
	if ix.Unresolved(older, 100) {
		t.Error("younger store flagged for older load")
	}
}

func TestStoreIndexAddPanicsOnLoad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(load) did not panic")
		}
	}()
	NewStoreIndex().Add(ld(1, 100, 8))
}

// The queries stop at the first store committed by the query cycle, which
// is sound only in commit order, so Add must refuse any other order.
func TestStoreIndexAddPanicsOutOfCommitOrder(t *testing.T) {
	for _, c := range []struct {
		name          string
		first, second int64
	}{
		{"earlier commit", 20, 10},
		{"commit after an uncommitted store", 0, 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			ix := NewStoreIndex()
			ix.Add(st(1, 100, 8, 5, 5, c.first))
			defer func() {
				if recover() == nil {
					t.Errorf("Add accepted commit %d after commit %d", c.second, c.first)
				}
			}()
			ix.Add(st(2, 200, 8, 5, 5, c.second))
		})
	}
}

func TestStoreIndexCompaction(t *testing.T) {
	ix := NewStoreIndex()
	// Far more adds than the retirement horizon, one per cycle, every
	// other one late-address. A store retires once its commit falls 2^14
	// cycles behind the youngest dispatch, so exactly the stores committed
	// after that stay chained, and the late ones among them in lateAddr.
	const n = 100000
	horizon := int64(n-1) - retireHorizon
	wantLive, wantLate := 0, 0
	for i := 0; i < n; i++ {
		s := st(uint64(i), uint64(i*8)%4096, 8, int64(i+i%2*20), int64(i), int64(i+21))
		s.Dispatch = int64(i)
		ix.Add(s)
		if s.Commit > horizon {
			wantLive++
			wantLate += i % 2
		}
	}
	live := 0
	for _, v := range ix.buckets {
		for st := v; st != nil; st = st.blockNext {
			live++
		}
	}
	if late := len(ix.lateAddr) - ix.lateHead; live != wantLive || late != wantLate || len(ix.freeOps) != n-wantLive {
		t.Errorf("index chains %d stores (%d late) and pools %d, want %d (%d late) and %d",
			live, late, len(ix.freeOps), wantLive, wantLate, n-wantLive)
	}
}

// Property: every query answers what brute force over the stores Added so
// far answers, on commit-ordered streams that cover recycled records
// aliasing ring slots, late-address stores, uncommitted tails and
// retirement.
func TestStoreIndexCandidatesProperty(t *testing.T) {
	var cov streamCoverage
	for seed := uint64(1); seed <= 40; seed++ {
		s := newStoreStream()
		s.run(t, &rngSource{rng: xrand.New(seed), steps: 3000})
		cov.aliased += s.cov.aliased
		cov.late += s.cov.late
		cov.tailQueries += s.cov.tailQueries
		cov.retired += s.cov.retired
	}
	if cov.aliased == 0 || cov.late == 0 || cov.tailQueries == 0 || cov.retired == 0 {
		t.Errorf("streams missed a path: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}

func TestCentralScheme(t *testing.T) {
	var ev stats.Tally
	s := NewCentral(noc.NewAnalytic(4, 4, 1, 4), &ev)
	ix := NewStoreIndex()
	ix.Add(st(1, 100, 8, 5, 8, 0))
	// High-locality load: no round trip, single-cycle search.
	l := ld(10, 100, 8)
	r := s.LoadIssue(l, ix, 50)
	if !r.Forwarded || r.ExtraLatency != 0 {
		t.Errorf("HL central result = %+v", r)
	}
	// MP-resident load pays the round trip.
	l2 := ld(11, 100, 8)
	l2.LowLoc = true
	r = s.LoadIssue(l2, ix, 50)
	if r.ExtraLatency != 8 {
		t.Errorf("LL central extra = %d, want 8", r.ExtraLatency)
	}
	if ev[stats.RoundTrip] != 1 {
		t.Error("roundtrip not counted")
	}
	if ev[stats.HLSQ] != 2 {
		t.Error("searches not counted")
	}
	// No-op hooks must not blow up.
	if s.Migrate(l2, 1) != 0 || s.AddrKnownInLL(l2, 1) {
		t.Error("central structural hooks not inert")
	}
	s.EpochCommitted(1, 5)
}

func TestConventionalScheme(t *testing.T) {
	var ev, nolqEv stats.Tally
	s := NewConventional(false, &ev)
	stv := st(5, 100, 8, 60, 60, 0)
	s.StoreAddrReady(stv, 60)
	if ev[stats.HLLQ] != 1 {
		t.Error("LQ search not counted")
	}
	// The SVW composition removes the load queue.
	nolq := NewConventional(true, &nolqEv)
	nolq.StoreAddrReady(stv, 60)
	if nolqEv[stats.HLLQ] != 0 {
		t.Error("NoLQ counted an LQ search")
	}
}

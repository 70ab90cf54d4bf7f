package lsq

import (
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/stats"
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
	m, unresolved := FindForward(l, older, 50)
	if m == nil || m.Seq != 3 {
		t.Fatalf("match = %+v, want seq 3", m)
	}
	if unresolved {
		t.Error("unresolved flagged with all addresses known")
	}
}

func TestFindForwardSkipsCommittedAndUnknown(t *testing.T) {
	l := ld(10, 100, 8)
	older := []*MemOp{
		st(1, 100, 8, 5, 5, 40),  // committed before t=50
		st(2, 100, 8, 90, 90, 0), // address unknown at t=50
	}
	m, unresolved := FindForward(l, older, 50)
	if m != nil {
		t.Errorf("matched ineligible store %+v", m)
	}
	if !unresolved {
		t.Error("unknown-address store not flagged")
	}
}

func TestFindViolation(t *testing.T) {
	s := st(5, 100, 8, 60, 60, 0)
	younger := []*MemOp{
		{Seq: 7, Addr: 100, Size: 8, Issued: 30}, // issued before store resolved
		{Seq: 8, Addr: 100, Size: 8, Issued: 70}, // issued after: safe
	}
	v := FindViolation(s, younger, 60)
	if v == nil || v.Seq != 7 {
		t.Fatalf("violation = %+v, want seq 7", v)
	}
	if FindViolation(s, younger[1:], 60) != nil {
		t.Error("late-issuing load flagged")
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

func TestStoreIndexCompaction(t *testing.T) {
	ix := NewStoreIndex()
	// Far more adds than the compaction period, all long-committed. The
	// compactor keeps a 2^14-cycle safety margin behind the youngest
	// dispatch, so only entries older than that are dropped.
	for i := 0; i < 100000; i++ {
		s := st(uint64(i), uint64(i*8)%4096, 8, int64(i), int64(i), int64(i+1))
		s.Dispatch = int64(i)
		ix.Add(s)
	}
	total := 0
	for _, v := range ix.buckets {
		for st := v; st != nil; st = st.blockNext {
			total++
		}
	}
	if total > 40000 {
		t.Errorf("index retained %d entries after compaction", total)
	}
}

// Property: Candidates returns exactly the in-flight, overlapping,
// resolved, older stores.
func TestStoreIndexCandidatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		ix := NewStoreIndex()
		var all []*MemOp
		x := uint64(seed)
		next := func(n uint64) uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x % n
		}
		for i := 0; i < 100; i++ {
			s := st(uint64(i), 0x1000+next(64)*8, 8, int64(next(100)), 0, int64(next(200)))
			ix.Add(s)
			all = append(all, s)
		}
		l := ld(50, 0x1000+next(64)*8, 8)
		tq := int64(next(200))
		got := map[uint64]bool{}
		for _, c := range ix.Candidates(l, tq) {
			got[c.Seq] = true
		}
		for _, s := range all {
			want := s.Seq < l.Seq && s.InFlightAt(tq) && s.AddrReady <= tq && s.Overlaps(l)
			if got[s.Seq] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCentralScheme(t *testing.T) {
	var ev stats.Tally
	s := NewCentral(noc.NewAnalytic(4, 4, 1, 4), &ev)
	if s.Name() != "central" {
		t.Error("name wrong")
	}
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
	s.EpochSquashed(1)
}

func TestConventionalScheme(t *testing.T) {
	var ev, nolqEv stats.Tally
	s := NewConventional(false, &ev)
	ix := NewStoreIndex()
	stv := st(5, 100, 8, 60, 60, 0)
	ix.Add(stv)
	viol := []*MemOp{{Seq: 7, Addr: 100, Size: 8, Issued: 30}}
	r := s.StoreAddrReady(stv, viol, 60)
	if !r.Violation || r.ViolatingLoad.Seq != 7 {
		t.Errorf("violation missed: %+v", r)
	}
	if ev[stats.HLLQ] != 1 {
		t.Error("LQ search not counted")
	}
	// The SVW composition removes the load queue.
	nolq := NewConventional(true, &nolqEv)
	if nolq.Name() != "conventional-svw" {
		t.Error("name wrong")
	}
	r = nolq.StoreAddrReady(stv, viol, 60)
	if r.Violation {
		t.Error("NoLQ scheme performed a violation search")
	}
	if nolqEv[stats.HLLQ] != 0 {
		t.Error("NoLQ counted an LQ search")
	}
}

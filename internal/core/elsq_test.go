package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/filter"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/mem"
	"repro/internal/noc"
)

// rig bundles an ELSQ with its substrate for testing.
type rig struct {
	e   *ELSQ
	l1  *mem.Cache
	cfg config.Config
}

func newRig(t *testing.T, mut func(*config.Config)) *rig {
	t.Helper()
	cfg := config.Default()
	if mut != nil {
		mut(&cfg)
	}
	l1 := mem.NewCache(cfg.L1)
	fab := noc.NewAnalytic(4, 4, cfg.MeshHop, cfg.BusOneWay)
	return &rig{e: New(&cfg, fab, l1, nil), l1: l1, cfg: cfg}
}

func mkStore(seq uint64, addr uint64, addrReady, dataReady int64) *lsq.MemOp {
	return &lsq.MemOp{Seq: seq, Store: true, Addr: addr, Size: 8,
		AddrReady: addrReady, DataReady: dataReady, Epoch: lsq.HLEpoch}
}

func mkLoad(seq uint64, addr uint64) *lsq.MemOp {
	return &lsq.MemOp{Seq: seq, Addr: addr, Size: 8, Epoch: lsq.HLEpoch}
}

// migrate places a store in a virtual epoch at time t.
func (r *rig) migrateStore(st *lsq.MemOp, epoch int, t int64) {
	st.Epoch = epoch
	st.MigrateAt = t
	r.e.Migrate(st, t)
}

func TestHLLocalForwardingNoERT(t *testing.T) {
	r := newRig(t, nil)
	ix := lsq.NewStoreIndex()
	st := mkStore(1, 0x100, 5, 6)
	ix.Add(st)
	res := r.e.LoadIssue(mkLoad(9, 0x100), ix, 50)
	if !res.Forwarded || res.ExtraLatency != 0 {
		t.Fatalf("HL-HL forwarding = %+v", res)
	}
	c := r.e.Counters()
	if c.Get("hl_sq") != 1 {
		t.Error("HL-SQ search not counted")
	}
	if c.Get("ert") != 0 {
		t.Error("local hit still accessed the ERT")
	}
}

func TestGlobalForwardingThroughSQM(t *testing.T) {
	r := newRig(t, nil) // SQM on by default
	ix := lsq.NewStoreIndex()
	st := mkStore(1, 0x100, 5, 6)
	ix.Add(st)
	r.migrateStore(st, 0, 10)
	res := r.e.LoadIssue(mkLoad(9, 0x100), ix, 50)
	if !res.Forwarded {
		t.Fatalf("global forwarding failed: %+v", res)
	}
	// SQM: 1 cycle to reach the mirror + 1 per epoch searched; no trip.
	if res.ExtraLatency != 2 {
		t.Errorf("SQM extra = %d, want 2", res.ExtraLatency)
	}
	c := r.e.Counters()
	if c.Get("sqm_search") != 1 || c.Get("roundtrip") != 0 {
		t.Errorf("SQM accounting wrong: sqm=%d rt=%d", c.Get("sqm_search"), c.Get("roundtrip"))
	}
	if c.Get("ert") != 1 || c.Get("ll_forward_global") != 1 {
		t.Error("global path accounting wrong")
	}
}

func TestGlobalForwardingWithoutSQMPaysRoundTrip(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.SQM = false })
	ix := lsq.NewStoreIndex()
	st := mkStore(1, 0x100, 5, 6)
	ix.Add(st)
	r.migrateStore(st, 0, 10)
	res := r.e.LoadIssue(mkLoad(9, 0x100), ix, 50)
	if !res.Forwarded {
		t.Fatalf("global forwarding failed: %+v", res)
	}
	// Bus round trip (2x4) plus one epoch search.
	if res.ExtraLatency != 9 {
		t.Errorf("no-SQM extra = %d, want 9", res.ExtraLatency)
	}
	if r.e.Counters().Get("roundtrip") != 1 {
		t.Error("round trip not counted")
	}
}

func TestERTFalsePositive(t *testing.T) {
	r := newRig(t, nil)
	ix := lsq.NewStoreIndex()
	st := mkStore(1, 0x100, 5, 6)
	ix.Add(st)
	r.migrateStore(st, 0, 10)
	// A load whose address hashes with the store's (same 10-bit index,
	// different 8-byte block => no overlap) triggers a useless search.
	alias := 0x100 + uint64(1)<<(10+3)
	res := r.e.LoadIssue(mkLoad(9, alias), ix, 50)
	if res.Forwarded {
		t.Fatal("aliased load forwarded")
	}
	if r.e.Counters().Get("ert_false_positive") != 1 {
		t.Error("false positive not counted")
	}
}

func TestLLLocalForwarding(t *testing.T) {
	r := newRig(t, nil)
	ix := lsq.NewStoreIndex()
	st := mkStore(1, 0x100, 5, 6)
	ix.Add(st)
	r.migrateStore(st, 3, 10)
	// A low-locality load in the same epoch forwards locally: no ERT.
	ld := mkLoad(9, 0x100)
	ld.Epoch = 3
	ld.MigrateAt = 12
	ld.LowLoc = true
	res := r.e.LoadIssue(ld, ix, 50)
	if !res.Forwarded || res.ExtraLatency != 0 {
		t.Fatalf("local epoch forwarding = %+v", res)
	}
	c := r.e.Counters()
	if c.Get("ll_forward_local") != 1 || c.Get("ert") != 0 {
		t.Error("local forwarding accounting wrong")
	}
}

func TestLLLoadOnlySearchesOlderEpochs(t *testing.T) {
	r := newRig(t, nil)
	ix := lsq.NewStoreIndex()
	// Store in epoch 5 (younger) must NOT forward to a load in epoch 3.
	st := mkStore(10, 0x100, 5, 6)
	ix.Add(st)
	r.migrateStore(st, 5, 10)
	ld := mkLoad(3, 0x100) // older seq
	ld.Epoch = 3
	ld.LowLoc = true
	r.e.Migrate(ld, 8)
	res := r.e.LoadIssue(ld, ix, 50)
	if res.Forwarded {
		t.Fatal("load forwarded from a younger epoch's store")
	}
}

func TestEpochCommitHidesState(t *testing.T) {
	r := newRig(t, nil)
	ix := lsq.NewStoreIndex()
	st := mkStore(1, 0x100, 5, 6)
	st.Commit = 100
	ix.Add(st)
	r.migrateStore(st, 0, 10)
	r.e.EpochCommitted(0, 100)
	// After the epoch committed (t=100), its bits are invisible: the load
	// searches nothing and there is no false positive either.
	res := r.e.LoadIssue(mkLoad(9, 0x100), ix, 150)
	if res.Forwarded {
		t.Fatal("forwarded from a committed epoch")
	}
	if r.e.Counters().Get("ll_sq") != 1 { // only the insertion, no search
		t.Errorf("ll_sq = %d, want 1 (insertion only)", r.e.Counters().Get("ll_sq"))
	}
	// Before t=100 the state is still live.
	st2 := mkStore(2, 0x200, 5, 6)
	ix.Add(st2)
	r.migrateStore(st2, 1, 12)
	r.e.EpochCommitted(1, 500)
	res = r.e.LoadIssue(mkLoad(9, 0x200), ix, 60)
	if !res.Forwarded {
		t.Fatal("live epoch state not searchable")
	}
}

func TestBankReclaimClearsBits(t *testing.T) {
	r := newRig(t, nil)
	ix := lsq.NewStoreIndex()
	st := mkStore(1, 0x100, 5, 6)
	st.Commit = 100
	ix.Add(st)
	r.migrateStore(st, 0, 10)
	r.e.EpochCommitted(0, 100)
	// Virtual epoch 16 reuses bank 0 and must find it clean.
	st2 := mkStore(50, 0x300, 5, 6)
	ix.Add(st2)
	r.migrateStore(st2, 16, 200)
	res := r.e.LoadIssue(mkLoad(99, 0x100), ix, 250)
	if res.Forwarded {
		t.Fatal("stale bits survived bank reclaim")
	}
}

func TestEpochSquashClearsImmediately(t *testing.T) {
	r := newRig(t, nil)
	ix := lsq.NewStoreIndex()
	st := mkStore(1, 0x100, 5, 6)
	ix.Add(st)
	r.migrateStore(st, 0, 10)
	r.e.EpochSquashed(0)
	res := r.e.LoadIssue(mkLoad(9, 0x100), ix, 50)
	if res.Forwarded {
		t.Fatal("squashed epoch still forwarded")
	}
}

func TestLineERTLocksLines(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.ERT = config.ERTLine })
	ix := lsq.NewStoreIndex()
	st := mkStore(1, 0x100, 5, 6)
	ix.Add(st)
	r.migrateStore(st, 0, 10)
	slot, hit := r.l1.Lookup(0x100)
	if !hit {
		t.Fatal("line-ERT insertion did not allocate the L1 line")
	}
	if !r.l1.Locked(slot) {
		t.Fatal("line not locked")
	}
	// Forwarding works through the line index.
	res := r.e.LoadIssue(mkLoad(9, 0x100), ix, 50)
	if !res.Forwarded {
		t.Fatal("line-ERT forwarding failed")
	}
	// Commit unlocks.
	r.e.EpochCommitted(0, 100)
	if r.l1.Locked(slot) {
		t.Error("line still locked after epoch commit")
	}
}

func TestLineERTAbsentLineMeansNoSearch(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.ERT = config.ERTLine })
	ix := lsq.NewStoreIndex()
	// No store inserted: a load to an uncached address can have no ERT
	// state and must not search.
	res := r.e.LoadIssue(mkLoad(9, 0x5000), ix, 50)
	if res.Forwarded || res.ExtraLatency != 0 {
		t.Errorf("absent line produced work: %+v", res)
	}
}

func TestLineERTLockOverflow(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.ERT = config.ERTLine
		// Tiny direct-mapped L1: one way per set => any second line in a
		// set cannot be locked.
		c.L1 = config.CacheConfig{SizeBytes: 128, Ways: 1, LineBytes: 32, LatencyCycles: 1}
	})
	ix := lsq.NewStoreIndex()
	st1 := mkStore(1, 0x000, 5, 6)
	ix.Add(st1)
	r.migrateStore(st1, 0, 10)
	// Same set (4 sets => 0x80 maps to set 0), insertion from HL: stalls.
	st2 := mkStore(2, 0x080, 5, 6)
	st2.Epoch = 0
	st2.MigrateAt = 12
	stall := r.e.Migrate(st2, 12)
	if stall == 0 {
		t.Error("lock overflow on HL insertion did not stall")
	}
	// LL-issued address resolution in the same situation squashes.
	st3 := mkStore(3, 0x100, 80, 80)
	st3.Epoch = 0
	st3.MigrateAt = 14
	r.e.Migrate(st3, 14) // address unknown yet
	if !r.e.AddrKnownInLL(st3, 80) {
		// Depending on prior forced unlocks the set may have space; accept
		// either squash or success but require the counter to move on
		// squash.
		if r.e.Counters().Get("ert_lock_squash") == 0 &&
			r.e.Counters().Get("ert_lock_stall") == 0 {
			t.Error("no lock-pressure event recorded")
		}
	}
}

func TestRSACRemovesLoadERT(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.Disamb = config.DisambRSAC })
	// Migrate a load: under RSAC no Load-ERT exists, so a later LL store
	// (which cannot exist under RSAC anyway) has nothing to search; we
	// assert the insertion does not set load bits by checking an LL store
	// search performs no ll_lq epoch searches.
	ldop := mkLoad(1, 0x100)
	ldop.Epoch = 0
	ldop.MigrateAt = 10
	ldop.LowLoc = true
	r.e.Migrate(ldop, 10)
	st := mkStore(5, 0x100, 60, 60)
	st.Epoch = 1
	st.MigrateAt = 20
	res := r.e.StoreAddrReady(st, nil, 60)
	if res.Violation {
		t.Error("violation from empty younger set")
	}
	// ll_lq: 1 insertion (the load) + 1 local search; no ERT-guided
	// remote searches because the Load-ERT was never populated.
	if got := r.e.Counters().Get("ll_lq"); got != 2 {
		t.Errorf("ll_lq = %d, want 2 (insert + local search)", got)
	}
}

func TestStoreAddrReadyCountsHL(t *testing.T) {
	r := newRig(t, nil)
	st := mkStore(5, 0x100, 60, 60)
	res := r.e.StoreAddrReady(st, []*lsq.MemOp{{Seq: 7, Addr: 0x100, Size: 8, Issued: 30}}, 60)
	if !res.Violation {
		t.Error("HL violation not detected")
	}
	if r.e.Counters().Get("hl_lq") != 1 {
		t.Error("HL-LQ search not counted")
	}
}

func TestWithoutLoadQueue(t *testing.T) {
	cfg := config.Default()
	l1 := mem.NewCache(cfg.L1)
	e := New(&cfg, noc.NewAnalytic(4, 4, 1, 4), l1, nil, WithoutLoadQueue())
	st := mkStore(5, 0x100, 60, 60)
	res := e.StoreAddrReady(st, []*lsq.MemOp{{Seq: 7, Addr: 0x100, Size: 8, Issued: 30}}, 60)
	if res.Violation {
		t.Error("NoLQ ELSQ performed a violation search")
	}
	if e.Counters().Get("hl_lq") != 0 {
		t.Error("NoLQ ELSQ counted an LQ search")
	}
}

func TestName(t *testing.T) {
	r := newRig(t, nil)
	if r.e.Name() != "FMC-Hash+SQM" {
		t.Errorf("Name = %q", r.e.Name())
	}
}

func TestMigrationInsertionCounts(t *testing.T) {
	r := newRig(t, nil)
	st := mkStore(1, 0x100, 5, 6)
	r.migrateStore(st, 0, 10)
	ldop := mkLoad(2, 0x200)
	ldop.Epoch = 0
	ldop.MigrateAt = 11
	ldop.LowLoc = true
	r.e.Migrate(ldop, 11)
	c := r.e.Counters()
	if c.Get("ll_sq") != 1 || c.Get("ll_lq") != 1 {
		t.Errorf("insertion counts: ll_sq=%d ll_lq=%d, want 1/1",
			c.Get("ll_sq"), c.Get("ll_lq"))
	}
	if c.Get("sqm_update") != 1 {
		t.Error("SQM update not counted for migrated store")
	}
}

// Cross-level age arbitration: a younger migrated store must beat an older
// store still buffering in the HL-SQ — the level-1-first search returning
// the HL hit would forward stale data (the latent bug the differential
// oracle flags).
func TestYoungerLLStoreBeatsOlderHLMatch(t *testing.T) {
	r := newRig(t, nil)
	ix := lsq.NewStoreIndex()
	hl := mkStore(1, 0x100, 5, 6) // dispatched while the MP was idle, never migrates
	ix.Add(hl)
	llSt := mkStore(5, 0x100, 7, 8)
	ix.Add(llSt)
	r.migrateStore(llSt, 0, 10)
	res := r.e.LoadIssue(mkLoad(9, 0x100), ix, 50)
	if !res.Forwarded || res.Source != llSt {
		t.Fatalf("youngest (migrated) store lost the arbitration: %+v", res)
	}
	if res.ExtraLatency == 0 {
		t.Error("global search that beat the local hit was not charged")
	}
	// The reverse ordering keeps the plain local hit: HL younger than LL.
	ix2 := lsq.NewStoreIndex()
	old := mkStore(1, 0x200, 5, 6)
	ix2.Add(old)
	r2 := newRig(t, nil)
	r2.migrateStore(old, 0, 10)
	young := mkStore(5, 0x200, 7, 8)
	ix2.Add(young)
	res2 := r2.e.LoadIssue(mkLoad(9, 0x200), ix2, 50)
	if !res2.Forwarded || res2.Source != young {
		t.Fatalf("younger HL store lost to the older migrated one: %+v", res2)
	}
	if res2.ExtraLatency != 0 {
		t.Error("local HL hit paid a global search")
	}
}

// An LL load whose youngest older overlapping store still buffers in the
// HL-SQ must reach it over the network — before this fix such a load read
// the cache and missed the forwarding entirely.
func TestLLLoadReachesYoungestHLStore(t *testing.T) {
	r := newRig(t, nil)
	ix := lsq.NewStoreIndex()
	hl := mkStore(1, 0x100, 5, 6)
	ix.Add(hl)
	ld := mkLoad(9, 0x100)
	ld.Epoch = 2 // the load migrated; the store did not
	ld.MigrateAt = 10
	res := r.e.LoadIssue(ld, ix, 50)
	if !res.Forwarded || res.Source != hl {
		t.Fatalf("LL load missed the HL-SQ store: %+v", res)
	}
	if res.ExtraLatency == 0 {
		t.Error("remote HL-SQ search was free")
	}
	c := r.e.Counters()
	if c.Get("roundtrip") == 0 {
		t.Error("ME->CP round trip not counted")
	}
}

// A wrong-path op must never be inserted into the ERT: the filter boundary
// assert fires under filter.Debug.
func TestERTInsertRejectsWrongPathOps(t *testing.T) {
	filter.Debug = true
	defer func() {
		filter.Debug = false
		if recover() == nil {
			t.Error("ERT insertion accepted a wrong-path store with filter.Debug on")
		}
	}()
	r := newRig(t, nil)
	wp := mkStore(isa.WrongPathSeqBit|3, 0x100, 5, 6)
	r.migrateStore(wp, 0, 10)
}

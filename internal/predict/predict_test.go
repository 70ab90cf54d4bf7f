package predict

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stats"
)

func fmcCfg(class config.ClassPolicy) *config.Config {
	cfg := config.Default()
	cfg.Class = class
	return &cfg
}

func loadQ(addr uint64, dispatch, addrReady int64) *Query {
	return &Query{
		In:       &isa.Inst{Op: isa.OpLoad, Addr: addr},
		Dispatch: dispatch,
		// Ready deliberately diverges from AddrReady so a policy that
		// consults the wrong field for loads fails these tests.
		Ready:     addrReady + 1000,
		AddrReady: addrReady,
	}
}

func aluQ(dispatch, ready int64) *Query {
	return &Query{In: &isa.Inst{Op: isa.OpIntAlu}, Dispatch: dispatch, Ready: ready, AddrReady: dispatch}
}

// TestTableWords: state exists exactly when an FMC configuration selects a
// table policy; the reactive default and every OoO configuration allocate
// none.
func TestTableWords(t *testing.T) {
	if n := tableWords(fmcCfg(config.ClassReactive)); n != 0 {
		t.Errorf("reactive wants %d words, want 0", n)
	}
	if n := tableWords(fmcCfg(config.ClassCacheLevel)); n != 1024 {
		t.Errorf("cachelevel wants %d words, want 1024", n)
	}
	narrow := fmcCfg(config.ClassDelayTrack)
	narrow.ClassTableBits = 6
	if n := tableWords(narrow); n != 64 {
		t.Errorf("6-bit table wants %d words, want 64", n)
	}
	ooo := config.OoO64()
	ooo.Class = config.ClassCacheLevel
	if n := tableWords(&ooo); n != 0 {
		t.Errorf("OoO wants %d words, want 0 (classifier is FMC-only)", n)
	}
}

// TestNonFMCCoercedToReactive: under OoO the classifier must never book
// pred activity (the energy model instantiates no pred structure there), so
// build falls back to the stateless policy.
func TestNonFMCCoercedToReactive(t *testing.T) {
	ooo := config.OoO64()
	ooo.Class = config.ClassDelayTrack
	c := New(&ooo)
	if _, isReactive := c.(*reactive); !isReactive {
		t.Fatalf("OoO classifier is %T, want *reactive", c)
	}
}

// TestReactiveRule pins the paper's migration arithmetic exactly: strict
// inequality on the readiness slack, with address readiness standing in for
// full readiness on loads.
func TestReactiveRule(t *testing.T) {
	cfg := fmcCfg(config.ClassReactive)
	thr := int64(cfg.MigrateThreshold)
	c := New(cfg)
	if c.LowLocality(loadQ(0x1000, 100, 100+thr)) {
		t.Error("slack == threshold classified LL; the rule is strict >")
	}
	if !c.LowLocality(loadQ(0x1000, 100, 100+thr+1)) {
		t.Error("slack just past the threshold stayed HL")
	}
	if c.LowLocality(aluQ(100, 100+thr)) || !c.LowLocality(aluQ(100, 100+thr+1)) {
		t.Error("non-load slack rule wrong")
	}
	// Loads key on AddrReady, never Ready (loadQ poisons Ready).
	if c.LowLocality(loadQ(0x1000, 100, 100)) {
		t.Error("load consulted Ready instead of AddrReady")
	}
	var ev stats.Tally
	c.Flush(&ev)
	if ev != (stats.Tally{}) {
		t.Errorf("reactive flushed counts: %v", (&stats.Counters{Tally: ev}).Names())
	}
}

// TestCacheLevelLearnsMissingLine: after two observed memory-level accesses
// a line predicts "memory" and the load migrates at dispatch even with zero
// slack; an L1-resident line never does. Reactive-rule classifications stay
// a subset of cachelevel's.
func TestCacheLevelLearnsMissingLine(t *testing.T) {
	cfg := fmcCfg(config.ClassCacheLevel)
	c := New(cfg).(*cachelevel)
	const hot, cold = 0x10_0000, 0x20_0000

	if c.LowLocality(loadQ(cold, 0, 0)) {
		t.Fatal("untrained table predicted LL")
	}
	c.ObserveLoad(cold, mem.LevelMem, 300) // allocates at sat=2: predicts mem
	if !c.LowLocality(loadQ(cold, 0, 0)) {
		t.Fatal("line observed missing to memory stays HL")
	}
	c.ObserveLoad(cold, mem.LevelMem, 300)

	c.LowLocality(loadQ(hot, 0, 0))
	c.ObserveLoad(hot, mem.LevelL1, 1) // allocates at sat=1: predicts cache
	if c.LowLocality(loadQ(hot, 0, 0)) {
		t.Fatal("L1-resident line predicted LL")
	}
	c.ObserveLoad(hot, mem.LevelL1, 1)

	// The reactive baseline still applies regardless of the prediction.
	thr := int64(cfg.MigrateThreshold)
	if !c.LowLocality(loadQ(hot, 0, thr+1)) {
		t.Fatal("slack past threshold stayed HL under a cache-hit prediction")
	}

	var ev stats.Tally
	c.Flush(&ev)
	if ev[stats.PredHit] == 0 || ev[stats.PredMiss] == 0 {
		t.Errorf("accuracy tallies missing: hit=%d miss=%d", ev[stats.PredHit], ev[stats.PredMiss])
	}
	if ev[stats.PredRead] == 0 || ev[stats.PredWrite] == 0 {
		t.Errorf("table activity missing: read=%d write=%d", ev[stats.PredRead], ev[stats.PredWrite])
	}
}

// TestCacheLevelSaturation: the 2-bit counter saturates at both rails and
// takes two contrary observations to flip a strongly-held prediction.
func TestCacheLevelSaturation(t *testing.T) {
	c := New(fmcCfg(config.ClassCacheLevel)).(*cachelevel)
	const addr = 0x40
	for i := 0; i < 5; i++ {
		c.LowLocality(loadQ(addr, 0, 0))
		c.ObserveLoad(addr, mem.LevelMem, 300)
	}
	c.LowLocality(loadQ(addr, 0, 0))
	c.ObserveLoad(addr, mem.LevelL1, 1) // 3 -> 2: still predicts mem
	if !c.LowLocality(loadQ(addr, 0, 0)) {
		t.Fatal("one contrary observation flipped a saturated prediction")
	}
	c.ObserveLoad(addr, mem.LevelL1, 1) // 2 -> 1: flips
	if c.LowLocality(loadQ(addr, 0, 0)) {
		t.Fatal("two contrary observations did not flip the prediction")
	}
}

// TestDelayTrackEstimate: a line whose observed latency closes the gap to
// the threshold classifies LL on its next dispatch; short-latency lines
// follow the plain slack rule.
func TestDelayTrackEstimate(t *testing.T) {
	cfg := fmcCfg(config.ClassDelayTrack)
	thr := int64(cfg.MigrateThreshold)
	c := New(cfg).(*delaytrack)
	const slow, fast = 0x1000, 0x2000

	if c.LowLocality(loadQ(slow, 0, 0)) {
		t.Fatal("untrained delaytrack predicted LL at zero slack")
	}
	c.ObserveLoad(slow, mem.LevelMem, thr+100) // first observation seeds the EMA raw
	if !c.LowLocality(loadQ(slow, 0, 0)) {
		t.Fatal("slack 0 + estimate past threshold stayed HL")
	}
	// slack + est straddles the threshold exactly: strict > keeps it HL.
	c.ObserveLoad(fast, mem.LevelL1, 1)
	if c.LowLocality(loadQ(fast, 0, thr-1)) {
		t.Fatal("slack+est == threshold classified LL; the rule is strict >")
	}
	if !c.LowLocality(loadQ(fast, 0, thr)) {
		t.Fatal("slack+est just past threshold stayed HL")
	}
}

// TestDelayTrackEMAClamp: the moving average smooths toward new latencies
// and clamps at the 16-bit payload rail instead of wrapping.
func TestDelayTrackEMAClamp(t *testing.T) {
	c := New(fmcCfg(config.ClassDelayTrack)).(*delaytrack)
	const addr = 0x3000
	c.LowLocality(loadQ(addr, 0, 0))
	c.ObserveLoad(addr, mem.LevelMem, 400)
	est, ok := c.lookup(addr)
	if !ok || est != 400 {
		t.Fatalf("seed estimate %d (ok=%v), want 400", est, ok)
	}
	c.LowLocality(loadQ(addr, 0, 0))
	c.ObserveLoad(addr, mem.LevelMem, 0)
	if est, _ = c.lookup(addr); est != 300 {
		t.Fatalf("EMA after 0-latency observation = %d, want 300", est)
	}
	for i := 0; i < 64; i++ {
		c.LowLocality(loadQ(addr, 0, 0))
		c.ObserveLoad(addr, mem.LevelMem, 1<<20)
	}
	if est, _ = c.lookup(addr); est != payloadMax {
		t.Fatalf("estimate %d after huge latencies, want clamp at %d", est, payloadMax)
	}
}

// TestTableTagging: two addresses that collide on the index but differ in
// tag must not read each other's state (the table is tagged, not aliased).
func TestTableTagging(t *testing.T) {
	cfg := fmcCfg(config.ClassCacheLevel)
	cfg.ClassTableBits = 6
	c := New(cfg).(*cachelevel)
	lineBytes := uint64(cfg.L1.LineBytes)
	a := uint64(0x40)
	b := a + lineBytes<<6 // same index, different tag
	c.LowLocality(loadQ(a, 0, 0))
	c.ObserveLoad(a, mem.LevelMem, 300)
	c.LowLocality(loadQ(a, 0, 0))
	c.ObserveLoad(a, mem.LevelMem, 300)
	if !c.LowLocality(loadQ(a, 0, 0)) {
		t.Fatal("trained line does not predict mem")
	}
	if c.LowLocality(loadQ(b, 0, 0)) {
		t.Fatal("tag-colliding line inherited the prediction")
	}
	// Same line offset within a cache line shares the entry.
	if !c.LowLocality(loadQ(a+lineBytes-1, 0, 0)) {
		t.Fatal("intra-line offset missed the trained entry")
	}
}

// TestLineShift covers the power-of-two and degenerate line sizes.
func TestLineShift(t *testing.T) {
	for _, tc := range []struct {
		bytes int
		want  uint
	}{{1, 0}, {2, 1}, {32, 5}, {64, 6}, {48, 6}} {
		if got := lineShift(tc.bytes); got != tc.want {
			t.Errorf("lineShift(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

package cpu

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestWarmupTrafficExcludedFromCounters is the regression test for the
// fabric snapshot in Sim.Run: traffic that flows before measurement
// starts (historically the never-reset Mesh.Hops leaked warm-up hops into
// results) must not appear in the reported interconnect counters. We inject
// synthetic pre-measurement traffic directly on a fresh Sim's fabric and
// require a byte-identical Result against an unpolluted twin.
func TestWarmupTrafficExcludedFromCounters(t *testing.T) {
	cfg := quickCfg(config.Default())
	p, err := workload.ByName("equake") // generates real mesh traffic at default config
	if err != nil {
		t.Fatal(err)
	}
	clean, err := New(cfg, p.New(1))
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := New(cfg, p.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Pre-measurement fabric traffic: hops, bus trips and migration flits
	// that a warm-up phase could plausibly generate. The analytic fabric
	// makes these pure accounting (no calendar state), so any divergence
	// below can only come from counters leaking across the snapshot.
	for i := 0; i < 50; i++ {
		dirty.fab.Route(i%16, (i*7)%16, 0)
		dirty.fab.BusRoundTrip(0)
		dirty.fab.BusOneWay(0)
	}
	dirty.fab.MigrateState(0, 15, 8, 0)
	if dirty.fab.Traffic().Hops == 0 {
		t.Fatal("synthetic traffic did not register on the fabric")
	}

	want, got := clean.Run(), dirty.Run()
	if want.Counters.Snapshot()["noc_hops"] == 0 {
		t.Fatal("measured run reported zero hops; the assertion below would be vacuous")
	}
	if !reflect.DeepEqual(want.Counters.Snapshot(), got.Counters.Snapshot()) {
		t.Errorf("pre-measurement traffic leaked into counters:\nclean %v\ndirty %v",
			want.Counters.Snapshot(), got.Counters.Snapshot())
	}
	if want.IPC != got.IPC || want.Cycles != got.Cycles {
		t.Errorf("pre-measurement traffic changed timing: clean IPC %v cycles %d, dirty IPC %v cycles %d",
			want.IPC, want.Cycles, got.IPC, got.Cycles)
	}
}

// TestContendedFabricDeterminism: the contended fabric with non-default
// placement must stay run-to-run deterministic (calendar state and
// placement decisions are pure functions of the simulated stream).
func TestContendedFabricDeterminism(t *testing.T) {
	for _, pol := range []config.PlacePolicy{config.PlaceModN, config.PlaceLeastLoaded, config.PlaceSteal} {
		cfg := quickCfg(config.Default())
		cfg.NoC = config.NoCContended
		cfg.Place = pol
		a := run(t, cfg, "mcf", 7)
		b := run(t, cfg, "mcf", 7)
		if a.IPC != b.IPC || a.Cycles != b.Cycles {
			t.Errorf("policy %v: contended runs diverged: %v/%d vs %v/%d", pol, a.IPC, a.Cycles, b.IPC, b.Cycles)
		}
		if !reflect.DeepEqual(a.Counters.Snapshot(), b.Counters.Snapshot()) {
			t.Errorf("policy %v: contended counters diverged", pol)
		}
	}
}

// Tests for the activity-energy model: table lookup, the accounting
// identity (totals == structure sums), activity-independence of area, the
// unaccounted-activity guard, and the counter-liveness property certifying
// every priced event fires in at least one tier-1 run.
//
// The package is tested externally because the runs come through
// internal/simrun, which itself imports internal/energy.
package energy_test

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/simrun"
	"repro/internal/stats"
)

const (
	testWarmup  uint64 = 6000
	testMeasure uint64 = 2500
)

// runPoint simulates one small point and returns its config and outcome
// (simrun.Run computes the energy report as part of the outcome).
func runPoint(t *testing.T, cfg config.Config, bench string) (*config.Config, *simrun.Outcome) {
	t.Helper()
	out, err := simrun.Point{Config: cfg, Bench: bench, Seed: 1}.Run(nil)
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg.Name(), bench, err)
	}
	return &cfg, out
}

func quickCfg(mut func(*config.Config)) config.Config {
	cfg := config.Default().WithBudget(testMeasure, testWarmup)
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

func TestTables(t *testing.T) {
	names := energy.Tables()
	want := map[string]bool{"base": false, "hp": false, "lp": false}
	for _, n := range names {
		if _, seen := want[n]; !seen {
			t.Errorf("unexpected table %q", n)
		}
		want[n] = true
		if _, err := energy.Lookup(n); err != nil {
			t.Errorf("Lookup(%q): %v", n, err)
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("table %q missing from Tables()", n)
		}
	}
	for _, n := range []string{"", "nope"} {
		if _, err := energy.Lookup(n); err == nil {
			t.Errorf("Lookup(%q) succeeded, want error", n)
		}
	}
}

// TestAccountingIdentity runs the paper scheme and checks the report's
// internal identities plus basic physical sanity.
func TestAccountingIdentity(t *testing.T) {
	_, out := runPoint(t, quickCfg(nil), "mcf")
	rep := out.Energy
	if rep == nil {
		t.Fatal("outcome carries no energy report")
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Table != "base" || rep.TotalPJ <= 0 || rep.TotalAreaMM2 <= 0 || rep.PJPerInst <= 0 {
		t.Errorf("degenerate report: table %q total %g pJ area %g mm2 %g pJ/inst",
			rep.Table, rep.TotalPJ, rep.TotalAreaMM2, rep.PJPerInst)
	}
}

// TestAreaIndependentOfActivity recomputes the report for the same run with
// every counter zeroed: area is a pure function of the configuration and
// must not move.
func TestAreaIndependentOfActivity(t *testing.T) {
	cfg, out := runPoint(t, quickCfg(nil), "swim")
	live := out.Energy
	idle := &cpu.Result{
		Counters:         new(stats.Counters),
		Committed:        out.Result.Committed,
		Cycles:           out.Result.Cycles,
		BankActiveCycles: out.Result.BankActiveCycles,
	}
	rep, err := energy.Compute(cfg, idle)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalAreaMM2 != live.TotalAreaMM2 {
		t.Errorf("area moved with activity: %g vs %g mm2", rep.TotalAreaMM2, live.TotalAreaMM2)
	}
	if len(rep.Structures) != len(live.Structures) {
		t.Fatalf("structure count changed: %d vs %d", len(rep.Structures), len(live.Structures))
	}
	for i := range rep.Structures {
		if rep.Structures[i].AreaMM2 != live.Structures[i].AreaMM2 {
			t.Errorf("structure %s area moved: %g vs %g mm2",
				rep.Structures[i].Name, rep.Structures[i].AreaMM2, live.Structures[i].AreaMM2)
		}
	}
	if rep.TotalDynamicPJ != 0 {
		t.Errorf("zero activity produced %g dynamic pJ", rep.TotalDynamicPJ)
	}
}

// TestDigestStability: recomputing from the same inputs digests
// identically; a different coefficient table does not.
func TestDigestStability(t *testing.T) {
	cfg, out := runPoint(t, quickCfg(nil), "mcf")
	again, err := energy.Compute(cfg, out.Result)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := out.Energy.Digest(), again.Digest(); d1 != d2 {
		t.Errorf("recompute digest drifted: %s vs %s", d1, d2)
	}
	hp := *cfg
	hp.EnergyTable = "hp"
	repHP, err := energy.Compute(&hp, out.Result)
	if err != nil {
		t.Fatal(err)
	}
	if repHP.Digest() == out.Energy.Digest() {
		t.Error("hp table digests identically to base")
	}
	if err := repHP.Check(); err != nil {
		t.Errorf("hp report: %v", err)
	}
}

// TestUnaccountedActivity: events booked against a structure the
// configuration does not instantiate must fail loudly, not vanish.
func TestUnaccountedActivity(t *testing.T) {
	cfg := config.OoO64().WithBudget(testMeasure, testWarmup)
	res := &cpu.Result{Counters: new(stats.Counters), Committed: 1, Cycles: 1}
	res.Counters.Tally[stats.EpochOpen] = 1 // fmc structure absent under OoO
	if _, err := energy.Compute(&cfg, res); err == nil {
		t.Fatal("epoch activity under OoO accounted silently, want error")
	} else if !strings.Contains(err.Error(), "epoch_open") {
		t.Errorf("error does not name the action: %v", err)
	}
}

// TestBadTableSurfacesFromRun: an unknown energy.table must fail the run,
// not silently skip the report.
func TestBadTableSurfacesFromRun(t *testing.T) {
	cfg := quickCfg(func(c *config.Config) { c.EnergyTable = "bogus" })
	if _, err := (simrun.Point{Config: cfg, Bench: "mcf", Seed: 1}).Run(nil); err == nil {
		t.Fatal("unknown energy table ran cleanly, want error")
	}
}

// TestActionLiveness is the counter-liveness property: every priced event
// of the stats table must be incremented by at least one of these
// tier-1 runs, so a counter can never silently decouple from the hot path
// it claims to measure.
func TestActionLiveness(t *testing.T) {
	points := []struct {
		name  string
		cfg   config.Config
		bench string
	}{
		// The paper scheme covers the LL-LSQ, ERT, SQM, cache levels,
		// epoch lifecycle and one-way fabric traffic.
		{"elsq", quickCfg(nil), "mcf"},
		// SVW on FMC exercises the SSBF read/write pair.
		{"svw-fmc", quickCfg(func(c *config.Config) { c.LSQ = config.LSQSVW }), "mcf"},
		// The centralized scheme books bus round trips.
		{"central", quickCfg(func(c *config.Config) { c.LSQ = config.LSQCentral }), "mcf"},
		// The conventional OoO queues cover the HL CAM searches.
		{"ooo64", quickCfg(func(c *config.Config) {
			c.Model = config.ModelOoO
			c.LSQ = config.LSQConventional
		}), "mcf"},
		// A non-reactive classifier instantiates the predictor table, so
		// its read/write pair fires (the reactive default never books pred
		// activity — the structure is absent and Compute would error).
		{"cachelevel", quickCfg(func(c *config.Config) { c.Class = config.ClassCacheLevel }), "mcf"},
		// Least-loaded placement over a small mesh readily places epochs
		// off their mod-N home, so their state blocks cross the mesh:
		// epoch steals, migration flits and link hops all fire here.
		{"leastloaded4", quickCfg(func(c *config.Config) {
			c.Place = config.PlaceLeastLoaded
			c.NumEpochs = 4
		}), "mcf"},
	}
	var union stats.Tally
	for _, p := range points {
		_, out := runPoint(t, p.cfg, p.bench)
		for e, n := range out.Result.Counters.Tally {
			union[e] += n
		}
		if err := out.Energy.Check(); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
	for e := range stats.NumEvents {
		if a := e.Info(); a.Kind != stats.Unpriced && union[e] == 0 {
			t.Errorf("action %s (structure %s) never fired across the liveness matrix", a.Name, a.Structure)
		}
	}
}

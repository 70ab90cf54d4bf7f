// Cross-mode conservation of the energy accounting: for every smoke-matrix
// scheme, the counters (every priced event among them) and the derived
// energy report must be bit-identical however the same point is executed:
// live, trace replay or checkpoint resume. Any divergence means an action counter fires outside the measured region (or
// differently per driving mode), which would make energy numbers a property
// of the harness instead of the simulated machine.
package simrun_test

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	testWarmup  uint64 = 6000
	testMeasure uint64 = 2500
)

// conservationSchemes spans the smoke matrix's LSQ schemes and fabric
// models (the root package's matrix_test.go) plus work-stealing placement,
// at the test budget.
func conservationSchemes() []struct {
	name string
	cfg  config.Config
} {
	mk := func(mut func(*config.Config)) config.Config {
		cfg := config.Default().WithBudget(testMeasure, testWarmup)
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}
	return []struct {
		name string
		cfg  config.Config
	}{
		{"elsq", mk(nil)},
		{"ooo64", mk(func(c *config.Config) {
			c.Model = config.ModelOoO
			c.LSQ = config.LSQConventional
		})},
		{"central", mk(func(c *config.Config) { c.LSQ = config.LSQCentral })},
		{"svw", mk(func(c *config.Config) { c.LSQ = config.LSQSVW })},
		{"elsq-noc", mk(func(c *config.Config) { c.NoC = config.NoCContended })},
		{"elsq-noc-steal", mk(func(c *config.Config) {
			c.NoC = config.NoCContended
			c.Place = config.PlaceSteal
		})},
	}
}

// recordBudget records the point's full instruction budget (warm-up +
// measurement + inter-interval bleeds) to a temp .elt for replay.
func recordBudget(t *testing.T, cfg *config.Config, bench string, seed uint64) string {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	path := trace.BenchPath(t.TempDir(), bench, seed)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(f, prof.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.WarmupInsts + cfg.MaxInsts + uint64(cfg.SampleIntervals-1)*cfg.SampleBleedInsts
	if err := rec.Record(n); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertSameResult compares every deterministic field of two results.
func assertSameResult(t *testing.T, label string, got, want *cpu.Result) {
	t.Helper()
	if got.Committed != want.Committed || got.Cycles != want.Cycles || got.IPC != want.IPC {
		t.Errorf("%s: committed/cycles/IPC %d/%d/%v, want %d/%d/%v",
			label, got.Committed, got.Cycles, got.IPC, want.Committed, want.Cycles, want.IPC)
	}
	if !reflect.DeepEqual(got.Counters.Snapshot(), want.Counters.Snapshot()) {
		t.Errorf("%s: counters diverged:\n got %v\nwant %v", label, got.Counters.Snapshot(), want.Counters.Snapshot())
	}
	if !reflect.DeepEqual(got.LoadDist, want.LoadDist) || !reflect.DeepEqual(got.StoreDist, want.StoreDist) {
		t.Errorf("%s: locality histograms diverged", label)
	}
	if got.LLIdleFrac != want.LLIdleFrac || got.AvgEpochs != want.AvgEpochs {
		t.Errorf("%s: LL activity diverged: %v/%v vs %v/%v",
			label, got.LLIdleFrac, got.AvgEpochs, want.LLIdleFrac, want.AvgEpochs)
	}
}

// assertConserved compares one mode's outcome against the scalar reference:
// headline metrics, the counters, and the energy report digest.
func assertConserved(t *testing.T, label string, got, want *simrun.Outcome) {
	t.Helper()
	assertSameResult(t, label, got.Result, want.Result)
	if got.Energy == nil || want.Energy == nil {
		t.Fatalf("%s: energy report missing (got %v, want %v)", label, got.Energy, want.Energy)
	}
	if gd, wd := got.Energy.Digest(), want.Energy.Digest(); gd != wd {
		t.Errorf("%s: energy digest %s != scalar %s (%.1f vs %.1f pJ/inst)",
			label, gd, wd, got.Energy.PJPerInst, want.Energy.PJPerInst)
	}
}

// TestEnergyConservationAcrossModes is the conservation property test: one
// benchmark per scheme, three execution modes, everything bit-identical.
func TestEnergyConservationAcrossModes(t *testing.T) {
	const bench, seed = "mcf", uint64(1)
	for _, sc := range conservationSchemes() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			scalar, err := (simrun.Point{Config: sc.cfg, Bench: bench, Seed: seed}).Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := scalar.Energy.Check(); err != nil {
				t.Fatal(err)
			}

			// Trace replay.
			tp := recordBudget(t, &sc.cfg, bench, seed)
			replay, err := (simrun.Point{Config: sc.cfg, Bench: bench, Seed: seed, TracePath: tp}).Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			assertConserved(t, sc.name+"/trace", replay, scalar)

			// Checkpoint resume.
			prof, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			ckCfg := sc.cfg
			snap, err := ckpt.Build(&ckCfg, prof, seed)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := (simrun.Point{Config: ckCfg, Bench: bench, Seed: seed, Snapshot: snap}).Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !resumed.Resumed {
				t.Errorf("%s: checkpoint run did not resume", sc.name)
			}
			assertConserved(t, sc.name+"/ckpt-resume", resumed, scalar)

		})
	}
}

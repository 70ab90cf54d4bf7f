package oracle_test

import (
	"testing"

	"repro/internal/oracle"
	"repro/internal/simrun"
)

// FuzzSim is the native fuzz target behind cmd/elsqfuzz: a 64-bit seed
// deterministically derives a configuration point (geometry axes via the
// config.Fields registry), a benchmark and a workload seed; the simulation
// must pass differential-oracle certification, and its energy report must
// keep the accounting identity elsqfuzz checks (energy.Report.Check) under
// whichever energy.table the point drew. Run continuously with
//
//	go test -fuzz=FuzzSim ./internal/oracle
//
// In plain `go test` runs the seed corpus below doubles as a quick
// randomized regression sweep.
func FuzzSim(f *testing.F) {
	for seed := uint64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := oracle.RandomPoint(seed)
		out, err := simrun.Point{Config: p.Config, Bench: p.Bench, Seed: p.Seed, Oracle: true}.Run(nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Label(), err)
		}
		if cerr := out.Oracle.Err(); cerr != nil {
			t.Errorf("%s: %v", p.Label(), cerr)
		}
		if out.Oracle.Loads() == 0 {
			t.Errorf("%s: certified no loads", p.Label())
		}
		if err := out.Energy.Check(); err != nil {
			t.Errorf("%s: %v", p.Label(), err)
		}
	})
}

// TestRandomPointDeterminism pins the reproducibility contract: the same
// fuzz seed always derives the same point.
func TestRandomPointDeterminism(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		a, b := oracle.RandomPoint(seed), oracle.RandomPoint(seed)
		if a.Label() != b.Label() || a.Config != b.Config {
			t.Fatalf("seed %d derived two different points", seed)
		}
		if err := a.Config.Validate(); err != nil {
			t.Fatalf("seed %d: invalid config: %v", seed, err)
		}
	}
}

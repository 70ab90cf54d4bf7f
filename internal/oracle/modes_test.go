// Integration tests for the oracle's acceptance bar: every committed load
// value must match the sequential reference byte-for-byte across all LSQ
// schemes, both benchmark suites, and all four driving modes — live
// generation, trace replay, checkpointed resume, and SimPoint-style
// sampling — plus the cross-scheme invariant checks.
package oracle_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/filter"
	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	testWarmup  uint64 = 6000
	testMeasure uint64 = 2500
)

// schemeConfigs enumerates every LSQ organisation and disambiguation path
// the pipeline model can take, at the test budget.
func schemeConfigs() map[string]config.Config {
	mk := func(mut func(*config.Config)) config.Config {
		cfg := config.Default().WithBudget(testMeasure, testWarmup)
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}
	return map[string]config.Config{
		"elsq-hash-sqm":   mk(nil),
		"elsq-hash-nosqm": mk(func(c *config.Config) { c.SQM = false }),
		"elsq-line":       mk(func(c *config.Config) { c.ERT = config.ERTLine }),
		"elsq-rsac":       mk(func(c *config.Config) { c.Disamb = config.DisambRSAC }),
		"elsq-rlac":       mk(func(c *config.Config) { c.Disamb = config.DisambRLAC }),
		"elsq-rsaclac":    mk(func(c *config.Config) { c.Disamb = config.DisambRSACLAC }),
		"elsq-clp":        mk(func(c *config.Config) { c.Class = config.ClassCacheLevel }),
		"elsq-dtp":        mk(func(c *config.Config) { c.Class = config.ClassDelayTrack }),
		"central":         mk(func(c *config.Config) { c.LSQ = config.LSQCentral }),
		"svw-fmc":         mk(func(c *config.Config) { c.LSQ = config.LSQSVW }),
		"svw-fmc-check":   mk(func(c *config.Config) { c.LSQ = config.LSQSVW; c.SVW = config.SVWCheckStores }),
		"ooo64":           mk(func(c *config.Config) { c.Model = config.ModelOoO; c.LSQ = config.LSQConventional }),
		"ooo64-svw":       mk(func(c *config.Config) { c.Model = config.ModelOoO; c.LSQ = config.LSQSVW }),
		"ooo64-svw-check": mk(func(c *config.Config) {
			c.Model = config.ModelOoO
			c.LSQ = config.LSQSVW
			c.SVW = config.SVWCheckStores
		}),
	}
}

// certify runs (cfg, bench, seed) under the oracle and fails the test on
// any violation. It returns the result for invariant checks.
func certify(t *testing.T, label string, cfg config.Config, bench string, seed uint64) *cpu.Result {
	t.Helper()
	out, err := simrun.Point{Config: cfg, Bench: bench, Seed: seed, Oracle: true}.Run(nil)
	if err != nil {
		t.Fatalf("%s/%s: %v", label, bench, err)
	}
	if cerr := out.Oracle.Err(); cerr != nil {
		t.Errorf("%s/%s: %v", label, bench, cerr)
	}
	if out.Oracle.Loads() == 0 {
		t.Errorf("%s/%s: oracle certified no loads — the hook is not wired", label, bench)
	}
	return out.Result
}

// TestOracleCleanAllSchemesBothSuites is the live-mode acceptance sweep:
// every scheme over every benchmark of both suites.
func TestOracleCleanAllSchemesBothSuites(t *testing.T) {
	for label, cfg := range schemeConfigs() {
		t.Run(label, func(t *testing.T) {
			for _, suite := range []workload.Suite{workload.SuiteInt, workload.SuiteFP} {
				for _, prof := range workload.SuiteOf(suite) {
					certify(t, label, cfg, prof.Name, 1)
				}
			}
		})
	}
}

// modesBenches picks two pointer/store-address-chasing stress benchmarks
// per suite for the replay-mode cross product.
var modesBenches = []string{"gcc", "mcf", "swim", "equake"}

// recordTo records the full budget of (cfg, bench, seed) to a temp .elt.
func recordTo(t *testing.T, cfg *config.Config, bench string, seed uint64) string {
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

// TestOracleCleanAcrossModes drives every scheme through trace replay,
// checkpointed resume and sampled measurement, all under the oracle.
func TestOracleCleanAcrossModes(t *testing.T) {
	for label, base := range schemeConfigs() {
		t.Run(label, func(t *testing.T) {
			for _, bench := range modesBenches {
				// Trace replay: record the budget, then certify the replay.
				cfg := base
				cfg.TracePath = recordTo(t, &cfg, bench, 1)
				if err := trace.Resolve(&cfg); err != nil {
					t.Fatal(err)
				}
				certify(t, label+"/trace", cfg, bench, 1)

				// Checkpointed resume: build a warm snapshot, resume, certify.
				prof, err := workload.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				ckCfg := base
				snap, err := ckpt.Build(&ckCfg, prof, 1)
				if err != nil {
					t.Fatal(err)
				}
				out, err := simrun.Point{Config: ckCfg, Bench: bench, Seed: 1, Snapshot: snap, Oracle: true}.Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				if cerr := out.Oracle.Err(); cerr != nil {
					t.Errorf("%s/ckpt-resume/%s: %v", label, bench, cerr)
				}
				if out.Oracle.Loads() == 0 {
					t.Errorf("%s/ckpt-resume/%s: oracle certified no loads", label, bench)
				}

				// Sampled measurement: three intervals with functional bleed.
				sampled := base
				sampled.SampleIntervals = 3
				sampled.SampleBleedInsts = 1500
				certify(t, label+"/sampled", sampled, bench, 1)
			}
		})
	}
}

// TestIdealLSQUpperBoundInvariant pins the cross-scheme performance
// ordering: the idealised central LSQ — unlimited capacity, single-cycle
// searches — with a free interconnect (the centralised queue otherwise pays
// CP<->MP round trips the distributed schemes avoid by design) bounds every
// restricted hash-ERT scheme at equal geometry. Two effects keep this from
// being exact: the line-based ERT locks referenced lines into the L1, which
// can pin a pointer-chase working set and legitimately beat the ideal queue
// on cache behaviour (it is therefore excluded), and wrong-path injection
// feeds back on timing, so a small tolerance absorbs speculation noise. A
// restricted scheme exceeding the bound beyond the tolerance means it is
// cheating — skipping searches or latency it owes.
func TestIdealLSQUpperBoundInvariant(t *testing.T) {
	const tolerance = 1.05
	restricted := map[string]func(*config.Config){
		"elsq-hash-sqm":   nil,
		"elsq-hash-nosqm": func(c *config.Config) { c.SQM = false },
		"elsq-rsac":       func(c *config.Config) { c.Disamb = config.DisambRSAC },
		"elsq-rlac":       func(c *config.Config) { c.Disamb = config.DisambRLAC },
		"elsq-rsaclac":    func(c *config.Config) { c.Disamb = config.DisambRSACLAC },
		"svw-fmc":         func(c *config.Config) { c.LSQ = config.LSQSVW },
		"central-bus":     func(c *config.Config) { c.LSQ = config.LSQCentral },
	}
	for _, bench := range modesBenches {
		ideal := config.Default().WithBudget(testMeasure, testWarmup)
		ideal.LSQ = config.LSQCentral
		ideal.BusOneWay = 0
		ideal.MeshHop = 0
		idealRes := certify(t, "ideal", ideal, bench, 1)
		for label, mut := range restricted {
			cfg := config.Default().WithBudget(testMeasure, testWarmup)
			if mut != nil {
				mut(&cfg)
			}
			res := certify(t, label, cfg, bench, 1)
			if res.IPC > idealRes.IPC*tolerance {
				t.Errorf("%s/%s: IPC %.4f exceeds the idealised central LSQ's %.4f beyond tolerance",
					label, bench, res.IPC, idealRes.IPC)
			}
		}
	}
}

// TestSVWReexecCoversTrueViolations pins the SVW safety-counting argument:
// every true memory-ordering violation the pipeline detects must be
// repaired by a commit-time re-execution, so the re-execution count is
// bounded below by the true-violation count (conservative SSBF aliasing
// only adds spurious re-executions on top).
func TestSVWReexecCoversTrueViolations(t *testing.T) {
	for _, variant := range []config.SVWVariant{config.SVWBlind, config.SVWCheckStores} {
		for _, model := range []config.Model{config.ModelFMC, config.ModelOoO} {
			for _, bench := range modesBenches {
				cfg := config.Default().WithBudget(testMeasure, testWarmup)
				cfg.Model = model
				cfg.LSQ = config.LSQSVW
				cfg.SVW = variant
				label := fmt.Sprintf("svw-%v-%v", model, variant)
				res := certify(t, label, cfg, bench, 1)
				re := res.Counters.Get("reexec")
				vi := res.Counters.Get("violation")
				if re < vi {
					t.Errorf("%s/%s: %d re-executions < %d true violations — a vulnerable load slipped the filter",
						label, bench, re, vi)
				}
			}
		}
	}
}

// TestWrongPathAuditUnderDebug arms the filter-boundary asserts and drives
// the most speculation-heavy INT benchmarks through every wrong-path-
// sensitive scheme: re-synthesised wrong-path loads and stores may search
// the queues and pollute the caches, but any one of them reaching
// SSBF.CommitStore, an ERT insertion or the oracle's committed stream
// panics the run (and the oracle independently flags wrong-path sequence
// numbers even with Debug off).
func TestWrongPathAuditUnderDebug(t *testing.T) {
	filter.Debug = true
	defer func() { filter.Debug = false }()
	cfgs := schemeConfigs()
	for _, label := range []string{"elsq-hash-sqm", "elsq-line", "svw-fmc", "ooo64-svw", "central"} {
		for _, bench := range []string{"gcc", "vpr", "twolf"} {
			certify(t, label+"/wrong-path-audit", cfgs[label], bench, 1)
		}
	}
}

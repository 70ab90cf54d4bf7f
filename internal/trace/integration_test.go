// Integration tests for the acceptance bar of the trace subsystem: replaying
// a recorded trace must be indistinguishable — result-for-result, bit for
// bit — from the live generation it was recorded from, through the full
// simulator and through checkpointed resume.
package trace_test

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

// testBudget is small enough for per-PR CI yet covers warm-up, measurement
// and (for the sampled variant) inter-interval bleed.
const (
	testWarmup  uint64 = 6000
	testMeasure uint64 = 2500
)

// recordTo records the full budget of (bench, seed) under cfg to a temp
// .elt file and returns its path.
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

// assertSameResult compares every deterministic field of two results.
func assertSameResult(t *testing.T, label string, got, want *cpu.Result) {
	t.Helper()
	if got.Committed != want.Committed || got.Cycles != want.Cycles || got.IPC != want.IPC {
		t.Fatalf("%s: committed/cycles/IPC %d/%d/%v, want %d/%d/%v",
			label, got.Committed, got.Cycles, got.IPC, want.Committed, want.Cycles, want.IPC)
	}
	if !reflect.DeepEqual(got.Counters.Snapshot(), want.Counters.Snapshot()) {
		t.Fatalf("%s: counters diverged:\n got %v\nwant %v", label, got.Counters.Snapshot(), want.Counters.Snapshot())
	}
	if !reflect.DeepEqual(got.LoadDist, want.LoadDist) || !reflect.DeepEqual(got.StoreDist, want.StoreDist) {
		t.Fatalf("%s: locality histograms diverged", label)
	}
	if got.LLIdleFrac != want.LLIdleFrac || got.AvgEpochs != want.AvgEpochs {
		t.Fatalf("%s: LL activity diverged: %v/%v vs %v/%v",
			label, got.LLIdleFrac, got.AvgEpochs, want.LLIdleFrac, want.AvgEpochs)
	}
}

// runLive simulates (cfg, bench, seed) from the live generator.
func runLive(t *testing.T, cfg config.Config, bench string, seed uint64) *cpu.Result {
	t.Helper()
	cfg.TracePath, cfg.TraceDigest = "", ""
	out, err := simrun.Point{Config: cfg, Bench: bench, Seed: seed}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.Result
}

// runTraced simulates (cfg, bench, seed) from cfg.TracePath.
func runTraced(t *testing.T, cfg config.Config, bench string, seed uint64) *cpu.Result {
	t.Helper()
	out, err := simrun.Point{Config: cfg, Bench: bench, Seed: seed}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.Result
}

// TestSimulationFromTraceMatchesLive is the tentpole's correctness bar: for
// an INT and an FP benchmark, under both the FMC/ELSQ default and the
// OoO-64 baseline, simulating from a recorded trace produces results
// identical to the live-generator run it was recorded from.
func TestSimulationFromTraceMatchesLive(t *testing.T) {
	for _, bench := range []string{"gzip", "swim"} {
		for _, base := range []struct {
			name string
			cfg  config.Config
		}{
			{"fmc", config.Default()},
			{"ooo64", config.OoO64()},
		} {
			t.Run(bench+"/"+base.name, func(t *testing.T) {
				cfg := base.cfg.WithBudget(testMeasure, testWarmup)
				path := recordTo(t, &cfg, bench, 1)
				cfg.TracePath = path
				if err := trace.Resolve(&cfg); err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, bench, runTraced(t, cfg, bench, 1), runLive(t, cfg, bench, 1))
			})
		}
	}
}

// TestSampledSimulationFromTrace covers the SimPoint-style sampled path:
// inter-interval bleed walks the trace in count mode mid-run.
func TestSampledSimulationFromTrace(t *testing.T) {
	cfg := config.Default().WithBudget(testMeasure, testWarmup)
	cfg.SampleIntervals = 3
	cfg.SampleBleedInsts = 1500
	path := recordTo(t, &cfg, "mcf", 1)
	cfg.TracePath = path
	if err := trace.Resolve(&cfg); err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "mcf sampled", runTraced(t, cfg, "mcf", 1), runLive(t, cfg, "mcf", 1))
}

// TestCkptResumeFromTrace proves checkpointed simulation composes with
// trace-driven runs: a snapshot built by warming a trace-backed source
// resumes to results bit-identical to the fresh trace-driven run (which is
// itself identical to live generation, per the test above).
func TestCkptResumeFromTrace(t *testing.T) {
	for _, bench := range []string{"gzip", "swim"} {
		t.Run(bench, func(t *testing.T) {
			cfg := config.Default().WithBudget(testMeasure, testWarmup)
			path := recordTo(t, &cfg, bench, 1)
			cfg.TracePath = path
			if err := trace.Resolve(&cfg); err != nil {
				t.Fatal(err)
			}
			prof, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := ckpt.Build(&cfg, prof, 1)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Source.Kernel != nil {
				t.Error("trace-built snapshot carries generator kernel state")
			}
			out, err := simrun.Point{Config: cfg, Bench: bench, Seed: 1, Snapshot: snap}.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Resumed {
				t.Error("run with an explicit snapshot not reported as resumed")
			}
			assertSameResult(t, bench, out.Result, runTraced(t, cfg, bench, 1))

			// The warm-up identity must separate trace-driven from live runs:
			// this snapshot would be wrong for a live-generator resume.
			live := cfg
			live.TracePath, live.TraceDigest = "", ""
			if cfg.WarmKey() == live.WarmKey() {
				t.Error("trace-driven and live configs share a warm key")
			}
		})
	}
}

// TestSourceForMismatchFails pins the identity checks between a job and the
// trace it names.
func TestSourceForMismatchFails(t *testing.T) {
	cfg := config.Default().WithBudget(500, 500)
	path := recordTo(t, &cfg, "gzip", 1)
	cfg.TracePath = path
	gzip, _ := workload.ByName("gzip")
	mcf, _ := workload.ByName("mcf")
	if _, err := trace.SourceFor(&cfg, mcf, 1); err == nil {
		t.Error("trace of gzip accepted for an mcf job")
	}
	if _, err := trace.SourceFor(&cfg, gzip, 2); err == nil {
		t.Error("trace of seed 1 accepted for a seed-2 job")
	}
	cfg.TraceDigest = "0123456789abcdef0123456789abcdef"
	if _, err := trace.SourceFor(&cfg, gzip, 1); err == nil {
		t.Error("digest mismatch accepted")
	}
}

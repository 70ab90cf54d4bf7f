package experiments

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// tinyOpts keeps each experiment's smoke run to a few seconds.
func tinyOpts() Options {
	return Options{MaxInsts: 5_000, WarmupInsts: 50_000, Seed: 1, Workers: 2}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig7")
	if err != nil || e.ID != "fig7" {
		t.Fatalf("ByID(fig7) = %+v, %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
	if len(All()) != 10 {
		t.Errorf("All() has %d experiments, want 10", len(All()))
	}
}

// Every experiment must run end to end and mention its paper anchor.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs")
	}
	anchors := map[string]string{
		"fig1":   "within 30 cycles",
		"tuning": "Unlimited-queue",
		"fig7":   "speed-up",
		"fig8a":  "false positives",
		"fig8bc": "relative performance",
		"fig9":   "equake",
		"fig10":  "re-executions",
		"fig11":  "inactivity",
		"table2": "Speed-Up",
		"energy": "nJ",
	}
	for _, e := range All() {
		out, err := e.Run(tinyOpts())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if !strings.Contains(out, anchors[e.ID]) {
			t.Errorf("%s output missing anchor %q:\n%s", e.ID, anchors[e.ID], out)
		}
	}
}

func TestRunSuitesLayout(t *testing.T) {
	runs, err := runSuites([]config.Config{config.Default()}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	sr := runs[0][workload.SuiteInt]
	if len(sr.results) != 12 {
		t.Fatalf("INT suite run has %d results", len(sr.results))
	}
	for i, r := range sr.results {
		if r == nil {
			t.Fatalf("result %d missing", i)
		}
		if r.Bench != workload.SuiteOf(workload.SuiteInt)[i].Name {
			t.Errorf("result %d is %s, want positional layout", i, r.Bench)
		}
	}
	if sr.meanIPC() <= 0 {
		t.Error("meanIPC not positive")
	}
	if sr.meanRelIPC(sr) != 1.0 {
		t.Error("self-relative IPC != 1")
	}
}

func TestRunSuitesPropagatesErrors(t *testing.T) {
	bad := config.Default()
	bad.FetchWidth = 0
	if _, err := runSuites([]config.Config{bad}, tinyOpts()); err == nil {
		t.Error("invalid config did not error")
	}
}

func TestDefaultOptions(t *testing.T) {
	def := DefaultOptions()
	if def.MaxInsts == 0 || def.WarmupInsts == 0 {
		t.Error("DefaultOptions degenerate")
	}
}

// Experiments share the process-level result cache, so re-running an
// experiment must reuse its completed simulations.
func TestExperimentsShareResultCache(t *testing.T) {
	opt := tinyOpts()
	opt.MaxInsts = 4_321 // budget no other test uses, so the keys are fresh
	before := resultCache.Len()
	if _, err := runSuites([]config.Config{config.OoO64()}, opt); err != nil {
		t.Fatal(err)
	}
	after := resultCache.Len()
	if after <= before {
		t.Fatalf("cache did not grow: %d -> %d", before, after)
	}
	if _, err := runSuites([]config.Config{config.OoO64()}, opt); err != nil {
		t.Fatal(err)
	}
	if resultCache.Len() != after {
		t.Fatalf("identical re-run grew the cache: %d -> %d", after, resultCache.Len())
	}
}

// Only Table 1's warm-up snapshots outlive the sweep that builds them:
// fig8bc's seven other L1 shapes and fig11's three other L2 sizes are each
// read by one experiment, so the pair leaves ckptStore one snapshot per
// benchmark larger, after each experiment.
func TestCkptStoreKeepsTable1Only(t *testing.T) {
	opt := tinyOpts()
	opt.MaxInsts = 2_000
	opt.WarmupInsts = 43_210 // budget no other test uses, so the keys are fresh
	want := len(workload.SuiteOf(workload.SuiteInt)) + len(workload.SuiteOf(workload.SuiteFP))
	before := ckptStore.Len()
	for _, e := range []struct {
		id  string
		run func(Options) (string, error)
	}{{"fig8bc", Fig8bc}, {"fig11", Fig11}} {
		if _, err := e.run(opt); err != nil {
			t.Fatal(err)
		}
		if got := ckptStore.Len() - before; got != want {
			t.Errorf("after %s ckptStore grew by %d snapshots, want %d (Table 1's, one per benchmark)", e.id, got, want)
		}
	}
}

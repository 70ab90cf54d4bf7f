// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5 and 6). Each experiment has a typed result and a
// Render method that prints rows in the paper's layout; cmd/paperbench
// dispatches on experiment id. See DESIGN.md for the per-experiment index
// and EXPERIMENTS.md for paper-vs-measured values.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Options scales experiment cost. The paper simulates 100M-instruction
// SimPoints; the defaults here run a deterministic scaled-down version and
// report per-100M-normalised rates, so rows remain directly comparable.
type Options struct {
	// MaxInsts is the measured instruction count per benchmark.
	MaxInsts uint64
	// WarmupInsts is the functional cache warm-up length.
	WarmupInsts uint64
	// Seed selects the workload instantiation.
	Seed uint64
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
}

// DefaultOptions returns the standard scaled-down experiment size.
func DefaultOptions() Options {
	return Options{MaxInsts: 100_000, WarmupInsts: 2_500_000, Seed: 1}
}

// apply stamps the options onto a config.
func (o Options) apply(cfg config.Config) config.Config {
	cfg.MaxInsts = o.MaxInsts
	cfg.WarmupInsts = o.WarmupInsts
	return cfg
}

// job is one (config, benchmark) simulation.
type job struct {
	cfg  config.Config
	prof workload.Profile
	out  **cpu.Result
}

// resultCache is shared by every experiment in the process, so experiments
// that revisit a configuration set (table2 and energy share all six rows)
// reuse the completed simulations instead of re-running them. Keys include
// the full config (with instruction budget), benchmark and seed, so runs at
// different Options never alias.
var resultCache = store.NewMem[cpu.Result]()

// ckptStore shares warm-up checkpoints the same way: every experiment
// sweeps timing-only axes over the Table 1 cache geometry, so each
// (benchmark, seed) pays its functional warm-up once per process instead of
// once per configuration. Results are bit-identical either way (the ckpt
// package's determinism contract).
var ckptStore = store.NewMem[ckpt.Snapshot]()

// runAll executes the jobs on the sweep engine's bounded worker pool.
// Results are written to each job's out slot, so callers keep a
// deterministic layout regardless of completion order.
func runAll(jobs []job, opt Options) error {
	sjobs := make([]sweep.Job, len(jobs))
	for i, j := range jobs {
		sjobs[i] = sweep.Job{Config: j.cfg, Bench: j.prof, Seed: opt.Seed}
	}
	runner := sweep.Runner{Workers: opt.Workers, Cache: resultCache, Checkpoints: ckptStore}
	outcomes, _, err := runner.Run(sjobs)
	if err != nil {
		return err
	}
	for i := range jobs {
		*jobs[i].out = outcomes[i].Result
	}
	return nil
}

// suiteRun holds one configuration's results over a whole suite.
type suiteRun struct {
	cfg     config.Config
	results []*cpu.Result // parallel to workload.SuiteOf(suite)
}

// runSuites runs each config over both suites and returns
// perConfig[suite] -> results.
func runSuites(cfgs []config.Config, opt Options) (map[int]map[workload.Suite]*suiteRun, error) {
	out := make(map[int]map[workload.Suite]*suiteRun)
	var jobs []job
	for ci, cfg := range cfgs {
		out[ci] = make(map[workload.Suite]*suiteRun)
		for _, suite := range []workload.Suite{workload.SuiteInt, workload.SuiteFP} {
			profs := workload.SuiteOf(suite)
			sr := &suiteRun{cfg: cfg, results: make([]*cpu.Result, len(profs))}
			out[ci][suite] = sr
			for pi, p := range profs {
				jobs = append(jobs, job{cfg: opt.apply(cfg), prof: p, out: &sr.results[pi]})
			}
		}
	}
	if err := runAll(jobs, opt); err != nil {
		return nil, err
	}
	return out, nil
}

// meanIPC averages IPC over a suite run.
func (sr *suiteRun) meanIPC() float64 {
	var s float64
	for _, r := range sr.results {
		s += r.IPC
	}
	return s / float64(len(sr.results))
}

// meanRelIPC returns the suite-mean of per-benchmark IPC relative to the
// same benchmark under the baseline run — the aggregation the paper uses
// for its "relative performance" figures, which keeps a single benchmark's
// collapse (equake under RSAC) visible in the suite bar.
func (sr *suiteRun) meanRelIPC(base *suiteRun) float64 {
	var s float64
	for i, r := range sr.results {
		s += r.IPC / base.results[i].IPC
	}
	return s / float64(len(sr.results))
}

// counterMeanMillions returns the suite-mean of the named counters' sum
// normalised to events per 100M committed instructions, expressed in
// millions (the paper's Table 2 unit). Each run's counts are summed as
// integers before the conversion.
func (sr *suiteRun) counterMeanMillions(names ...string) float64 {
	var s float64
	for _, r := range sr.results {
		var n uint64
		for _, name := range names {
			n += r.Counters.Get(name)
		}
		s += float64(n) / float64(r.Committed) * 1e8 / 1e6
	}
	return s / float64(len(sr.results))
}

// meanLLIdle averages the LL-LSQ idle fraction.
func (sr *suiteRun) meanLLIdle() float64 {
	var s float64
	for _, r := range sr.results {
		s += r.LLIdleFrac
	}
	return s / float64(len(sr.results))
}

// meanAvgEpochs averages the allocated-epoch count.
func (sr *suiteRun) meanAvgEpochs() float64 {
	var s float64
	for _, r := range sr.results {
		s += r.AvgEpochs
	}
	return s / float64(len(sr.results))
}

// Experiment is a named, runnable reproduction unit.
type Experiment struct {
	// ID is the paper artefact id ("fig7", "table2", ...).
	ID string
	// Title describes what is reproduced.
	Title string
	// Run executes the experiment and returns rendered output.
	Run func(opt Options) (string, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Decode→address-calculation locality distributions", func(o Options) (string, error) { return Fig1(o) }},
		{"tuning", "Section 5.2: epoch and LSQ sizing", func(o Options) (string, error) { return Tuning(o) }},
		{"fig7", "Speed-up of large-window LSQ schemes over OoO-64", func(o Options) (string, error) { return Fig7(o) }},
		{"fig8a", "ERT filter accuracy vs hash bits", func(o Options) (string, error) { return Fig8a(o) }},
		{"fig8bc", "Line vs hash ERT across L1 size/associativity", func(o Options) (string, error) { return Fig8bc(o) }},
		{"fig9", "Restricted disambiguation models", func(o Options) (string, error) { return Fig9(o) }},
		{"fig10", "SVW re-execution: SSBF size and window dependence", func(o Options) (string, error) { return Fig10(o) }},
		{"fig11", "LL-LSQ inactivity vs L2 size", func(o Options) (string, error) { return Fig11(o) }},
		{"table2", "LSQ component access counts", func(o Options) (string, error) { return Table2(o) }},
		{"energy", "Section 6: energy accounting", func(o Options) (string, error) { return Energy(o) }},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}

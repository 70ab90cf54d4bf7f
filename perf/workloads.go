package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/lsq"
	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

// spec is one workload: a fixed set of inputs chosen to stress some layers
// and bypass others (README.md gives each one's reason).
type spec struct {
	name  string
	suite workload.Suite
	cfg   config.Config
	// measure and warmup are the measured and functional warm-up
	// instructions per benchmark (paper-all: experiments.Options).
	measure, warmup uint64
	// replay drives every benchmark from a trace the run records first.
	replay bool
	// paper runs experiments.All() instead of one suite.
	paper bool
}

// contended is the ELSQ configuration whose fabric, placement and
// classifier layers all do real work: occupancy-modelled links,
// earliest-free bank placement and the cache-level predictor.
func contended() config.Config {
	c := config.Default()
	c.NoC = config.NoCContended
	c.Place = config.PlaceLeastLoaded
	c.Class = config.ClassCacheLevel
	return c
}

// specs are the benchmark's workloads. The budgets keep a suite pass under
// two seconds, so a 30-second run holds about twenty, and a paper-all pass
// near six; fp-trace warms up on 1M instructions because its set-up decodes
// every warm-up record twice (verify, then warm).
var specs = []*spec{
	{name: "int-live", suite: workload.SuiteInt, cfg: config.Default(), measure: 500_000, warmup: 2_500_000},
	{name: "fp-trace", suite: workload.SuiteFP, cfg: contended(), measure: 500_000, warmup: 1_000_000, replay: true},
	{name: "paper-all", cfg: config.Default(), measure: 25_000, warmup: 1_000_000, paper: true},
}

// paperWorkers is how many simulations paper-all's sweeps run at once.
const paperWorkers = 2

// procs is the GOMAXPROCS of the workload's child processes. A suite pass
// simulates one benchmark at a time on one goroutine, and the runtime's
// work beside it (the collector takes under 1% of the CPU) does not need a
// second P: in interleaved runs on a 2-vCPU host, fp-trace ran as fast or
// faster on one P, and steadier, with the second vCPU left idle.
func (s *spec) procs() int {
	if s.paper {
		return paperWorkers
	}
	return 1
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// paperSims is the number of simulations one experiments.All() pass runs:
// the distinct (configuration, benchmark) jobs left after the experiments'
// shared result cache. It turns a paper-all pass into simulated
// instructions; the seed-1 pin on the outputs changes whenever the
// experiment set does, which is when this count must be measured again.
const paperSims = 1300

// pin is the expected outcome of every pass at seed 1 and full budget.
type pin struct {
	// insts and cycles are a suite pass's committed instructions and
	// simulated cycles, summed over its benchmarks.
	insts, cycles uint64
	// digest is paper-all's sha256 over the concatenated experiment outputs.
	digest string
}

// pins were measured at seed 1; fp-trace's totals equal a live run of the
// same configuration, so its pin also checks that replay matches live
// generation.
var pins = map[string]pin{
	"int-live":  {insts: 6_000_000, cycles: 9_484_356},
	"fp-trace":  {insts: 7_000_000, cycles: 8_206_505},
	"paper-all": {digest: "9abe81ed7695b60aac059b1f828ff382ed8d0d6d413c2fc8b370a606cac3d41b"},
}

// matches reports whether a pass reproduces the pin.
func (p pin) matches(r passRecord) bool {
	if p.digest != "" {
		return r.Digest == p.digest
	}
	return r.Insts == p.insts && r.Cycles == p.cycles
}

// instance is one child's set-up of a workload: everything its timed
// passes reuse.
type instance struct {
	*spec
	seed    uint64
	cfg     config.Config // budget applied
	benches []workload.Profile
	paths   []string         // replay: the trace of each benchmark
	snaps   []*ckpt.Snapshot // the warm-up checkpoint of each benchmark
	opts    experiments.Options
	tr      *tracer
	// counts sums every result counter over the passes when tracing.
	counts map[string]uint64
}

// setup builds what the timed passes need: a warm-up checkpoint per
// benchmark (built from the recorded traces in traceDir when replaying).
// paper-all needs nothing; its warm-ups run inside the experiments. scale
// divides the budgets (1 = full size).
func (s *spec) setup(seed, scale uint64, traceDir string, tr *tracer) (*instance, error) {
	measure, warmup := s.measure/scale, s.warmup/scale
	in := &instance{spec: s, seed: seed, tr: tr, counts: map[string]uint64{}}
	if s.paper {
		in.opts = experiments.Options{MaxInsts: measure, WarmupInsts: warmup, Seed: seed, Workers: paperWorkers}
		return in, nil
	}
	in.cfg = s.cfg.WithBudget(measure, warmup)
	in.benches = workload.SuiteOf(s.suite)
	for _, p := range in.benches {
		cfg := in.cfg
		if s.replay {
			cfg.TracePath = trace.BenchPath(traceDir, p.Name, seed)
			end := tr.begin("trace.Resolve", p.Name)
			err := trace.Resolve(&cfg)
			end()
			if err != nil {
				return nil, err
			}
			in.paths = append(in.paths, cfg.TracePath)
		}
		end := tr.begin("ckpt.Build", p.Name)
		snap, err := ckpt.Build(&cfg, p, seed)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		in.snaps = append(in.snaps, snap)
	}
	return in, nil
}

// recordTraces writes a trace of every benchmark of the suite at seed,
// covering the warm-up and the measured instructions, into dir.
func (s *spec) recordTraces(dir string, seed, scale uint64) error {
	n := s.warmup/scale + s.measure/scale
	for _, p := range workload.SuiteOf(s.suite) {
		if err := recordTrace(trace.BenchPath(dir, p.Name, seed), p.New(seed), n); err != nil {
			return fmt.Errorf("record %s: %w", p.Name, err)
		}
	}
	return nil
}

func recordTrace(path string, src workload.Snapshottable, n uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	rec, err := trace.NewRecorder(w, src)
	if err == nil {
		err = rec.Record(n)
	}
	if err == nil {
		err = rec.Close()
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// passRecord is what one timed pass produced.
type passRecord struct {
	WallNS   int64 `json:"wall_ns"`
	Profiled bool  `json:"profiled,omitempty"`
	// Insts and Cycles are the simulated instructions and cycles of the
	// pass (paper-all: paperSims measured budgets, no cycles).
	Insts  uint64 `json:"insts"`
	Cycles uint64 `json:"cycles,omitempty"`
	// Digest is paper-all's sha256 over the concatenated outputs.
	Digest string     `json:"digest,omitempty"`
	Ops    []opRecord `json:"ops"`
}

// opRecord is one operation of a pass: a benchmark's simulation, or one
// experiment.
type opRecord struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
	// Segs splits a simulation's NS at every segmentOps-th committed memory
	// operation; the simulation is deterministic, so segment i covers the
	// same work in every pass.
	Segs   []int64 `json:"segs,omitempty"`
	Digest string  `json:"digest,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// segmentOps is the number of committed memory operations in one timed
// segment of a simulation: a few milliseconds of host time, short enough
// to fall between the bursts of work other tenants put on the host.
const segmentOps = 2048

// segmentClock times a simulation in segments: it observes the committed
// memory operations and closes a segment at every segmentOps-th.
type segmentClock struct {
	n    int
	last time.Time
	segs []int64
}

func (c *segmentClock) LoadCommitted(*lsq.MemOp)  { c.tick() }
func (c *segmentClock) StoreCommitted(*lsq.MemOp) { c.tick() }

func (c *segmentClock) tick() {
	if c.n++; c.n%segmentOps == 0 {
		c.lap()
	}
}

// lap closes the current segment.
func (c *segmentClock) lap() {
	now := time.Now()
	c.segs = append(c.segs, now.Sub(c.last).Nanoseconds())
	c.last = now
}

// pass runs the workload once and times it. Digests are taken after the
// clock stops.
func (in *instance) pass() passRecord {
	if in.paper {
		return in.paperPass()
	}
	outs := make([]*simrun.Outcome, len(in.benches))
	errs := make([]error, len(in.benches))
	ns := make([]int64, len(in.benches))
	clocks := make([]segmentClock, len(in.benches))
	start := time.Now()
	for i, p := range in.benches {
		c := &clocks[i]
		pt := simrun.Point{Config: in.cfg, Bench: p.Name, Seed: in.seed, Snapshot: in.snaps[i], Observer: c}
		if in.replay {
			pt.TracePath = in.paths[i]
		}
		end := in.tr.begin("simrun.Point.Run", p.Name)
		c.last = time.Now()
		t := c.last
		outs[i], errs[i] = pt.Run(nil)
		c.lap()
		ns[i] = time.Since(t).Nanoseconds()
		end()
	}
	rec := passRecord{WallNS: time.Since(start).Nanoseconds()}
	for i, p := range in.benches {
		op := opRecord{Name: p.Name, NS: ns[i], Segs: clocks[i].segs}
		switch {
		case errs[i] != nil:
			op.Err = errs[i].Error()
		case outs[i].Result.Committed != in.cfg.MaxInsts:
			op.Err = fmt.Sprintf("committed %d instructions, want %d", outs[i].Result.Committed, in.cfg.MaxInsts)
		default:
			r := outs[i].Result
			op.Digest = resultDigest(r, outs[i].Energy)
			rec.Insts += r.Committed
			rec.Cycles += uint64(r.Cycles)
			if in.tr != nil {
				addCounts(in.counts, r)
			}
		}
		rec.Ops = append(rec.Ops, op)
	}
	return rec
}

func (in *instance) paperPass() passRecord {
	all := experiments.All()
	outs := make([]string, len(all))
	errs := make([]error, len(all))
	ns := make([]int64, len(all))
	start := time.Now()
	for i, e := range all {
		end := in.tr.begin("Experiment.Run", e.ID)
		t := time.Now()
		outs[i], errs[i] = e.Run(in.opts)
		ns[i] = time.Since(t).Nanoseconds()
		end()
	}
	rec := passRecord{WallNS: time.Since(start).Nanoseconds(), Insts: paperSims * in.opts.MaxInsts}
	h := sha256.New()
	for i, e := range all {
		op := opRecord{Name: e.ID, NS: ns[i]}
		if errs[i] != nil {
			op.Err = errs[i].Error()
		} else {
			sum := sha256.Sum256([]byte(outs[i]))
			op.Digest = hex.EncodeToString(sum[:16])
		}
		h.Write([]byte(outs[i]))
		rec.Ops = append(rec.Ops, op)
	}
	rec.Digest = hex.EncodeToString(h.Sum(nil))
	return rec
}

// resultDigest folds every deterministic output of one simulation.
func resultDigest(r *cpu.Result, e *energy.Report) string {
	h := sha256.New()
	fmt.Fprint(h, r.Bench, r.Config, r.Committed, r.Cycles, math.Float64bits(r.IPC),
		r.Counters.Snapshot(), r.Activity.Snapshot(), *r.LoadDist, *r.StoreDist,
		math.Float64bits(r.LLIdleFrac), math.Float64bits(r.AvgEpochs), r.BankActiveCycles, e.Digest())
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// addCounts adds a result's counters and energy-activity counters (the two
// bags use disjoint names) to sum.
func addCounts(sum map[string]uint64, r *cpu.Result) {
	for k, v := range r.Counters.Snapshot() {
		sum[k] += v
	}
	for k, v := range r.Activity.Snapshot() {
		sum[k] += v
	}
}

// decodes returns how many trace blocks the replayed benchmarks have
// decoded so far, and how many blocks one pass spans.
func (in *instance) decodes() (decoded, spanned uint64, err error) {
	for _, path := range in.paths {
		t, err := trace.Cached(path)
		if err != nil {
			return 0, 0, err
		}
		br := uint64(t.Meta().BlockRecords)
		first := in.cfg.WarmupInsts / br
		last := (in.cfg.WarmupInsts + in.cfg.MaxInsts - 1) / br
		decoded += t.Decodes()
		spanned += last - first + 1
	}
	return decoded, spanned, nil
}

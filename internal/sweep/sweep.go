// Package sweep is the parallel configuration-sweep engine behind every
// grid-shaped evaluation in the reproduction. The paper's results are all
// (configuration × benchmark) grids — Table 2 and Figures 7–11 sweep
// ELSQ/baseline configs over the SPEC-like suites — and this package turns
// that shape into a first-class subsystem:
//
//   - Grid declaratively expands parameter axes (any config field ×
//     benchmarks × seeds) into Jobs;
//   - Runner executes jobs on a bounded worker pool with deterministic
//     per-job seeding, deduplication, progress reporting and an optional
//     result cache keyed by the full simulation identity;
//   - artifacts.go renders outcomes as JSON and CSV for plotting.
//
// internal/experiments sits on top of Runner; cmd/elsqsweep exposes
// arbitrary user-specified grids.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// Job is one (configuration, benchmark, seed) simulation. The instruction
// budget lives inside Config (MaxInsts/WarmupInsts), so a Job fully
// determines its result.
type Job struct {
	// Config is the complete simulation configuration.
	Config config.Config
	// Bench is the workload to run.
	Bench workload.Profile
	// Seed selects the workload instantiation.
	Seed uint64
	// Axes records the axis values that produced this job in a grid
	// expansion (nil for hand-built jobs). Purely descriptive: it labels
	// artifact rows and is not part of the cache identity.
	Axes map[string]string
}

// cacheVersion is mixed into every job key. Bump it whenever a change to
// the simulator or the workload generators alters results for an unchanged
// (config, benchmark, seed), so persistent caches (DiskCache) from older
// builds miss instead of silently serving stale numbers.
const cacheVersion = 3

// Key returns the stable cache identity of the job: a digest of the cache
// version, the canonical config encoding, the benchmark name, and the seed.
// Identical keys across processes and runs denote identical simulations.
func (j Job) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d", cacheVersion)
	h.Write([]byte{0})
	h.Write(j.Config.Canonical())
	h.Write([]byte{0})
	h.Write([]byte(j.Bench.Name))
	h.Write([]byte{0})
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], j.Seed)
	h.Write(seed[:])
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Outcome pairs a job with its result.
type Outcome struct {
	// Job is the input, unchanged.
	Job Job
	// Key is the job's cache identity.
	Key string
	// Result is the simulation outcome (nil if the job errored).
	Result *cpu.Result
	// CacheHit reports whether Result was served from the cache rather
	// than simulated in this run.
	CacheHit bool
}

// Stats summarises one Run call.
type Stats struct {
	// Total is the number of jobs submitted.
	Total int `json:"total"`
	// Unique is the number of distinct simulation identities among them.
	Unique int `json:"unique"`
	// CacheHits counts unique jobs served from the cache.
	CacheHits int `json:"cache_hits"`
	// Ran counts unique jobs actually simulated.
	Ran int `json:"ran"`
	// CheckpointsBuilt counts warm-up checkpoints built this run;
	// CheckpointResumes counts simulated jobs that skipped their functional
	// warm-up by resuming from a shared checkpoint (via the Runner's store
	// or a batched group's in-run warm-up sharing).
	CheckpointsBuilt  int `json:"checkpoints_built,omitempty"`
	CheckpointResumes int `json:"checkpoint_resumes,omitempty"`
}

// String renders the stats in the CLI's summary format.
func (s Stats) String() string {
	out := fmt.Sprintf("%d jobs (%d unique): %d simulated, %d cache hits",
		s.Total, s.Unique, s.Ran, s.CacheHits)
	if s.CheckpointsBuilt > 0 || s.CheckpointResumes > 0 {
		out += fmt.Sprintf(", %d warm-ups checkpointed, %d resumes", s.CheckpointsBuilt, s.CheckpointResumes)
	}
	return out
}

// Progress is delivered to a Runner's OnProgress callback once per unique
// job as it resolves.
type Progress struct {
	// Done and Total count unique jobs.
	Done, Total int
	// Outcome is the job that just resolved.
	Outcome Outcome
	// Err is the job's error, if it failed.
	Err error
}

// Runner executes sweep jobs on a bounded worker pool. The zero value runs
// with GOMAXPROCS workers and no cache.
type Runner struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// Cache, if non-nil, is consulted before simulating and updated after.
	Cache Cache
	// Checkpoints, if non-nil, persists warm-up sharing: jobs whose
	// warm-up-relevant identity matches (ckpt.Key — same cache geometry,
	// warm-up budget, benchmark and seed; almost every paper sweep) share
	// one warm-state snapshot through the store across runs and processes.
	// Batched groups share their warm-up within a run even without a
	// store. Results are bit-identical to full warm-up runs; only
	// wall-clock changes.
	Checkpoints ckpt.Store
	// OnProgress, if non-nil, is called after each unique job resolves.
	// Calls are serialised; the callback must not call back into the
	// Runner.
	OnProgress func(Progress)
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// defaultBatch caps how many warm-up-compatible jobs run as lanes of one
// batch on the lane-parallel engine (simrun.RunBatch): large enough that
// slab sharing and warm-up amortisation pay off, small enough that group
// granularity still feeds every worker of a typical pool.
const defaultBatch = 8

// slot is the execution state of one unique simulation identity.
type slot struct {
	job     Job
	key     string
	res     *cpu.Result
	hit     bool
	err     error
	indices []int // positions in the submitted job slice
}

// point maps a job onto the simrun API, threading the runner's checkpoint
// store through.
func (r *Runner) point(j Job) simrun.Point {
	return simrun.Point{
		Config: j.Config,
		Bench:  j.Bench.Name,
		Seed:   j.Seed,
		Ckpt:   r.Checkpoints,
	}
}

// Run executes the jobs and returns one outcome per job, in submission
// order regardless of completion order. Duplicate jobs (same Key) are
// simulated once and fanned out. On failure the first error is returned;
// unaffected jobs still complete, and the failed jobs' outcomes carry a nil
// Result.
func (r *Runner) Run(jobs []Job) ([]Outcome, Stats, error) {
	stats := Stats{Total: len(jobs)}
	byKey := make(map[string]*slot, len(jobs))
	var unique []*slot
	for i, j := range jobs {
		k := j.Key()
		s, ok := byKey[k]
		if !ok {
			s = &slot{job: j, key: k}
			byKey[k] = s
			unique = append(unique, s)
		}
		s.indices = append(s.indices, i)
	}
	stats.Unique = len(unique)

	var mu sync.Mutex // guards done counter, firstErr, OnProgress
	done := 0
	var firstErr error
	report := func(s *slot) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if s.err != nil && firstErr == nil {
			firstErr = s.err
		}
		if r.OnProgress != nil {
			r.OnProgress(Progress{
				Done:    done,
				Total:   len(unique),
				Outcome: Outcome{Job: s.job, Key: s.key, Result: s.res, CacheHit: s.hit},
				Err:     s.err,
			})
		}
	}

	// Resolve cache hits up front so the pool only sees real work.
	var pending []*slot
	for _, s := range unique {
		if r.Cache != nil {
			if res, ok := r.Cache.Get(s.key); ok {
				s.res, s.hit = res, true
				stats.CacheHits++
				report(s)
				continue
			}
		}
		pending = append(pending, s)
	}
	stats.Ran = len(pending)

	// Shape the pending slots into lane groups: warm-up-compatible jobs
	// run together on the batch engine, sharing one warm-up and adjacent
	// slab state; everything else runs scalar. Groups of one go through
	// the scalar path inside runGroup.
	groups := r.groupSlots(pending)
	var built, resumed atomic.Int64

	// Bounded pool: workers pull the next pending group from a shared
	// cursor, so an idle worker steals whatever work remains.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := cursor.Add(1) - 1
				if n >= int64(len(groups)) {
					return
				}
				r.runGroup(groups[n], &built, &resumed)
				for _, s := range groups[n] {
					if s.err == nil && r.Cache != nil {
						r.Cache.Put(s.key, s.res)
					}
					report(s)
				}
			}
		}()
	}
	wg.Wait()
	stats.CheckpointsBuilt = int(built.Load())
	stats.CheckpointResumes = int(resumed.Load())

	out := make([]Outcome, len(jobs))
	for _, s := range unique {
		for _, i := range s.indices {
			// Each outcome keeps its own submitted Job (duplicates may
			// carry distinct Axes labels); only the execution state comes
			// from the shared slot.
			out[i] = Outcome{Job: jobs[i], Key: s.key, Result: s.res, CacheHit: s.hit}
		}
	}
	return out, stats, firstErr
}

// groupSlots partitions pending slots into execution groups: slots whose
// simrun batch key matches (same benchmark, seed and warm-up-relevant
// config slice) are grouped up to defaultBatch; a slot whose key cannot
// be computed gets a singleton group so its error surfaces from the scalar
// path.
func (r *Runner) groupSlots(pending []*slot) [][]*slot {
	byWarm := make(map[string][]*slot)
	var order []string
	var groups [][]*slot
	for _, s := range pending {
		bk, err := r.point(s.job).BatchKey()
		if err != nil {
			groups = append(groups, []*slot{s})
			continue
		}
		if _, ok := byWarm[bk]; !ok {
			order = append(order, bk)
		}
		byWarm[bk] = append(byWarm[bk], s)
	}
	for _, bk := range order {
		g := byWarm[bk]
		for len(g) > defaultBatch {
			groups = append(groups, g[:defaultBatch])
			g = g[defaultBatch:]
		}
		groups = append(groups, g)
	}
	return groups
}

// runGroup executes one group — scalar for a singleton, lanes of a batch
// otherwise — and writes each slot's result, error and checkpoint stats.
func (r *Runner) runGroup(g []*slot, built, resumed *atomic.Int64) {
	if len(g) == 1 {
		s := g[0]
		out, err := r.point(s.job).Run(context.Background())
		if err != nil {
			s.err = fmt.Errorf("%s/%s: %w", s.job.Config.Name(), s.job.Bench.Name, err)
			return
		}
		s.res = out.Result
		r.countOutcome(out, built, resumed)
		return
	}
	points := make([]simrun.Point, len(g))
	for i, s := range g {
		points[i] = r.point(s.job)
	}
	outs, err := simrun.RunBatch(context.Background(), points)
	if err != nil {
		for _, s := range g {
			s.err = err
		}
		return
	}
	for i, s := range g {
		out := outs[i]
		if out.Err != nil {
			s.err = fmt.Errorf("%s/%s: %w", s.job.Config.Name(), s.job.Bench.Name, out.Err)
			continue
		}
		s.res = out.Result
		r.countOutcome(out, built, resumed)
	}
}

// countOutcome folds one outcome's warm-up bookkeeping into the run stats.
func (r *Runner) countOutcome(out *simrun.Outcome, built, resumed *atomic.Int64) {
	if out.CkptBuilt {
		built.Add(1)
	}
	if out.Resumed {
		resumed.Add(1)
	}
}

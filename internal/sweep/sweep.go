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
	"repro/internal/store"
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
// (config, benchmark, seed), so persistent caches (NewDiskCache) from older
// builds miss instead of silently serving stale numbers.
const cacheVersion = 4

// NewDiskCache opens a persistent result cache over dir (cmd/elsqsweep
// -cachedir; see internal/store for the entry format). An entry that
// parses but cannot be a real simulation result (a stale schema, a foreign
// file) is a miss: a miss re-simulates, a bad hit poisons artifacts.
func NewDiskCache(dir string) (*store.Disk[cpu.Result], error) {
	return store.NewDisk(dir, func(_ string, r *cpu.Result) bool {
		return r.Counters != nil && r.LoadDist != nil && r.StoreDist != nil &&
			r.Committed != 0 && r.Bench != ""
	})
}

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
	// warm-up by resuming from a shared checkpoint.
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
	Cache store.Store[cpu.Result]
	// Checkpoints, if non-nil, keeps warm-up checkpoints beyond a Run: the
	// Run reads a snapshot from it before building one and passes it every
	// snapshot it builds, so a persistent store carries them across runs
	// and processes. With or without it, a Run shares warm-ups among its
	// own jobs: jobs whose warm-up-relevant identity matches (ckpt.Key —
	// same cache geometry, warm-up budget, benchmark and seed; almost every
	// paper sweep) resume from one snapshot, which the Run holds until the
	// last of them has finished. Results are bit-identical to full warm-up
	// runs; only wall-clock and memory change.
	Checkpoints store.Store[ckpt.Snapshot]
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

// slot is the execution state of one unique simulation identity.
type slot struct {
	job     Job
	key     string
	ckptKey string // ckpt.Key of the job's warm-up
	res     *cpu.Result
	hit     bool
	err     error
	indices []int // positions in the submitted job slice
}

// Run executes the jobs and returns one outcome per job, in submission
// order regardless of completion order. Duplicate jobs (same Key) are
// simulated once and fanned out. Jobs that are not cache hits run grouped
// by warm-up geometry (cache geometry and warm-up budget), groups in order
// of first appearance and jobs within a group in submission order, so
// OnProgress sees them in that order. On failure the first error is
// returned; unaffected jobs still complete, and the failed jobs' outcomes
// carry a nil Result.
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
		s.ckptKey = ckpt.Key(&s.job.Config, s.job.Bench.Name, s.job.Seed)
		pending = append(pending, s)
	}
	stats.Ran = len(pending)
	pending = groupByGeometry(pending)
	warm := newWarmups(r.Checkpoints, pending)
	var built, resumed atomic.Int64

	// Bounded pool: workers pull the next pending job from a shared
	// cursor, so an idle worker steals whatever work remains.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := cursor.Add(1) - 1
				if n >= int64(len(pending)) {
					return
				}
				s := pending[n]
				p := simrun.Point{Config: s.job.Config, Bench: s.job.Bench.Name, Seed: s.job.Seed, Ckpt: warm}
				out, err := p.Run(nil)
				warm.release(s.ckptKey)
				if err != nil {
					s.err = fmt.Errorf("%s/%s: %w", s.job.Config.Name(), s.job.Bench.Name, err)
				} else {
					s.res = out.Result
					if out.CkptBuilt {
						built.Add(1)
					}
					if out.Resumed {
						resumed.Add(1)
					}
					if r.Cache != nil {
						r.Cache.Put(s.key, s.res)
					}
				}
				report(s)
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

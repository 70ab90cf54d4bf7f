package sweep

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/store"
)

// weakCkpts is a checkpoint store that keeps nothing: it records a weak
// pointer to each snapshot put into it, so a test can count the snapshots
// something else still keeps alive.
type weakCkpts struct {
	mu   sync.Mutex
	ptrs []weak.Pointer[ckpt.Snapshot]
}

func (w *weakCkpts) Get(string) (*ckpt.Snapshot, bool) { return nil, false }

func (w *weakCkpts) Put(_ string, snap *ckpt.Snapshot) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ptrs = append(w.ptrs, weak.Make(snap))
}

// alive collects garbage and counts the snapshots still reachable.
func (w *weakCkpts) alive() int {
	runtime.GC()
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, p := range w.ptrs {
		if p.Value() != nil {
			n++
		}
	}
	return n
}

// liveRun runs jobs over a weakCkpts store and returns the most snapshots
// alive after any job resolved, the count after each job, and the Run's
// stats and error.
func liveRun(jobs []Job, workers int) (peak int, after []int, stats Stats, err error) {
	w := &weakCkpts{}
	r := Runner{Workers: workers, Checkpoints: w, OnProgress: func(Progress) {
		n := w.alive()
		peak = max(peak, n)
		after = append(after, n)
	}}
	_, stats, err = r.Run(jobs)
	after = append(after, w.alive())
	return peak, after, stats, err
}

// TestRunDropsSnapshotsAfterLastJob bounds the warm-up snapshots a Run
// keeps alive. The grid visits each L2 size once per ERT kind; run grouped
// by geometry, it holds at most one geometry's snapshots plus one per
// worker, builds each once, and holds none after Run returns.
func TestRunDropsSnapshotsAfterLastJob(t *testing.T) {
	grid := geometryGrid(t)
	jobs, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	perGeometry := len(grid.Benches) * len(grid.Seeds)
	for _, workers := range []int{1, 2} {
		peak, after, stats, err := liveRun(jobs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if want := 3 * perGeometry; stats.CheckpointsBuilt != want {
			t.Errorf("Workers=%d built %d checkpoints, want %d (one per key)", workers, stats.CheckpointsBuilt, want)
		}
		if bound := perGeometry + workers; peak > bound {
			t.Errorf("Workers=%d kept %d snapshots alive, want at most %d", workers, peak, bound)
		}
		if n := after[len(after)-1]; n != 0 {
			t.Errorf("Workers=%d: %d snapshots alive after Run returned", workers, n)
		}
	}
}

// TestRunKeepsUncountedSnapshots runs a trace-driven pair whose trace
// digest the points resolve themselves, so the snapshot is stored under a
// key the Run did not count: it is kept until the Run ends and shared,
// never rebuilt.
func TestRunKeepsUncountedSnapshots(t *testing.T) {
	cfg := config.Default().WithBudget(1000, 2500)
	cfg.TracePath = recordTrace(t, t.TempDir(), &cfg, "swim", 1)
	other := cfg
	other.MigrateThreshold = 24
	jobs := []Job{
		{Config: cfg, Bench: bench(t, "swim"), Seed: 1},
		{Config: other, Bench: bench(t, "swim"), Seed: 1},
	}
	_, after, stats, err := liveRun(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointsBuilt != 1 || stats.CheckpointResumes != 2 {
		t.Errorf("built %d checkpoints with %d resumes, want 1 and 2", stats.CheckpointsBuilt, stats.CheckpointResumes)
	}
	if want := []int{1, 1, 0}; !slices.Equal(after, want) {
		t.Errorf("snapshots alive after each job and after Run: %v, want %v", after, want)
	}
}

// TestFailedJobReleasesSnapshot: a job that fails still counts as the
// last job of its warm-up, so the snapshot its sibling built is dropped.
func TestFailedJobReleasesSnapshot(t *testing.T) {
	bad := tinyConfig()
	bad.FetchWidth = 0 // a timing field: same warm-up, and the point fails
	jobs := []Job{
		{Config: tinyConfig(), Bench: bench(t, "gzip"), Seed: 1},
		{Config: bad, Bench: bench(t, "gzip"), Seed: 1},
	}
	_, after, _, err := liveRun(jobs, 1)
	if err == nil {
		t.Fatal("the invalid job ran")
	}
	if want := []int{1, 0, 0}; !slices.Equal(after, want) {
		t.Errorf("snapshots alive after each job and after Run: %v, want %v", after, want)
	}
}

// countingCkpts counts the lookups that reach a checkpoint store.
type countingCkpts struct {
	store.Store[ckpt.Snapshot]
	gets atomic.Int64
}

func (c *countingCkpts) Get(key string) (*ckpt.Snapshot, bool) {
	c.gets.Add(1)
	return c.Store.Get(key)
}

// TestRunReadsEachStoredSnapshotOnce: over a warm disk store, a Run reads
// each snapshot from the store once and resumes every other job with that
// key from its own copy, instead of re-reading and re-decoding the file
// per job.
func TestRunReadsEachStoredSnapshotOnce(t *testing.T) {
	g := detGrid(t, "gzip", 1, 1_000, 10_000, "migrate.threshold=8,16,24,32,40,48")
	var err error
	if g.Benches, err = SuiteBenches("int"); err != nil {
		t.Fatal(err)
	}
	jobs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	disk, err := ckpt.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := Runner{Workers: 2, Checkpoints: disk}
	want, stats, err := cold.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointsBuilt != len(g.Benches) {
		t.Fatalf("cold run built %d checkpoints, want %d", stats.CheckpointsBuilt, len(g.Benches))
	}

	counted := &countingCkpts{Store: disk}
	warm := Runner{Workers: 2, Checkpoints: counted}
	got, stats, err := warm.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := counted.gets.Load(); n != int64(len(g.Benches)) {
		t.Errorf("%d jobs read the store %d times, want %d (once per key)", len(jobs), n, len(g.Benches))
	}
	if stats.CheckpointsBuilt != 0 || stats.CheckpointResumes != len(jobs) {
		t.Errorf("warm run built %d checkpoints with %d resumes, want 0 and %d",
			stats.CheckpointsBuilt, stats.CheckpointResumes, len(jobs))
	}
	if ResultsDigest(got) != ResultsDigest(want) {
		t.Error("warm run diverged from the cold run")
	}
}

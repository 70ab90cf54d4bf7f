package sweep

import (
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/simrun"
	"repro/internal/store"
	"repro/internal/workload"
)

// detJobs builds a small grid of distinct simulation identities.
func detJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, name := range []string{"gcc", "swim", "mcf"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 2; seed++ {
			cfg := config.Default().WithBudget(2_000, 10_000)
			jobs = append(jobs, Job{Config: cfg, Bench: prof, Seed: seed})
		}
	}
	return jobs
}

// detGrid builds a grid from CLI-syntax axes over named benchmarks at a
// measured/warm-up budget, seeds 1..seeds, on the default configuration.
func detGrid(t *testing.T, benches string, seeds, insts, warmup uint64, axes ...string) Grid {
	t.Helper()
	g := Grid{Base: config.Default().WithBudget(insts, warmup)}
	for _, a := range axes {
		ax, err := ParseAxis(a)
		if err != nil {
			t.Fatal(err)
		}
		g.Axes = append(g.Axes, ax)
	}
	var err error
	if g.Benches, err = NamedBenches(benches); err != nil {
		t.Fatal(err)
	}
	for s := uint64(1); s <= seeds; s++ {
		g.Seeds = append(g.Seeds, s)
	}
	return g
}

// TestDeterminismAcrossWorkerCounts pins the sweep contract behind the
// result cache and the matrix fixture: the same grid must produce identical
// keys, results and results digest no matter how the work is scheduled, and
// it must build exactly one warm-up checkpoint per (benchmark, seed). Each
// grid runs as elsqsweep runs it by default — with a fresh in-memory
// checkpoint store — at Workers=1 (serial) and Workers=8 (jobs of one
// warm-up racing to build it). The scaling grid pins the
// contended fabric's calendar booking and every placement policy; the
// classifier grid pins the table-based prediction policies. Both sweep
// timing-only axes, so all their points share one warm-up per benchmark.
// The storage grid varies both cache geometries (4 warm-ups per benchmark)
// and, through 32 engines, the calendar horizon, so freed calendar rings
// and line arrays of several lengths pass between workers.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		grid Grid
		// warmKeys is the number of distinct warm-ups per benchmark and
		// seed the grid's axes make.
		warmKeys int
	}{
		{"default", detGrid(t, "gzip,swim,mcf", 2, 2_000, 10_000, "ert=line,hash"), 1},
		{"scaling", detGrid(t, "mcf,swim", 1, 5_000, 20_000,
			"epochs=8,32", "place.policy=modn,leastloaded,steal", "noc.model=analytic,contended"), 1},
		{"classifier", detGrid(t, "mcf,swim", 1, 5_000, 20_000,
			"class.policy=reactive,cachelevel,delaytrack", "class.bits=8,10"), 1},
		{"storage", detGrid(t, "mcf,swim", 1, 5_000, 20_000,
			"l1.ways=1,4", "l2.size=1M,8M", "epochs=16,32", "noc.model=analytic,contended"), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs, err := tc.grid.Expand()
			if err != nil {
				t.Fatal(err)
			}
			wantBuilt := len(tc.grid.Benches) * len(tc.grid.Seeds) * tc.warmKeys
			run := func(workers int) []Outcome {
				r := &Runner{Workers: workers, Checkpoints: store.NewMem[ckpt.Snapshot]()}
				out, stats, err := r.Run(jobs)
				if err != nil {
					t.Fatal(err)
				}
				if stats.CheckpointsBuilt != wantBuilt {
					t.Errorf("Workers=%d built %d checkpoints, want %d (one per warm-up, benchmark and seed)",
						workers, stats.CheckpointsBuilt, wantBuilt)
				}
				return out
			}
			serial, parallel := run(1), run(8)
			if ds, dp := ResultsDigest(serial), ResultsDigest(parallel); ds != dp {
				t.Errorf("results digest %s (Workers=1) != %s (Workers=8)", ds, dp)
			}
			for i := range jobs {
				if serial[i].Key != parallel[i].Key {
					t.Errorf("job %d: key %s (serial) != %s (parallel)", i, serial[i].Key, parallel[i].Key)
				}
				if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
					t.Errorf("job %d (%s/%s seed %d): results differ between Workers=1 and Workers=8",
						i, jobs[i].Config.Name(), jobs[i].Bench.Name, jobs[i].Seed)
				}
			}
		})
	}
}

// TestDeterminismAcrossRuns re-runs the same jobs in one process: repeated
// execution must be bit-identical (the cross-process half of this
// guarantee is pinned by the committed fixtures testdata/golden.json and
// testdata/matrix.json at the repository root, both produced by earlier
// processes).
func TestDeterminismAcrossRuns(t *testing.T) {
	jobs := detJobs(t)
	r := &Runner{}
	first, _, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if first[i].Key != second[i].Key {
			t.Errorf("job %d: key changed across runs", i)
		}
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Errorf("job %d: result changed across runs", i)
		}
	}
}

// TestKeyStability pins the literal cache-key values of two known jobs: a
// changed key silently invalidates every persistent cache and the bench
// baseline, so changing it must be a conscious act (bump cacheVersion).
func TestKeyStability(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithBudget(2_000, 10_000)
	j := Job{Config: cfg, Bench: prof, Seed: 1}
	k1, k2 := j.Key(), j.Key()
	if k1 != k2 {
		t.Fatalf("Key not stable within process: %s vs %s", k1, k2)
	}
	j2 := j
	j2.Seed = 2
	if j.Key() == j2.Key() {
		t.Error("different seeds share a key")
	}
	j3 := j
	j3.Config.SQM = false
	if j.Key() == j3.Key() {
		t.Error("different configs share a key")
	}
	// Axes labels are descriptive only and must not affect identity.
	j4 := j
	j4.Axes = map[string]string{"label": "x"}
	if j.Key() != j4.Key() {
		t.Error("Axes labels changed the cache key")
	}
}

// TestCheckpointedRunMatchesFull pins the checkpoint-sharing contract: a
// Runner with a checkpoint store produces outcomes bit-identical to one
// without, while running each distinct warm-up only once.
func TestCheckpointedRunMatchesFull(t *testing.T) {
	// Three configs differing only in non-warm-up fields (the shape of
	// every paper sweep), over two benchmarks.
	var jobs []Job
	muts := []func(*config.Config){
		nil,
		func(c *config.Config) { c.ERT = config.ERTLine },
		func(c *config.Config) { c.MigrateThreshold = 24 },
	}
	for _, name := range []string{"gcc", "swim"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mut := range muts {
			cfg := config.Default().WithBudget(2_000, 40_000)
			if mut != nil {
				mut(&cfg)
			}
			jobs = append(jobs, Job{Config: cfg, Bench: prof, Seed: 1})
		}
	}

	// The reference: each job run alone with a full functional warm-up.
	want := make([]*cpu.Result, len(jobs))
	for i, j := range jobs {
		out, err := simrun.Point{Config: j.Config, Bench: j.Bench.Name, Seed: j.Seed}.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out.Result
	}

	// A store-less runner still shares warm-ups in-run, through a fresh
	// memory store of its own: one build per (benchmark, seed), every job
	// resumed, results bit-identical to the full-warm-up runs.
	storeless := &Runner{Workers: 4}
	slOut, slStats, err := storeless.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if slStats.CheckpointsBuilt != 2 {
		t.Errorf("store-less run built %d checkpoints, want 2 (one per benchmark)", slStats.CheckpointsBuilt)
	}
	if slStats.CheckpointResumes != len(jobs) {
		t.Errorf("store-less run resumed %d jobs, want %d", slStats.CheckpointResumes, len(jobs))
	}
	for i := range want {
		if jobs[i].Key() != slOut[i].Key || !reflect.DeepEqual(want[i], slOut[i].Result) {
			t.Errorf("job %d: store-less outcome diverged from full run", i)
		}
	}

	ckptd := &Runner{Workers: 4, Checkpoints: store.NewMem[ckpt.Snapshot]()}
	gotOut, gotStats, err := ckptd.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats.CheckpointsBuilt != 2 {
		t.Errorf("built %d checkpoints, want 2 (one per benchmark)", gotStats.CheckpointsBuilt)
	}
	if gotStats.CheckpointResumes != len(jobs) {
		t.Errorf("resumed %d jobs, want %d", gotStats.CheckpointResumes, len(jobs))
	}
	for i := range want {
		if jobs[i].Key() != gotOut[i].Key || !reflect.DeepEqual(want[i], gotOut[i].Result) {
			t.Errorf("job %d: checkpointed outcome diverged from full run", i)
		}
	}

	// A second run against the same store resumes every job from disk-free
	// memory hits and builds nothing.
	again, againStats, err := ckptd.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if againStats.CheckpointsBuilt != 0 {
		t.Errorf("second run rebuilt %d checkpoints, want 0", againStats.CheckpointsBuilt)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], again[i].Result) {
			t.Errorf("job %d: second checkpointed run diverged", i)
		}
	}
}

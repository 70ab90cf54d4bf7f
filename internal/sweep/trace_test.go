package sweep

import (
	"os"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/simrun"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordTrace writes a full-budget recording of (bench, seed) under cfg and
// returns its path.
func recordTrace(t *testing.T, dir string, cfg *config.Config, bench string, seed uint64) string {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	path := trace.BenchPath(dir, bench, seed)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := trace.NewRecorder(f, prof.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(cfg.WarmupInsts + cfg.MaxInsts); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGridTraceAxis checks the trace sweep axis end to end: expansion
// resolves content digests (so job keys are content-addressed, and the same
// recording under two paths dedups to one simulation), and trace-driven
// jobs produce results identical to their live-generator twin.
func TestGridTraceAxis(t *testing.T) {
	cfg := config.Default().WithBudget(1500, 3000)
	dir := t.TempDir()
	path := recordTrace(t, dir, &cfg, "gzip", 1)

	// The same recording under a second path: one simulation, two jobs.
	alias := trace.BenchPath(dir, "gzip-alias", 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(alias, data, 0o644); err != nil {
		t.Fatal(err)
	}

	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Base:    cfg,
		Axes:    []Axis{{Field: "trace", Values: []string{path, alias}}},
		Benches: []workload.Profile{prof},
	}
	jobs, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("expanded %d jobs, want 2", len(jobs))
	}
	for i, j := range jobs {
		if j.Config.TraceDigest == "" {
			t.Fatalf("job %d: Expand left the trace digest unresolved", i)
		}
	}
	if jobs[0].Key() != jobs[1].Key() {
		t.Error("identical trace content under two paths split the job key")
	}

	r := Runner{Workers: 2}
	out, stats, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ran != 1 {
		t.Errorf("ran %d simulations, want 1 (path-aliased jobs must dedup)", stats.Ran)
	}

	liveOut, _, err := r.Run([]Job{{Config: cfg, Bench: prof, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out[0].Result, liveOut[0].Result; got.Cycles != want.Cycles || got.IPC != want.IPC {
		t.Errorf("trace-driven sweep result diverged from live: %d cycles IPC %v, want %d cycles IPC %v",
			got.Cycles, got.IPC, want.Cycles, want.IPC)
	}

	// A bad path fails at expansion, with the point named.
	bad := Grid{
		Base:    cfg,
		Axes:    []Axis{{Field: "trace", Values: []string{trace.BenchPath(dir, "missing", 1)}}},
		Benches: []workload.Profile{prof},
	}
	if _, err := bad.Expand(); err == nil {
		t.Error("expansion accepted a missing trace file")
	}
}

// TestTraceJobsShareCheckpoints checks the warm-up-sharing path under
// traces: two configs differing only in timing axes share one trace-backed
// warm-up checkpoint.
func TestTraceJobsShareCheckpoints(t *testing.T) {
	cfg := config.Default().WithBudget(1000, 2500)
	dir := t.TempDir()
	cfg.TracePath = recordTrace(t, dir, &cfg, "swim", 1)
	if err := trace.Resolve(&cfg); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.MigrateThreshold = 24

	prof, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Config: cfg, Bench: prof, Seed: 1},
		{Config: other, Bench: prof, Seed: 1},
	}
	full := make([]*cpu.Result, len(jobs))
	for i, j := range jobs {
		out, err := simrun.Point{Config: j.Config, Bench: j.Bench.Name, Seed: j.Seed}.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		full[i] = out.Result
	}

	r := Runner{Workers: 1, Checkpoints: store.NewMem[ckpt.Snapshot]()}
	shared, stats, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointsBuilt != 1 || stats.CheckpointResumes != 2 {
		t.Errorf("built %d checkpoints with %d resumes, want 1 and 2",
			stats.CheckpointsBuilt, stats.CheckpointResumes)
	}
	for i := range jobs {
		if full[i].Cycles != shared[i].Result.Cycles || full[i].IPC != shared[i].Result.IPC {
			t.Errorf("job %d: checkpoint-shared trace run diverged from full run", i)
		}
	}
}

// TestCorruptTraceFailsCheckpointBuild: a trace damaged past the warm-up
// region, or in its trailer's content digest, fails the job's warm-up
// build even though the warm-up reads only intact blocks, and the
// checkpoint store stays empty.
func TestCorruptTraceFailsCheckpointBuild(t *testing.T) {
	cfg := config.Default().WithBudget(4000, 5000)
	dir := t.TempDir()
	data, err := os.ReadFile(recordTrace(t, dir, &cfg, "swim", 1))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	const trailerLen = 32
	for _, tc := range []struct {
		name string
		off  int // byte flipped
	}{
		// The 9,000 records fill blocks 0 and 1 and part of block 2; the
		// byte sits inside block 2's payload, past the 5,000-record warm-up.
		{"block past the warm-up", len(data) - trailerLen - 1 - 40},
		{"trailer digest", len(data) - 12},
	} {
		flipped := append([]byte(nil), data...)
		flipped[tc.off] ^= 0x20
		path := trace.BenchPath(t.TempDir(), "swim", 1)
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := trace.New(flipped)
		if err != nil {
			t.Fatal(err)
		}
		verdict := tr.Verify()
		if verdict == nil {
			t.Fatalf("%s: the flip verified clean", tc.name)
		}
		for i := range 2 {
			if _, err := tr.Block(i); err != nil {
				t.Fatalf("%s: warm-up block %d: %v", tc.name, i, err)
			}
		}
		job := Job{Config: cfg, Bench: prof, Seed: 1}
		job.Config.TracePath = path
		if err := trace.Resolve(&job.Config); err != nil {
			t.Fatal(err)
		}
		ckpts := store.NewMem[ckpt.Snapshot]()
		r := Runner{Workers: 1, Checkpoints: ckpts}
		out, _, err := r.Run([]Job{job})
		if err == nil || out[0].Result != nil {
			t.Errorf("%s: the job ran", tc.name)
		} else if !strings.Contains(err.Error(), verdict.Error()) {
			t.Errorf("%s: the job failed with %q, not Verify's %q", tc.name, err, verdict)
		}
		if ckpts.Len() != 0 {
			t.Errorf("%s: the failed build stored %d checkpoints", tc.name, ckpts.Len())
		}
	}
}

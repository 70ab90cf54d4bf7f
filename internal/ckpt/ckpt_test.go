// External tests for the checkpoint subsystem. They live outside the package
// so they can drive full simulations through internal/simrun — the only
// component allowed to construct simulators.
package ckpt_test

import (
	"bytes"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/simrun"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testConfig(mut func(*config.Config)) config.Config {
	cfg := config.Default()
	cfg.MaxInsts = 10_000
	cfg.WarmupInsts = 60_000
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// run simulates (cfg, bench, seed), resumed from snap when non-nil.
func run(t *testing.T, cfg config.Config, bench string, seed uint64, snap *ckpt.Snapshot) *cpu.Result {
	t.Helper()
	out, err := simrun.Point{Config: cfg, Bench: bench, Seed: seed, Snapshot: snap}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.Result
}

// resultsEqual compares every deterministic field of two results.
func resultsEqual(a, b *cpu.Result) bool {
	return a.Bench == b.Bench && a.Config == b.Config &&
		a.Committed == b.Committed && a.Cycles == b.Cycles && a.IPC == b.IPC &&
		a.LLIdleFrac == b.LLIdleFrac && a.AvgEpochs == b.AvgEpochs &&
		reflect.DeepEqual(a.Counters.Snapshot(), b.Counters.Snapshot()) &&
		reflect.DeepEqual(a.LoadDist, b.LoadDist) &&
		reflect.DeepEqual(a.StoreDist, b.StoreDist)
}

// TestResumeMatchesFreshRun is the determinism contract of the package:
// resume-from-checkpoint must be bit-identical to a fresh full-warm-up run
// across every scheme/model path and a sampled-measurement config.
func TestResumeMatchesFreshRun(t *testing.T) {
	points := []struct {
		bench string
		seed  uint64
		mut   func(*config.Config)
	}{
		{"swim", 1, nil},
		{"gcc", 1, nil},
		{"mcf", 2, nil},
		{"equake", 1, func(c *config.Config) { c.Disamb = config.DisambRSAC }},
		{"gcc", 1, func(c *config.Config) { c.ERT = config.ERTLine }},
		{"swim", 1, func(c *config.Config) { c.LSQ = config.LSQSVW }},
		{"gcc", 1, func(c *config.Config) { c.LSQ = config.LSQCentral }},
		{"gcc", 1, func(c *config.Config) {
			c.Model = config.ModelOoO
			c.LSQ = config.LSQConventional
		}},
		{"twolf", 1, func(c *config.Config) {
			c.SampleIntervals = 4
			c.SampleBleedInsts = 5_000
		}},
	}
	for _, pt := range points {
		pt := pt
		cfg := testConfig(pt.mut)
		t.Run(cfg.Name()+"/"+pt.bench, func(t *testing.T) {
			prof := mustProfile(t, pt.bench)

			want := run(t, cfg, pt.bench, pt.seed, nil)

			snap, err := ckpt.Build(&cfg, prof, pt.seed)
			if err != nil {
				t.Fatal(err)
			}
			got := run(t, cfg, pt.bench, pt.seed, snap)

			if !resultsEqual(want, got) {
				t.Errorf("resumed run diverged from fresh run:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestKeySharing pins which config fields partition the checkpoint space:
// timing-only fields share, warm-up-relevant fields split.
func TestKeySharing(t *testing.T) {
	base := testConfig(nil)
	k := ckpt.Key(&base, "swim", 1)

	share := []func(*config.Config){
		func(c *config.Config) { c.LSQ = config.LSQSVW },
		func(c *config.Config) { c.ERT = config.ERTLine },
		func(c *config.Config) { c.MigrateThreshold = 99 },
		func(c *config.Config) { c.NumEpochs = 4 },
		func(c *config.Config) { c.MemLatency = 250 },
		func(c *config.Config) { c.L1.LatencyCycles = 3 }, // latency shapes timing, not contents
		func(c *config.Config) { c.MaxInsts = 77_777 },
		func(c *config.Config) { c.SampleIntervals = 4; c.SampleBleedInsts = 1000 },
		func(c *config.Config) { c.Model = config.ModelOoO; c.LSQ = config.LSQConventional },
	}
	for i, mut := range share {
		cfg := testConfig(mut)
		if ckpt.Key(&cfg, "swim", 1) != k {
			t.Errorf("share case %d split the checkpoint key", i)
		}
	}

	split := []func(*config.Config){
		func(c *config.Config) { c.L1.SizeBytes = 64 << 10 },
		func(c *config.Config) { c.L2.Ways = 8 },
		func(c *config.Config) { c.L2.LineBytes = 64 },
		func(c *config.Config) { c.WarmupInsts = 70_000 },
	}
	for i, mut := range split {
		cfg := testConfig(mut)
		if ckpt.Key(&cfg, "swim", 1) == k {
			t.Errorf("split case %d shared the checkpoint key", i)
		}
	}

	if ckpt.Key(&base, "gcc", 1) == k || ckpt.Key(&base, "swim", 2) == k {
		t.Error("benchmark or seed change shared the checkpoint key")
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	cfg := testConfig(nil)
	cfg.WarmupInsts = 20_000
	snap, err := ckpt.Build(&cfg, mustProfile(t, "gzip"), 1)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := ckpt.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(snap.Key); ok {
		t.Fatal("empty store returned a snapshot")
	}
	store.Put(snap.Key, snap)
	got, ok := store.Get(snap.Key)
	if !ok {
		t.Fatal("stored snapshot not found")
	}
	if !reflect.DeepEqual(got, snap) {
		t.Error("snapshot did not survive the disk round trip")
	}

	// A resumed run from the reloaded snapshot still matches fresh.
	want := run(t, cfg, "gzip", 1, nil)
	if !resultsEqual(want, run(t, cfg, "gzip", 1, got)) {
		t.Error("disk-loaded resume diverged from fresh run")
	}

	// Corrupt entries are misses.
	if err := os.WriteFile(filepath.Join(dir, snap.Key+".json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(snap.Key); ok {
		t.Error("corrupt snapshot served as a hit")
	}
}

// TestSnapshotImageIsValidLinesOnly pins the image format on a Table 1
// snapshot: the L2 image is one validity bit per line slot plus, per valid
// line, its tag and LRU tick in TagBytes + UseBytes bytes, the fewest
// whole bytes that hold the largest tag and the use clock.
func TestSnapshotImageIsValidLinesOnly(t *testing.T) {
	cfg := testConfig(nil)
	snap, err := ckpt.Build(&cfg, mustProfile(t, "gcc"), 1)
	if err != nil {
		t.Fatal(err)
	}
	l2 := snap.Hier.L2
	slots := cfg.L2.Lines()
	if len(l2.Valid) != slots/8 {
		t.Errorf("L2 validity map is %d bytes, want %d for %d slots", len(l2.Valid), slots/8, slots)
	}
	valid := 0
	for _, b := range l2.Valid {
		valid += bits.OnesCount8(b)
	}
	if valid == 0 || valid == slots {
		t.Fatalf("fixture: %d of %d L2 slots valid; want a partly filled L2", valid, slots)
	}
	rec := l2.TagBytes + l2.UseBytes
	if len(l2.Lines) != rec*valid {
		t.Fatalf("L2 line section is %d bytes, want %d x %d valid lines", len(l2.Lines), rec, valid)
	}
	var tags uint64
	for k := 0; k < valid; k++ {
		for b, x := range l2.Lines[k*rec : k*rec+l2.TagBytes] {
			tags |= uint64(x) << (8 * b)
		}
	}
	width := func(v uint64) int { return max(1, (bits.Len64(v)+7)/8) }
	if l2.TagBytes != width(tags) || l2.UseBytes != width(uint64(l2.UseClock)) {
		t.Errorf("L2 records take %d tag and %d use bytes, want %d and %d: the tags OR to %#x, the use clock is %d",
			l2.TagBytes, l2.UseBytes, width(tags), width(uint64(l2.UseClock)), tags, l2.UseClock)
	}
	t.Logf("L2 image: %d valid of %d slots at %d+%d bytes, %d bytes (12 bytes a line would be %d)",
		valid, slots, l2.TagBytes, l2.UseBytes, len(l2.Valid)+len(l2.Lines), len(l2.Valid)+12*valid)
}

func TestResumeRejectsMismatch(t *testing.T) {
	cfg := testConfig(nil)
	cfg.WarmupInsts = 5_000
	snap, err := ckpt.Build(&cfg, mustProfile(t, "gzip"), 1)
	if err != nil {
		t.Fatal(err)
	}
	resume := func(cfg config.Config, bench string) error {
		_, err := simrun.Point{Config: cfg, Bench: bench, Seed: 1, Snapshot: snap}.Run(nil)
		return err
	}
	if err := resume(cfg, "vpr"); err == nil {
		t.Error("resume accepted a snapshot of a different benchmark")
	}
	other := cfg
	other.WarmupInsts = 6_000
	if err := resume(other, "gzip"); err == nil {
		t.Error("resume accepted a snapshot with a different warm-up budget")
	}
	geom := cfg
	geom.L1.SizeBytes = 64 << 10
	if err := resume(geom, "gzip"); err == nil {
		t.Error("resume accepted a snapshot of different cache geometry")
	}
	src := *snap.Source
	src.Consumed++
	snap.Source = &src
	if err := resume(cfg, "gzip"); err == nil {
		t.Error("resume accepted a source position other than the warm-up budget")
	}
}

// traceRecords is the length of the recordings the trace-build tests make:
// three full blocks and part of a fourth.
const traceRecords = 3*trace.DefaultBlockRecords + 123

// recordImage records the first traceRecords instructions of bench at
// seed 1 and returns the file image.
func recordImage(t *testing.T, bench string) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, mustProfile(t, bench).New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(traceRecords); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freshTrace writes data to a new file, which trace.Cached opens as a trace
// that nothing has verified yet, and returns its path.
func freshTrace(t *testing.T, data []byte, bench string) string {
	t.Helper()
	path := trace.BenchPath(t.TempDir(), bench, 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// traceConfig is testConfig warming n instructions from the trace at path.
func traceConfig(t *testing.T, path string, n uint64, mut func(*config.Config)) config.Config {
	t.Helper()
	cfg := testConfig(mut)
	cfg.WarmupInsts = n
	cfg.TracePath = path
	if err := trace.Resolve(&cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// halfL1 is a second cache geometry: a checkpoint of its own.
func halfL1(c *config.Config) { c.L1.SizeBytes /= 2 }

func mustBuild(t *testing.T, cfg *config.Config, bench string) *ckpt.Snapshot {
	t.Helper()
	snap, err := ckpt.Build(cfg, mustProfile(t, bench), 1)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestTraceBuildOnePass: the first checkpoint built from a trace warms
// inside the trace's verification pass. For an INT and an FP benchmark at
// warm-ups of 0, 1, BlockRecords−1, BlockRecords, BlockRecords+1 and the
// whole recording, that build counts no decode outside the verification
// pass (Trace.Decodes) and equals (snapshot and hierarchy image) a build
// from the trace once it is verified. A build at a second cache geometry,
// from the verified trace, decodes ⌈n/BlockRecords⌉ blocks.
func TestTraceBuildOnePass(t *testing.T) {
	const b = trace.DefaultBlockRecords
	for _, bench := range []string{"gcc", "swim"} {
		data := recordImage(t, bench)
		for _, n := range []uint64{0, 1, b - 1, b, b + 1, traceRecords} {
			path := freshTrace(t, data, bench)
			tr, err := trace.Cached(path)
			if err != nil {
				t.Fatal(err)
			}
			cfg := traceConfig(t, path, n, nil)
			fresh := mustBuild(t, &cfg, bench)
			if d := tr.Decodes(); d != 0 {
				t.Errorf("%s n=%d: the first build decoded %d blocks outside the verification pass, want 0", bench, n, d)
			}
			other := traceConfig(t, path, n, halfL1)
			mustBuild(t, &other, bench)
			if d, want := tr.Decodes(), (n+b-1)/b; d != want {
				t.Errorf("%s n=%d: a second geometry brought the block decodes to %d, want %d", bench, n, d, want)
			}
			if again := mustBuild(t, &cfg, bench); !reflect.DeepEqual(fresh, again) {
				t.Errorf("%s n=%d: the one-pass build differs from a build from the verified trace", bench, n)
			}
		}
	}
}

// TestConcurrentBuildsOfFreshTrace: builds of one fresh trace at the same
// time, at two cache geometries as two sweep jobs would run them, finish
// and give the snapshots serial builds give. One of them warms inside the
// verification pass; the others wait for its verdict and then warm
// through their own cursors. Run it with -race -count=10.
func TestConcurrentBuildsOfFreshTrace(t *testing.T) {
	const n = 2*trace.DefaultBlockRecords + 7
	data := recordImage(t, "mcf")
	geometries := []func(*config.Config){nil, halfL1, nil}
	refPath := freshTrace(t, data, "mcf")
	want := make([]*ckpt.Snapshot, len(geometries))
	for i, g := range geometries {
		cfg := traceConfig(t, refPath, n, g)
		want[i] = mustBuild(t, &cfg, "mcf")
	}

	path := freshTrace(t, data, "mcf")
	prof := mustProfile(t, "mcf")
	got := make([]*ckpt.Snapshot, len(geometries))
	errs := make([]error, len(geometries))
	var wg sync.WaitGroup
	for i, g := range geometries {
		cfg := traceConfig(t, path, n, g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = ckpt.Build(&cfg, prof, 1)
		}()
	}
	wg.Wait()
	for i := range geometries {
		if errs[i] != nil {
			t.Fatalf("build %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("build %d of the fresh trace differs from its serial build", i)
		}
	}
}

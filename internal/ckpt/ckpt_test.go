// External tests for the checkpoint subsystem. They live outside the package
// so they can drive full simulations through internal/simrun — the only
// component allowed to construct simulators.
package ckpt_test

import (
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/simrun"
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
// snapshot: the L2 image is one validity bit per line slot plus 12 bytes
// (tag word and LRU tick) per valid line.
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
	if len(l2.Lines) != 12*valid {
		t.Errorf("L2 line section is %d bytes, want 12 x %d valid lines", len(l2.Lines), valid)
	}
	t.Logf("L2 image: %d valid of %d slots, %d bytes (a dense 16-byte array would be %d)",
		valid, slots, len(l2.Valid)+len(l2.Lines), 16*slots)
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

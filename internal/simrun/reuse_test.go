//go:build !race

// The race detector makes sync.Pool drop a random quarter of what it is
// given, so reuse is only measurable without it.

package simrun_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/simrun"
	"repro/internal/workload"
)

// TestPointReusesSimulatorStorage runs the same resumed 25k-instruction gcc
// point twice and bounds what the second run allocates: its calendars and
// cache lines must come from the first run's, which hand them on when they
// finish. Without that reuse a point allocates its 22 calendar rings
// (396 KiB) and its L2 lines afresh: 1.82 MiB at Table 1, 4.82 MiB with an
// 8 MB L2 and 2.68 MiB on the contended fabric, against about 0.42 MiB
// with reuse. Each case's bound breaks on the loss of its rings alone:
// 0.80 MiB at Table 1 and with an 8 MB L2 (22 rings, bound 0.6 MiB), and
// 1.67 MiB on the contended fabric (72 rings, 1.27 MiB; bound 1 MiB). A
// repeated warm-up checkpoint build likewise reuses its hierarchy's lines
// (1.04 MiB without reuse, 0.02 MiB with).
// The collector is off and one P runs everything, so nothing empties the
// pools between the two runs.
func TestPointReusesSimulatorStorage(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const mib = 1 << 20
	for _, tc := range []struct {
		name  string
		mut   func(*config.Config)
		bound float64 // MiB
	}{
		{"table1", func(*config.Config) {}, 0.6},
		{"l2-8M", func(c *config.Config) { c.L2.SizeBytes = 8 << 20 }, 0.6},
		{"contended", func(c *config.Config) { c.NoC = config.NoCContended }, 1},
	} {
		cfg := config.Default().WithBudget(25_000, 20_000)
		tc.mut(&cfg)
		snap, err := ckpt.Build(&cfg, prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := simrun.Point{Config: cfg, Bench: "gcc", Seed: 1, Snapshot: snap}
		run := func() {
			if _, err := p.Run(nil); err != nil {
				t.Fatal(err)
			}
		}
		run()
		b := allocated(run)
		t.Logf("%s: a repeated point allocated %.2f MiB", tc.name, float64(b)/mib)
		if float64(b) >= tc.bound*mib {
			t.Errorf("%s: a repeated point allocated %.2f MiB, want under %.1f MiB", tc.name, float64(b)/mib, tc.bound)
		}
	}

	cfg := config.Default().WithBudget(25_000, 20_000)
	build := func() {
		if _, err := ckpt.Build(&cfg, prof, 1); err != nil {
			t.Fatal(err)
		}
	}
	build()
	b := allocated(build)
	t.Logf("a repeated checkpoint build allocated %.2f MiB", float64(b)/mib)
	if b >= 256<<10 {
		t.Errorf("a repeated checkpoint build allocated %.2f MiB, want under 0.25 MiB", float64(b)/mib)
	}
}

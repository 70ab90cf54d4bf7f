// Guard for the measured simulation loop: in steady state it allocates
// next to nothing. Every event is an index into the run's fixed stats.Tally
// array, store records recycle through the store index's pool as stores
// retire, and loads, wrong-path ops and both instruction scratches reuse
// fields of the Sim. The ceiling of one object per 1000 instructions leaves
// room for a rare slice growth; counting any per-access event through an
// allocating path would add hundreds (caches alone are accessed a few
// hundred times per 1000) and trip it immediately. Every scheme of the
// smoke matrix has a row below.
package cpu

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// runMallocs returns how many heap objects one Run of a fresh simulator
// allocates, construction excluded: mcf seed 1 under cfg, 6000 warm-up
// instructions, then the given number of measured ones.
func runMallocs(t *testing.T, cfg config.Config, measured uint64) uint64 {
	t.Helper()
	cfg.WarmupInsts = 6000
	cfg.MaxInsts = measured
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, p.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim.Run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStepAllocCeilingWithEnergyAccounting bounds the measured loop's mean
// allocation count per 1000 instructions in steady state. Two runs share
// their first 21,000 measured instructions, which take the loop past the
// cold-start growth of the queue rings, histogram buckets and the store
// index's record pool. The longer run adds 50,000 instructions, so the
// difference in allocations is those instructions' own.
func TestStepAllocCeilingWithEnergyAccounting(t *testing.T) {
	const (
		ceiling = 1.0 // objects per 1000 instructions; see package comment
		spinUp  = 21_000
		sampled = 50_000
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sc := range []struct {
		name string
		mut  func(*config.Config)
	}{
		{"elsq", nil},
		{"svw", func(c *config.Config) { c.LSQ = config.LSQSVW }},
		{"ooo64", func(c *config.Config) {
			c.Model = config.ModelOoO
			c.LSQ = config.LSQConventional
		}},
		{"central", func(c *config.Config) { c.LSQ = config.LSQCentral }},
		{"elsq-noc", func(c *config.Config) { c.NoC = config.NoCContended }},
		{"elsq-pred", func(c *config.Config) { c.Class = config.ClassCacheLevel }},
		{"elsq-delay", func(c *config.Config) { c.Class = config.ClassDelayTrack }},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := config.Default()
			if sc.mut != nil {
				sc.mut(&cfg)
			}
			short := runMallocs(t, cfg, spinUp)
			long := runMallocs(t, cfg, spinUp+sampled)
			objs := max(int64(long)-int64(short), 0)
			// Whole objects per 1000-instruction slice, the figure
			// testing.AllocsPerRun would report for one slice per run.
			avg := float64(objs / (sampled / 1000))
			t.Logf("%.2f objects per 1000 instructions (%d in %d)", avg, objs, sampled)
			if avg > ceiling {
				t.Errorf("measured loop allocates %.2f objects per 1000 instructions (ceiling %.0f): the per-instruction path is allocating", avg, ceiling)
			}
		})
	}
}

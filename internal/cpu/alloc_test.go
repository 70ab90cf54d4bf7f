// Guard for the energy-accounting hot path: event counting must not add
// per-event allocations to the measured simulation loop. Every event is an
// index into the lane's fixed stats.Tally array, so counting one in the
// loop costs an add, never an allocation.
//
// The loop is not allocation-free overall — the store index materialises an
// op per store and wrong-path injection allocates occasionally, both
// predating energy accounting — so the guard pins a ceiling a little above
// that pre-existing rate (~13 objects per 1000 instructions on the profile
// this test was calibrated against). Counting any per-access event through
// an allocating path would add hundreds of objects per 1000 instructions
// (caches alone are accessed a few hundred times per 1000) and trip the
// ceiling immediately. Every scheme of the smoke matrix has a row below.
package cpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// steadyLane builds a warmed lane with a large open measurement budget so
// Step can be sampled repeatedly without finishing.
func steadyLane(t *testing.T, mut func(*config.Config)) *Lane {
	t.Helper()
	cfg := config.Default()
	cfg.MaxInsts = 1 << 40 // never finishes inside the sampled steps
	cfg.WarmupInsts = 6000
	if mut != nil {
		mut(&cfg)
	}
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, p.New(1))
	if err != nil {
		t.Fatal(err)
	}
	l := sim.NewLane()
	if !l.Warm(nil) {
		t.Fatal("warm-up canceled")
	}
	// Run past cold-start growth (queue rings, histogram buckets, store
	// index shards, counter interning) into steady state before measuring.
	if more, ok := l.Step(20_000, nil); !more || !ok {
		t.Fatal("lane finished during steady-state spin-up")
	}
	return l
}

// TestStepAllocCeilingWithEnergyAccounting samples the measured loop in
// 1000-instruction slices and bounds the mean allocation count per slice.
func TestStepAllocCeilingWithEnergyAccounting(t *testing.T) {
	const ceiling = 30.0 // objects per 1000 instructions; see package comment
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
			l := steadyLane(t, sc.mut)
			avg := testing.AllocsPerRun(50, func() {
				if more, ok := l.Step(1000, nil); !more || !ok {
					t.Fatal("lane finished mid-measurement")
				}
			})
			if avg > ceiling {
				t.Errorf("measured loop allocates %.1f objects per 1000 instructions (ceiling %.0f): an activity counter is allocating per event", avg, ceiling)
			}
		})
	}
}

// Guard for the measured simulation loop: in steady state it allocates
// nothing. Every event is an index into the lane's fixed stats.Tally array,
// store records recycle through the store index's pool as stores retire,
// and loads, wrong-path ops and the wrong-path instruction reuse scratch
// fields of the Sim. The ceiling of one object per 1000 instructions leaves
// room for a rare slice growth; counting any per-access event through an
// allocating path would add hundreds (caches alone are accessed a few
// hundred times per 1000) and trip it immediately. Every scheme of the
// smoke matrix has a row below.
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
	// Run past cold-start growth (queue rings, histogram buckets, the store
	// index's record pool) into steady state before measuring.
	if more, ok := l.Step(20_000, nil); !more || !ok {
		t.Fatal("lane finished during steady-state spin-up")
	}
	return l
}

// TestStepAllocCeilingWithEnergyAccounting samples the measured loop in
// 1000-instruction slices and bounds the mean allocation count per slice.
func TestStepAllocCeilingWithEnergyAccounting(t *testing.T) {
	const ceiling = 1.0 // objects per 1000 instructions; see package comment
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
			t.Logf("%.2f objects per 1000 instructions", avg)
			if avg > ceiling {
				t.Errorf("measured loop allocates %.2f objects per 1000 instructions (ceiling %.0f): the per-instruction path is allocating", avg, ceiling)
			}
		})
	}
}

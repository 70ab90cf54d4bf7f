// Engine-count scaling of the contended NoC fabric: as the FMC grows from 8
// to 128 memory engines, the occupancy model must expose costs and policy
// differences the contention-free analytic model structurally cannot.
package simrun_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/simrun"
)

// scalingRun executes one measured gcc point (gcc commits enough CP<->MP and
// mesh traffic at the test budget to make contention visible).
func scalingRun(t *testing.T, n int, model config.NoCModel, pol config.PlacePolicy, width int) *simrun.Outcome {
	t.Helper()
	cfg := config.Default().WithBudget(20000, 100000)
	cfg.NumEpochs = n
	cfg.NoC = model
	cfg.NoCLinkWidth = width
	cfg.Place = pol
	out, err := simrun.Point{Config: cfg, Bench: "gcc", Seed: 1}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEngineScalingContendedSeparation sweeps epochs 8 -> 128 under both
// fabric models and all placement policies and checks the properties the
// contended fabric exists to provide:
//
//  1. booking real occupancy costs cycles the free model gives away,
//  2. the queueing penalty for a migration-heavy policy grows with engine
//     count,
//  3. traffic volume (hops) is conserved across models when the placement
//     sequence is identical — only waiting differs.
func TestEngineScalingContendedSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-scaling sweep is a long test")
	}
	engineCounts := []int{8, 32, 128}
	policies := []config.PlacePolicy{config.PlaceModN, config.PlaceLeastLoaded, config.PlaceSteal}
	llDelta := make(map[int]int64)
	for _, n := range engineCounts {
		for _, pol := range policies {
			free := scalingRun(t, n, config.NoCAnalytic, pol, 0).Result
			cont := scalingRun(t, n, config.NoCContended, pol, 0).Result
			fc, cc := free.Counters.Snapshot(), cont.Counters.Snapshot()
			if cont.Cycles <= free.Cycles {
				t.Errorf("n=%d %v: contended fabric did not cost cycles (contended %d <= free %d)",
					n, pol, cont.Cycles, free.Cycles)
			}
			if cc["noc_bus_wait"] == 0 {
				t.Errorf("n=%d %v: contended run reported no bus queueing", n, pol)
			}
			if fc["noc_link_wait"] != 0 || fc["noc_bus_wait"] != 0 {
				t.Errorf("n=%d %v: free fabric reported queueing: link %d bus %d",
					n, pol, fc["noc_link_wait"], fc["noc_bus_wait"])
			}
			switch pol {
			case config.PlaceModN:
				// Mod-N placement is timing-independent, so both models see
				// the identical message stream: hop conservation end to end.
				if fc["noc_hops"] != cc["noc_hops"] {
					t.Errorf("n=%d modn: hops diverged across models: free %d, contended %d",
						n, fc["noc_hops"], cc["noc_hops"])
				}
			case config.PlaceLeastLoaded:
				// The migration-heavy policy must show mesh queueing and
				// real state movement.
				if cc["noc_link_wait"] == 0 || cc["noc_migrate_flit"] == 0 || cc["place_steals"] == 0 {
					t.Errorf("n=%d leastloaded: missing contention evidence: %v", n, cc)
				}
				llDelta[n] = cont.Cycles - free.Cycles
			}
		}
	}
	// Property 2: the contended-vs-free gap for the migration-heavy policy
	// widens as the mesh grows (longer routes, more links to queue on).
	if llDelta[128] <= llDelta[8] {
		t.Errorf("contention penalty did not grow with engine count: delta(8)=%d, delta(128)=%d",
			llDelta[8], llDelta[128])
	}

	// Property the free model structurally lacks: link width. Two analytic
	// configs differing only in width are the same canonical point, while
	// the contended fabric separates them.
	a1 := config.Default()
	a1.NoCLinkWidth = 1
	a4 := config.Default()
	a4.NoCLinkWidth = 4
	if a1.Hash() != a4.Hash() {
		t.Error("link width split the analytic identity; it should be inert there")
	}
	w1 := scalingRun(t, 32, config.NoCContended, config.PlaceLeastLoaded, 1).Result
	w4 := scalingRun(t, 32, config.NoCContended, config.PlaceLeastLoaded, 4).Result
	if w1.Cycles <= w4.Cycles {
		t.Errorf("wider links did not relieve contention: width1 %d cycles, width4 %d cycles",
			w1.Cycles, w4.Cycles)
	}
	if w1.Counters.Snapshot()["noc_bus_wait"] <= w4.Counters.Snapshot()["noc_bus_wait"] {
		t.Errorf("wider links did not reduce bus queueing: width1 %d, width4 %d",
			w1.Counters.Snapshot()["noc_bus_wait"], w4.Counters.Snapshot()["noc_bus_wait"])
	}
}

// TestScalingBatchMatchesScalar: the contended fabric's arena-carved
// calendars must leave batched lanes bit-identical to scalar runs at the
// extreme engine counts (the calendar horizon widens with the window).
func TestScalingBatchMatchesScalar(t *testing.T) {
	var pts []simrun.Point
	for _, n := range []int{8, 128} {
		for _, pol := range []config.PlacePolicy{config.PlaceModN, config.PlaceLeastLoaded} {
			cfg := config.Default().WithBudget(4000, 20000)
			cfg.NumEpochs = n
			cfg.NoC = config.NoCContended
			cfg.Place = pol
			pts = append(pts, simrun.Point{Config: cfg, Bench: "mcf", Seed: 5})
		}
	}
	batched, err := simrun.RunBatch(nil, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		scalar, err := p.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if scalar.Result.IPC != batched[i].Result.IPC || scalar.Result.Cycles != batched[i].Result.Cycles {
			t.Errorf("point %d: batch diverged from scalar: %v/%d vs %v/%d", i,
				batched[i].Result.IPC, batched[i].Result.Cycles, scalar.Result.IPC, scalar.Result.Cycles)
		}
	}
}

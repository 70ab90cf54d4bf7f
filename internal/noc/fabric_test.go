package noc

import (
	"testing"

	"repro/internal/xrand"
)

// newPair builds an analytic and a contended fabric over identical geometry.
func newPair(w, h, hopCost, oneWay, linkWidth int) (*Analytic, *Contended) {
	a := NewAnalytic(w, h, hopCost, oneWay)
	c := NewContended(w, h, hopCost, oneWay, linkWidth, nil)
	return a, c
}

// driveRandom replays one random message stream against both fabrics and
// checks the point-wise latency bound: at link width 1 the contended fabric
// can never deliver a message earlier than the contention-free model.
func driveRandom(t *testing.T, w, h int, seed uint64) {
	t.Helper()
	an, co := newPair(w, h, 2, 6, 1)
	r := xrand.New(seed)
	n := w * h
	var clock int64
	for i := 0; i < 400; i++ {
		clock += int64(r.Intn(3)) // bursty: many messages share cycles
		switch r.Intn(4) {
		case 0:
			ga, gc := an.BusOneWay(clock), co.BusOneWay(clock)
			if gc < ga {
				t.Fatalf("seed %d msg %d: contended BusOneWay(%d) = %d < analytic %d", seed, i, clock, gc, ga)
			}
		case 1:
			ga, gc := an.BusRoundTrip(clock), co.BusRoundTrip(clock)
			if gc < ga {
				t.Fatalf("seed %d msg %d: contended BusRoundTrip(%d) = %d < analytic %d", seed, i, clock, gc, ga)
			}
		case 2:
			a, b := r.Intn(n), r.Intn(n)
			ga, gc := an.Route(a, b, clock), co.Route(a, b, clock)
			if gc < ga {
				t.Fatalf("seed %d msg %d: contended Route(%d,%d,%d) = %d < analytic %d", seed, i, a, b, clock, gc, ga)
			}
		default:
			a, b := r.Intn(n), r.Intn(n)
			flits := 1 + r.Intn(8)
			ga, gc := an.MigrateState(a, b, flits, clock), co.MigrateState(a, b, flits, clock)
			if gc < ga {
				t.Fatalf("seed %d msg %d: contended MigrateState(%d,%d,%d,%d) = %d < analytic %d",
					seed, i, a, b, flits, clock, gc, ga)
			}
		}
	}
	// Hop conservation: contention changes when messages move, never how far
	// they travel, so both fabrics agree on every volume column. Only the
	// wait columns may differ.
	ta, tc := an.Traffic(), co.Traffic()
	if ta.Hops != tc.Hops || ta.OneWays != tc.OneWays || ta.RoundTrips != tc.RoundTrips || ta.MigrateFlits != tc.MigrateFlits {
		t.Fatalf("seed %d: traffic volume diverged: analytic %+v, contended %+v", seed, ta, tc)
	}
	if ta.LinkWaitCycles != 0 || ta.BusWaitCycles != 0 {
		t.Fatalf("analytic fabric reported wait cycles: %+v", ta)
	}
}

func TestContendedDominatesAnalytic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		driveRandom(t, 4, 4, seed)
		driveRandom(t, 8, 1, seed)
		driveRandom(t, 3, 5, seed)
	}
}

// TestContendedUncontendedEquality: with messages spaced far apart no
// calendar slot is ever busy, so the contended fabric's latencies collapse to
// exactly the analytic ones — the contention model adds queueing, never a
// different base latency.
func TestContendedUncontendedEquality(t *testing.T) {
	an, co := newPair(4, 4, 3, 7, 1)
	r := xrand.New(99)
	clock := int64(0)
	for i := 0; i < 200; i++ {
		clock += 200 // far beyond any message's lifetime
		a, b := r.Intn(16), r.Intn(16)
		switch i % 4 {
		case 0:
			if ga, gc := an.BusOneWay(clock), co.BusOneWay(clock); ga != gc {
				t.Fatalf("msg %d: uncontended BusOneWay %d != analytic %d", i, gc, ga)
			}
		case 1:
			if ga, gc := an.BusRoundTrip(clock), co.BusRoundTrip(clock); ga != gc {
				t.Fatalf("msg %d: uncontended BusRoundTrip %d != analytic %d", i, gc, ga)
			}
		case 2:
			if ga, gc := an.Route(a, b, clock), co.Route(a, b, clock); ga != gc {
				t.Fatalf("msg %d: uncontended Route(%d,%d) %d != analytic %d", i, a, b, gc, ga)
			}
		default:
			flits := 1 + i%8
			if ga, gc := an.MigrateState(a, b, flits, clock), co.MigrateState(a, b, flits, clock); ga != gc {
				t.Fatalf("msg %d: uncontended MigrateState(%d,%d,%d) %d != analytic %d", i, a, b, flits, gc, ga)
			}
		}
	}
	// Bus messages never queued; link waits can still be non-zero because a
	// width-1 migration block self-serialises (its own flits queue on the
	// first link), which is exactly the analytic model's flits-1 tail.
	if co.Traffic().BusWaitCycles != 0 {
		t.Fatalf("sparse stream still queued on the bus: %+v", co.Traffic())
	}
}

// TestRouteRespectsDistance: every routed message pays at least the Manhattan
// propagation latency, and an isolated one pays exactly it.
func TestRouteRespectsDistance(t *testing.T) {
	_, co := newPair(4, 4, 2, 6, 1)
	var clock int64
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			clock += 100
			want := clock + int64(2*co.Distance(a, b))
			if got := co.Route(a, b, clock); got != want {
				t.Fatalf("isolated Route(%d,%d,%d) = %d, want %d", a, b, clock, got, want)
			}
		}
	}
}

// TestContendedQueueing checks the model actually queues: two messages
// crossing the same width-1 link in the same cycle cannot both depart at
// once, and the second's delay is visible in LinkWaitCycles.
func TestContendedQueueing(t *testing.T) {
	_, co := newPair(4, 1, 1, 4, 1)
	first := co.Route(0, 3, 10)
	second := co.Route(0, 3, 10)
	if first != 13 {
		t.Fatalf("first message arrived at %d, want 13", first)
	}
	if second != 14 {
		t.Fatalf("second message arrived at %d, want 14 (one cycle of queueing)", second)
	}
	if w := co.Traffic().LinkWaitCycles; w != 1 {
		// one stall at the first link; downstream the message pipelines one
		// cycle behind the leader without further waiting
		t.Fatalf("LinkWaitCycles = %d, want 1", w)
	}

	_, co = newPair(4, 1, 1, 4, 2)
	if a, b := co.Route(0, 3, 10), co.Route(0, 3, 10); a != 13 || b != 13 {
		t.Fatalf("width-2 links should carry both messages at once, got %d and %d", a, b)
	}
}

// TestBusQueueing: same property on the CP<->MP bus.
func TestBusQueueing(t *testing.T) {
	_, co := newPair(2, 1, 1, 5, 1)
	if got := co.BusOneWay(0); got != 5 {
		t.Fatalf("first bus message arrived at %d, want 5", got)
	}
	if got := co.BusOneWay(0); got != 6 {
		t.Fatalf("second bus message arrived at %d, want 6", got)
	}
	if w := co.Traffic().BusWaitCycles; w != 1 {
		t.Fatalf("BusWaitCycles = %d, want 1", w)
	}
	// Round trips book the two directions independently: an outbound queue
	// does not consume inbound slots.
	if got := co.BusRoundTrip(0); got != 12 { // departs 2 (queued), arrives 7, returns 12
		t.Fatalf("round trip arrived at %d, want 12", got)
	}
}

// TestMigrateStateEdgeCases covers the degenerate transfers and the wide-link
// speedup (a wide link lets the whole block depart at once, so the flits-1
// serialisation tail of the analytic model disappears).
func TestMigrateStateEdgeCases(t *testing.T) {
	an, co := newPair(4, 4, 2, 6, 16)
	for _, f := range []Fabric{an, co} {
		if got := f.MigrateState(5, 5, 8, 42); got != 42 {
			t.Fatalf("%T: same-engine migration took time: %d", f, got)
		}
		if got := f.MigrateState(1, 2, 0, 42); got != 42 {
			t.Fatalf("%T: empty migration took time: %d", f, got)
		}
		if tr := f.Traffic(); tr.MigrateFlits != 0 || tr.Hops != 0 {
			t.Fatalf("%T: degenerate migration counted traffic: %+v", f, tr)
		}
	}
	// Width 16 >= flits: all 8 flits depart together, last arrives after pure
	// propagation — earlier than the analytic model's serialised tail.
	d := int64(2 * co.Distance(0, 15))
	if got := co.MigrateState(0, 15, 8, 0); got != d {
		t.Fatalf("wide-link migration arrived at %d, want %d", got, d)
	}
	if got := an.MigrateState(0, 15, 8, 0); got != d+7 {
		t.Fatalf("analytic migration arrived at %d, want %d", got, d+7)
	}
	// Hop conservation still holds: per-flit, per-link accounting.
	if ha, hc := an.Traffic().Hops, co.Traffic().Hops; ha != hc || ha != 8*uint64(co.Distance(0, 15)) {
		t.Fatalf("migration hops diverged: analytic %d, contended %d", ha, hc)
	}
}

// TestContendedCalendars pins the resource count formula to the constructed
// link table.
func TestContendedCalendars(t *testing.T) {
	for _, g := range []struct{ w, h int }{{4, 4}, {8, 1}, {1, 8}, {3, 5}, {1, 1}} {
		co := NewContended(g.w, g.h, 1, 1, 1, nil)
		if want := contendedCalendars(g.w, g.h); len(co.links)+2 != want {
			t.Fatalf("%dx%d: %d links + 2 bus != contendedCalendars %d", g.w, g.h, len(co.links)+2, want)
		}
	}
}

// TestLinkIndexBijective: every directed link of the mesh maps to a distinct
// calendar — an aliased pair would invent contention between unrelated links.
func TestLinkIndexBijective(t *testing.T) {
	co := NewContended(4, 4, 1, 1, 1, nil)
	seen := make(map[int]bool)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= 4 || ny < 0 || ny >= 4 {
					continue
				}
				i := co.linkIndex(x, y, nx, ny)
				if i < 0 || i >= len(co.links) {
					t.Fatalf("linkIndex(%d,%d -> %d,%d) = %d out of range [0,%d)", x, y, nx, ny, i, len(co.links))
				}
				if seen[i] {
					t.Fatalf("linkIndex(%d,%d -> %d,%d) = %d already assigned", x, y, nx, ny, i)
				}
				seen[i] = true
			}
		}
	}
	if len(seen) != len(co.links) {
		t.Fatalf("only %d of %d links reachable", len(seen), len(co.links))
	}
}

// TestTrafficSub: snapshot-and-subtract isolates a window's traffic.
func TestTrafficSub(t *testing.T) {
	_, co := newPair(4, 4, 1, 4, 1)
	co.Route(0, 15, 0)
	co.BusRoundTrip(0)
	snap := co.Traffic()
	co.Route(3, 12, 100)
	co.BusOneWay(100)
	got := co.Traffic().Sub(snap)
	if got.Hops != uint64(co.Distance(3, 12)) || got.OneWays != 1 || got.RoundTrips != 0 {
		t.Fatalf("windowed traffic = %+v", got)
	}
}

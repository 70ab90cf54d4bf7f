package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestCalendarWidth(t *testing.T) {
	c := NewCalendar(2, 64)
	// Two reservations fit in cycle 5; the third spills to 6.
	if got := c.Reserve(5); got != 5 {
		t.Errorf("first = %d", got)
	}
	if got := c.Reserve(5); got != 5 {
		t.Errorf("second = %d", got)
	}
	if got := c.Reserve(5); got != 6 {
		t.Errorf("third = %d, want 6", got)
	}
}

func TestCalendarNegativeClamped(t *testing.T) {
	c := NewCalendar(1, 64)
	if got := c.Reserve(-10); got != 0 {
		t.Errorf("Reserve(-10) = %d, want 0", got)
	}
}

func TestCalendarOutOfOrder(t *testing.T) {
	c := NewCalendar(1, 1024)
	if got := c.Reserve(100); got != 100 {
		t.Errorf("got %d", got)
	}
	// Earlier cycle still free.
	if got := c.Reserve(50); got != 50 {
		t.Errorf("got %d", got)
	}
	// Cycle 100 is taken; next free is 101.
	if got := c.Reserve(100); got != 101 {
		t.Errorf("got %d, want 101", got)
	}
}

func TestCalendarNeverBelowRequest(t *testing.T) {
	f := func(times []uint16) bool {
		c := NewCalendar(2, 4096)
		for _, raw := range times {
			want := int64(raw % 2000)
			got := c.Reserve(want)
			if got < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Per-cycle capacity is never exceeded within the horizon.
func TestCalendarCapacityProperty(t *testing.T) {
	c := NewCalendar(3, 4096)
	counts := map[int64]int{}
	for i := 0; i < 1000; i++ {
		got := c.Reserve(int64(i % 50))
		counts[got]++
	}
	for cycle, n := range counts {
		if n > 3 {
			t.Fatalf("cycle %d has %d reservations, width 3", cycle, n)
		}
	}
}

func TestCalendarPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCalendar(0, 16) },
		func() { NewCalendar(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid calendar accepted")
				}
			}()
			f()
		}()
	}
}

func TestRingCapacity(t *testing.T) {
	r := NewRing(2)
	if r.FreeAt() != 0 {
		t.Error("fresh ring not free")
	}
	r.Push(10)
	r.Push(20)
	// Third allocation must wait for the first release.
	if got := r.FreeAt(); got != 10 {
		t.Errorf("FreeAt = %d, want 10", got)
	}
	r.Push(30)
	if got := r.FreeAt(); got != 20 {
		t.Errorf("FreeAt = %d, want 20", got)
	}
}

func TestRingUnlimited(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 100; i++ {
		r.Push(int64(i))
	}
	if r.FreeAt() != 0 {
		t.Error("unlimited ring backpressured")
	}
}

// TestCalendarHorizonAliasingPanics is the regression test for the silent
// horizon-aliasing clobber: booking cycle t+horizon used to land on cycle
// t's live ring slot, see a "different" packed cycle and reset its booked
// count to zero — future-cycle reservations vanished with no signal. The
// calendar must now detect that the aliased slot holds a *future* cycle and
// panic with the geometry.
func TestCalendarHorizonAliasingPanics(t *testing.T) {
	const horizon = 16
	c := NewCalendar(1, horizon)
	// Book the future cycle, then let time pass beyond the horizon so a
	// later reservation wraps onto the booked slot.
	c.Reserve(horizon + 3)
	defer func() {
		if recover() == nil {
			t.Error("horizon-aliased Reserve silently clobbered a future cycle's bookings")
		}
	}()
	c.Reserve(3) // 3 & mask == (horizon+3) & mask: aliases the live slot
}

// TestCalendarStaleSlotsStillClear pins the legitimate half of the lazy-
// clearing rule: a slot whose packed cycle is *older* than the requested
// cycle is stale and must be reused without complaint.
func TestCalendarStaleSlotsStillClear(t *testing.T) {
	const horizon = 16
	c := NewCalendar(1, horizon)
	if got := c.Reserve(3); got != 3 {
		t.Fatalf("got %d", got)
	}
	// One full lap later the slot is stale; reserving the aliasing future
	// cycle must succeed and see full capacity.
	if got := c.Reserve(horizon + 3); got != horizon+3 {
		t.Errorf("Reserve(%d) = %d after slot went stale", horizon+3, got)
	}
}

// TestFreedRingIsReusedLikeAFreshOne frees a calendar whose ring holds
// bookings up to about cycle 10^6 in every slot, builds a new calendar of
// the same length on that ring, and checks that over a random reservation
// stream it answers exactly as a calendar on a new ring does: the reused
// ring is cleared, not just handed over. sync.Pool may drop what it is
// given (a quarter at random under -race), so the reuse is retried until
// the ring comes back.
func TestFreedRingIsReusedLikeAFreshOne(t *testing.T) {
	const width = 2
	var reused *Calendar
	for try := 0; try < 50 && reused == nil; try++ {
		dirty := NewCalendar(width, DefaultHorizon)
		for cyc := int64(0); cyc < 1_000_000; cyc += 7 {
			dirty.Reserve(cyc)
		}
		ring := &dirty.slots[0]
		dirty.Free()
		if c := NewCalendar(width, DefaultHorizon); &c.slots[0] == ring {
			reused = c
		}
	}
	if reused == nil {
		t.Fatal("NewCalendar never reused a freed ring of its length")
	}
	fresh := &Calendar{width: width, slots: make([]uint64, DefaultHorizon), mask: DefaultHorizon - 1}
	rng := xrand.New(7)
	var base int64
	for i := 0; i < 200_000; i++ {
		base += int64(rng.Intn(3))
		at := base + int64(rng.Intn(3000))
		if got, want := reused.Reserve(at), fresh.Reserve(at); got != want {
			t.Fatalf("reservation %d at cycle %d: reused ring booked %d, fresh ring %d", i, at, got, want)
		}
	}
}

// TestReserveAfterFreePanics pins that a freed calendar cannot book into
// the ring it handed on, and that a second Free does not hand it on twice.
func TestReserveAfterFreePanics(t *testing.T) {
	c := NewCalendar(1, 64)
	c.Reserve(3)
	c.Free()
	c.Free()
	defer func() {
		if recover() == nil {
			t.Error("Reserve after Free did not panic")
		}
	}()
	c.Reserve(4)
}

package sched

import (
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

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
// calendar must now detect that the aliased chunk holds *future* cycles and
// panic with the geometry. The horizon is one chunk, the shortest ring.
func TestCalendarHorizonAliasingPanics(t *testing.T) {
	const horizon = chunkCycles
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
// clearing rule: a chunk whose tag names cycles *older* than the requested
// cycle's is stale and must be reused without complaint. The horizon is
// one chunk, so cycle 3 and cycle horizon+3 share a chunk and a count.
func TestCalendarStaleSlotsStillClear(t *testing.T) {
	const horizon = chunkCycles
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
// every cycle booked to capacity up to cycle 2^20, builds a new calendar of
// the same length on that ring, and checks that it answers exactly as a
// calendar on a new ring does: first booking the first chunk (the one a
// zero tag names) to capacity, then over a random reservation stream. The
// reused ring is cleared, tags and counts, not just handed over. sync.Pool
// may drop what it is given (a quarter at random under -race), so the
// reuse is retried until the ring comes back.
func TestFreedRingIsReusedLikeAFreshOne(t *testing.T) {
	const width = 2
	var reused *Calendar
	for try := 0; try < 50 && reused == nil; try++ {
		dirty := NewCalendar(width, DefaultHorizon)
		for cyc := int64(0); cyc < 1<<20; cyc++ {
			for range width {
				dirty.Reserve(cyc)
			}
		}
		tags := &dirty.tags[0]
		dirty.Free()
		if c := NewCalendar(width, DefaultHorizon); &c.tags[0] == tags {
			reused = c
		}
	}
	if reused == nil {
		t.Fatal("NewCalendar never reused a freed ring of its length")
	}
	const chunks = DefaultHorizon / chunkCycles
	fresh := &Calendar{
		width: width,
		ring:  ring{tags: make([]int64, chunks), counts: make([][chunkCycles]uint8, chunks)},
		mask:  chunks - 1,
	}
	book := func(i int, at int64) {
		if got, want := reused.Reserve(at), fresh.Reserve(at); got != want {
			t.Fatalf("reservation %d at cycle %d: reused ring booked %d, fresh ring %d", i, at, got, want)
		}
	}
	for i := 0; i < width*chunkCycles; i++ {
		book(i, int64(i/width))
	}
	rng := xrand.New(7)
	var base int64
	for i := 0; i < 200_000; i++ {
		base += int64(rng.Intn(3))
		book(i, base+int64(rng.Intn(3000)))
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

// TestRingFootprint pins the storage of a DefaultHorizon ring: 16,384
// count bytes and 256 tags, 18 KiB.
func TestRingFootprint(t *testing.T) {
	c := NewCalendar(2, DefaultHorizon)
	defer c.Free()
	counts := cap(c.counts) * int(unsafe.Sizeof(c.counts[0]))
	tags := cap(c.tags)
	if counts != DefaultHorizon || tags != DefaultHorizon/chunkCycles {
		t.Fatalf("a DefaultHorizon ring holds %d count bytes and %d tags, want %d and %d",
			counts, tags, DefaultHorizon, DefaultHorizon/chunkCycles)
	}
	if b := counts + tags*int(unsafe.Sizeof(c.tags[0])); b != 18<<10 {
		t.Fatalf("a DefaultHorizon ring holds %d bytes, want 18 KiB", b)
	}
}

// packedCalendar is the ring Calendar replaced, kept as its reference: a
// word per cycle packing the cycle mapped there (upper 56 bits) and the
// reservations booked at it (lower 8), cleared slot by slot.
type packedCalendar struct {
	width uint64
	slots []uint64
	mask  int64
}

func newPackedCalendar(width, length int) *packedCalendar {
	return &packedCalendar{width: uint64(width), slots: make([]uint64, length), mask: int64(length - 1)}
}

func (c *packedCalendar) Reserve(t int64) int64 {
	t = max(t, 0)
	for {
		s := &c.slots[t&c.mask]
		if cyc := int64(*s >> 8); cyc != t {
			if cyc > t {
				panic("sched: packed reference: horizon aliasing")
			}
			*s = uint64(t) << 8
		}
		if *s&0xff < c.width {
			*s++
			return t
		}
		t++
	}
}

// reserveOrPanic books at on reserve and reports whether it panicked.
func reserveOrPanic(reserve func(int64) int64, at int64) (got int64, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return reserve(at), false
}

// referenceCheck books one request stream on a Calendar and on the packed
// reference of the same ring length, call by call.
type referenceCheck struct {
	c      *Calendar
	ref    *packedCalendar
	length int64 // ring length in cycles
	newest int64 // newest cycle booked; every probe that moves a tag books

	refPanicked bool
}

func newReferenceCheck(width, horizon int) *referenceCheck {
	c := NewCalendar(width, horizon)
	length := len(c.tags) * chunkCycles
	return &referenceCheck{c: c, ref: newPackedCalendar(width, length), length: int64(length)}
}

// reserve books at on both rings. It returns an error when they book
// differently, when the reference panics and the Calendar does not, or
// when the Calendar panics on a request less than length − 63 cycles
// behind the newest cycle booked; done reports that either ring panicked,
// which ends the stream.
func (r *referenceCheck) reserve(at int64) (done bool, err error) {
	got, panicked := reserveOrPanic(r.c.Reserve, at)
	want, refPanicked := reserveOrPanic(r.ref.Reserve, at)
	r.refPanicked = refPanicked
	switch {
	case panicked:
		if behind := r.newest - max(at, 0); behind < r.length-chunkCycles+1 {
			return true, fmt.Errorf("Reserve(%d) panicked %d cycles behind the newest booking, ring of %d", at, behind, r.length)
		}
		return true, nil
	case refPanicked:
		return true, fmt.Errorf("Reserve(%d) = %d where the packed reference panicked", at, got)
	case got != want:
		return false, fmt.Errorf("Reserve(%d) = %d, packed reference %d", at, got, want)
	}
	r.newest = max(r.newest, got)
	return false, nil
}

var referenceWidths = []int{1, 2, 4, 255}

// TestCalendarMatchesPackedReference books seeded random streams that
// never reach back horizon − 63 cycles on a Calendar and on the packed
// reference: the rings must book every call alike and neither may panic.
// Requests drift forward over many laps, reach back up to horizon − 64
// cycles behind the newest booking, and come in bursts at one cycle just
// before a chunk boundary, so the probe walks across it.
func TestCalendarMatchesPackedReference(t *testing.T) {
	for _, width := range referenceWidths {
		for _, horizon := range []int{chunkCycles, 1024, DefaultHorizon} {
			rng := xrand.New(uint64(width)<<32 | uint64(horizon))
			r := newReferenceCheck(width, horizon)
			reach := r.length - chunkCycles // the widest spread that may never panic
			back := func() int64 { return int64(rng.Intn(int(reach) + 1)) }
			var burstAt int64
			burst := 0
			for i := 0; i < 100_000 || r.newest < 4*r.length; i++ {
				var at int64
				switch k := rng.Intn(32); {
				case burst > 0:
					burst--
					at = burstAt
				case k == 0:
					burstAt = ((r.newest - back()) | (chunkCycles - 1)) - int64(rng.Intn(3))
					burst = width + rng.Intn(8)
					at = burstAt
				case k < 16:
					at = r.newest + int64(rng.Intn(8))
				default:
					at = r.newest - back()
				}
				at = max(at, r.newest-reach)
				if done, err := r.reserve(at); err != nil || done {
					t.Fatalf("width %d, horizon %d, call %d: a ring panicked within the horizon (%v)", width, horizon, i, err)
				}
			}
		}
	}
}

// TestCalendarPanicsNoLaterThanReference books seeded random streams that
// reach back up to a chunk past the horizon, each until a ring panics: the
// Calendar must book every call as the packed reference does until then,
// panic no later than it, and only on a request at least horizon − 63
// cycles behind the newest booking.
func TestCalendarPanicsNoLaterThanReference(t *testing.T) {
	for _, width := range referenceWidths {
		for _, horizon := range []int{chunkCycles, 1024} {
			rng := xrand.New(uint64(width)<<32 | uint64(horizon) | 1<<63)
			panics, refPanics := 0, 0
			for stream := 0; stream < 50; stream++ {
				r := newReferenceCheck(width, horizon)
				for i := 0; i < 20_000; i++ {
					at := r.newest + int64(rng.Intn(4))
					if rng.Intn(4) == 0 {
						at = r.newest - int64(rng.Intn(int(r.length+chunkCycles)))
					}
					done, err := r.reserve(at)
					if err != nil {
						t.Fatalf("width %d, horizon %d, stream %d, call %d: %v", width, horizon, stream, i, err)
					}
					if done {
						panics++
						if r.refPanicked {
							refPanics++
						}
						break
					}
				}
			}
			if panics < 50 || refPanics == 0 {
				t.Errorf("width %d, horizon %d: the Calendar panicked on %d of 50 streams, the reference with it on %d; want all 50 and some",
					width, horizon, panics, refPanics)
			}
		}
	}
}

// FuzzCalendar decodes each input into a width, a horizon and a request
// stream, and books the stream on a Calendar and on the packed reference
// until either panics: the rings must book every call alike, the
// reference must never panic first, and the Calendar may panic only on a
// request at least horizon − 63 cycles behind the newest booking.
//
// Input: byte 0 picks the width (1–255), byte 1 the horizon (8 cycles a
// step, up to 2,041, rounded up to a ring of 64–2,048 cycles), then each
// little-endian uint16 one request, from the ring's length + 64 cycles
// behind the newest booking to 127 cycles ahead of it.
func FuzzCalendar(f *testing.F) {
	stream := func(width, horizon byte, offs ...uint16) []byte {
		b := []byte{width, horizon}
		for _, o := range offs {
			b = binary.LittleEndian.AppendUint16(b, o)
		}
		return b
	}
	f.Add(stream(0, 0, 192, 193, 64))                // width 1, one-chunk ring: both rings panic on the third request
	f.Add(stream(0, 15, 255, 192, 191, 319, 65))     // width 1, ring of 128: two walks across cycle 64, then the guard trips where the reference books
	f.Add(stream(1, 255, 2200, 2100, 2100, 2100, 9)) // width 2, ring of 2,048
	f.Add(stream(254, 100, 1000, 1000, 1000, 1215))  // width 255, ring of 1,024
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		r := newReferenceCheck(int(data[0])%255+1, int(data[1])*8+1)
		span := uint16(r.length + 3*chunkCycles)
		for i := 2; i+1 < len(data); i += 2 {
			off := int64(binary.LittleEndian.Uint16(data[i:]) % span)
			done, err := r.reserve(r.newest + off - (r.length + chunkCycles))
			if err != nil {
				t.Fatalf("width %d, ring %d, request %d: %v", r.c.width, r.length, (i-2)/2, err)
			}
			if done {
				return
			}
		}
	})
}

// BenchmarkReserveInterleaved books 1, 22 (a Table 1 simulator's
// calendars) and 72 (a contended fabric's) two-wide rings in turn, as a
// simulator does: each round books every ring once and advances simulated
// time two cycles, and each request lands up to 63 cycles ahead of it, or
// one in eight up to 4,095 (the cache ports' spread peaks at 4,764).
// perf's sched.reserve_ns books one ring that stays in cache; this shows
// what the rings' footprint costs across many.
func BenchmarkReserveInterleaved(b *testing.B) {
	for _, n := range []int{1, 22, 72} {
		b.Run(fmt.Sprintf("rings=%d", n), func(b *testing.B) {
			cals := make([]*Calendar, n)
			for i := range cals {
				cals[i] = NewCalendar(2, DefaultHorizon)
			}
			ahead := make([]uint16, 1<<12)
			rng := xrand.New(1)
			for i := range ahead {
				if rng.Intn(8) == 0 {
					ahead[i] = uint16(rng.Intn(4096))
				} else {
					ahead[i] = uint16(rng.Intn(64))
				}
			}
			var now int64
			i, next := 0, 0
			for b.Loop() {
				cals[next].Reserve(now + int64(ahead[i&(len(ahead)-1)]))
				i++
				if next++; next == n {
					next = 0
					now += 2
				}
			}
			for _, c := range cals {
				c.Free()
			}
		})
	}
}

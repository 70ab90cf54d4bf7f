// Package sched provides the resource calendar used by the pipeline model:
// a ring-buffer reservation table that answers "earliest cycle >= t with a
// free slot" for width-limited resources (fetch slots, issue ports, cache
// ports, commit slots, migration bandwidth).
package sched

import (
	"fmt"
	"sync"
)

// DefaultHorizon is the ring length a calendar gets unless its owner needs
// a wider one. The spread it must cover — the newest cycle a calendar has
// booked minus the cycle asked for — peaked at 4,764 cycles (the cache
// ports) over the INT suite, the FP suite on the contended fabric and
// paper-all, a 3.4x margin.
const DefaultHorizon = 1 << 14

// Calendar reserves up to width events per cycle. Slots are tracked in a
// ring keyed by cycle; entries are cleared lazily when a new cycle maps
// onto them, so reservation times may be moderately out of order as long as
// the spread stays below the horizon.
type Calendar struct {
	width uint64
	slots []uint64
	mask  int64
}

// Each ring slot packs the cycle currently mapped onto it (upper 56 bits)
// and the number of reservations booked there (lower 8 bits) into one
// word: a Reserve probe reads and writes a single 8-byte location, and the
// whole ring is half the size of a two-field layout — the probe loop is
// the hottest line of the simulator and is effectively bound by cache
// misses on this array.
const calUsedBits = 8

// NewCalendar returns a calendar admitting width events per cycle with the
// given horizon (rounded up to a power of two). The horizon must exceed the
// maximum spread between in-flight reservation times; the pipeline model's
// spread is bounded by the instruction window lifetime. Width is capped at
// 255 by the packed slot layout — far above any modelled issue width. The
// ring is one a freed calendar of the same length returned, cleared, when
// there is one.
func NewCalendar(width, horizon int) *Calendar {
	if width <= 0 || horizon <= 0 || width > 1<<calUsedBits-1 {
		panic("sched: invalid calendar geometry")
	}
	n := 1
	for n < horizon {
		n <<= 1
	}
	var slots []uint64
	if p, ok := ringPool(n).Get().(*[]uint64); ok {
		slots = *p
		clear(slots)
	} else {
		slots = make([]uint64, n)
	}
	return &Calendar{
		width: uint64(width),
		slots: slots,
		mask:  int64(n - 1),
	}
}

// Free hands the calendar's ring to the next NewCalendar of the same
// horizon. The calendar keeps no ring, so any Reserve after Free panics
// instead of booking into another calendar's slots; a second Free does
// nothing.
func (c *Calendar) Free() {
	if c.slots == nil {
		return
	}
	slots := c.slots
	c.slots = nil
	ringPool(len(slots)).Put(&slots)
}

// rings keeps freed calendar rings, a *sync.Pool of *[]uint64 per ring
// length: a simulator owns a score of 128 KiB rings and a sweep builds one
// simulator per point, so reuse saves allocating and zeroing megabytes per
// point.
var rings sync.Map

// ringPool returns the pool of freed rings of length n.
func ringPool(n int) *sync.Pool {
	p, ok := rings.Load(n)
	if !ok {
		p, _ = rings.LoadOrStore(n, new(sync.Pool))
	}
	return p.(*sync.Pool)
}

// Reserve books one slot at the earliest cycle >= t and returns it.
//
// Horizon contract: the spread between in-flight reservation times must stay
// below the horizon. A slot whose packed cycle is *older* than t is stale and
// lazily cleared; one whose cycle is *newer* than t means cycle t aliases a
// live future reservation — clearing it would silently zero that future
// cycle's booked count and corrupt resource accounting, so Reserve panics
// with the geometry instead.
func (c *Calendar) Reserve(t int64) int64 {
	if t < 0 {
		t = 0
	}
	for {
		s := &c.slots[t&c.mask]
		if cyc := int64(*s >> calUsedBits); cyc != t {
			if cyc > t {
				panic(fmt.Sprintf(
					"sched: calendar horizon aliasing: reserving cycle %d landed on live slot for future cycle %d (width %d, horizon %d, spread %d); widen the horizon",
					t, cyc, c.width, len(c.slots), cyc-t))
			}
			*s = uint64(t) << calUsedBits
		}
		if *s&(1<<calUsedBits-1) < c.width {
			*s++
			return t
		}
		t++
	}
}

// Ring is a fixed-capacity FIFO of release times used to model occupancy
// constraints (ROB, issue queues, LSQ entries): dispatching the i-th entry
// requires the (i-capacity)-th entry's release time to have passed.
type Ring struct {
	times []int64
	pos   int
}

// NewRing returns a ring modelling a structure with the given capacity.
// A non-positive capacity means unlimited (FreeAt always returns 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		return &Ring{}
	}
	return &Ring{times: make([]int64, capacity)}
}

// FreeAt returns the earliest cycle a new entry can be allocated.
func (r *Ring) FreeAt() int64 {
	if len(r.times) == 0 {
		return 0
	}
	return r.times[r.pos]
}

// Push records the release time of the entry just allocated.
func (r *Ring) Push(release int64) {
	if len(r.times) == 0 {
		return
	}
	r.times[r.pos] = release
	// Branch instead of modulo: capacities are rarely powers of two and
	// this runs several times per simulated instruction.
	r.pos++
	if r.pos == len(r.times) {
		r.pos = 0
	}
}

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

// A calendar ring is split into chunks of chunkCycles consecutive cycles:
// one cache line of booked counts, one byte per cycle, under one tag.
const (
	chunkBits   = 6
	chunkCycles = 1 << chunkBits
)

// Calendar reserves up to width events per cycle. Booked counts are kept
// in a ring keyed by cycle, one byte per cycle, in chunks of 64 cycles;
// each chunk's tag names the chunk of cycles (cycle >> 6) its counts
// belong to. A chunk whose tag names older cycles is cleared as a whole
// when a newer cycle maps onto it, so reservation times may be moderately
// out of order as long as the spread stays below the horizon.
type Calendar struct {
	width uint8
	ring
	mask int64 // chunks in the ring − 1
}

// ring is a calendar's storage: per chunk, a tag and a cache line of
// counts. A DefaultHorizon ring holds 18 KiB (16 KiB of counts, 2 KiB of
// tags). The probe loop is the hottest line of the simulator, and a
// simulator books a score of calendars in turn, so the rings' footprint
// sets its cache misses.
type ring struct {
	tags   []int64
	counts [][chunkCycles]uint8
}

// NewCalendar returns a calendar admitting width events per cycle with the
// given horizon, rounded up to a power of two and to at least one chunk of
// 64 cycles. The horizon must exceed the maximum spread between in-flight
// reservation times; the pipeline model's spread is bounded by the
// instruction window lifetime. Width is capped at 255 by the one-byte
// count — far above any modelled issue width. The ring is one a freed
// calendar of the same length returned, cleared, when there is one.
func NewCalendar(width, horizon int) *Calendar {
	if width <= 0 || horizon <= 0 || width > 255 {
		panic("sched: invalid calendar geometry")
	}
	n := chunkCycles
	for n < horizon {
		n <<= 1
	}
	chunks := n / chunkCycles
	var r ring
	if p, ok := ringPool(n).Get().(*ring); ok {
		r = *p
		clear(r.tags)
		clear(r.counts)
	} else {
		r = ring{tags: make([]int64, chunks), counts: make([][chunkCycles]uint8, chunks)}
	}
	return &Calendar{
		width: uint8(width),
		ring:  r,
		mask:  int64(chunks - 1),
	}
}

// Free hands the calendar's ring to the next NewCalendar of the same
// horizon. The calendar keeps no ring, so any Reserve after Free panics
// instead of booking into another calendar's counts; a second Free does
// nothing.
func (c *Calendar) Free() {
	if c.tags == nil {
		return
	}
	r := c.ring
	c.ring = ring{}
	ringPool(len(r.tags) * chunkCycles).Put(&r)
}

// rings keeps freed calendar rings, a *sync.Pool of *ring per ring length
// in cycles: a simulator owns a score of 18 KiB rings (72 on the contended
// fabric) and a sweep builds one simulator per point, so reuse saves
// allocating and zeroing 0.4–1.3 MiB per point.
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
// below the horizon. A chunk whose tag names cycles *older* than t's is
// stale and cleared as a whole; one whose tag names *newer* cycles means
// cycle t aliases a chunk holding live future reservations — clearing it
// would silently zero those cycles' booked counts and corrupt resource
// accounting, so Reserve panics with the geometry instead. A chunk's tag
// only names newer cycles once some cycle at least horizon − 63 cycles
// after t has been booked.
func (c *Calendar) Reserve(t int64) int64 {
	if t < 0 {
		t = 0
	}
	for {
		k := (t >> chunkBits) & c.mask
		if tag := c.tags[k]; tag != t>>chunkBits {
			if tag > t>>chunkBits {
				panic(fmt.Sprintf(
					"sched: calendar horizon aliasing: reserving cycle %d landed on a live chunk for future cycles %d-%d (width %d, horizon %d, spread at least %d); widen the horizon",
					t, tag<<chunkBits, tag<<chunkBits+chunkCycles-1, c.width, len(c.tags)*chunkCycles, tag<<chunkBits-t))
			}
			c.tags[k] = t >> chunkBits
			c.counts[k] = [chunkCycles]uint8{}
		}
		if n := &c.counts[k][t&(chunkCycles-1)]; *n < c.width {
			*n++
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

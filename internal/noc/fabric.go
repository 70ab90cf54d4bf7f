package noc

import "repro/internal/sched"

// Traffic is a fabric's cumulative message accounting. The analytic model
// fills only the contention-free columns (hops and bus trips); the contended
// model additionally reports the cycles messages spent queued on busy links
// and the epoch-state flits it moved. Snapshots subtract (Sub), so a driver
// can report exactly the measured region's traffic.
type Traffic struct {
	// Hops is the total link traversals of all mesh messages.
	Hops uint64
	// OneWays and RoundTrips count CP<->MP bus messages.
	OneWays, RoundTrips uint64
	// LinkWaitCycles is the total cycles mesh messages waited for a busy
	// link (0 under the analytic model).
	LinkWaitCycles uint64
	// BusWaitCycles is the total cycles bus messages waited for a busy bus
	// slot (0 under the analytic model).
	BusWaitCycles uint64
	// MigrateFlits counts epoch-state flits moved between engines.
	MigrateFlits uint64
}

// Sub returns the traffic accumulated since the snapshot old was taken.
func (t Traffic) Sub(old Traffic) Traffic {
	return Traffic{
		Hops:           t.Hops - old.Hops,
		OneWays:        t.OneWays - old.OneWays,
		RoundTrips:     t.RoundTrips - old.RoundTrips,
		LinkWaitCycles: t.LinkWaitCycles - old.LinkWaitCycles,
		BusWaitCycles:  t.BusWaitCycles - old.BusWaitCycles,
		MigrateFlits:   t.MigrateFlits - old.MigrateFlits,
	}
}

// Fabric is the single interface every FMC-side latency flows through: the
// CP<->MP bus, the memory-engine mesh, and epoch-state migration bandwidth.
// All timing methods take the cycle the message enters the fabric and return
// the cycle it arrives (a round trip returns the response's arrival), so a
// contended implementation can compose queueing delay with propagation
// latency while the analytic implementation degenerates to fixed adds.
type Fabric interface {
	// Distance returns the Manhattan hop count between engines a and b
	// without sending a message (placement policies use it for locality).
	Distance(a, b int) int
	// BusOneWay sends one CP->MP (or MP->CP) message entering at t and
	// returns its arrival cycle.
	BusOneWay(t int64) int64
	// BusRoundTrip sends a request at t and returns the cycle the response
	// arrives back.
	BusRoundTrip(t int64) int64
	// Route sends a mesh message from engine a to engine b entering at t
	// and returns its arrival cycle (t when a == b).
	Route(a, b int, t int64) int64
	// MigrateState transfers an epoch-state block of flits flits from
	// engine a to engine b starting at t and returns the cycle the last
	// flit arrives (t when a == b or flits <= 0).
	MigrateState(a, b, flits int, t int64) int64
	// Traffic returns the cumulative message accounting.
	Traffic() Traffic
}

// contendedCalendars returns how many reservation calendars a contended
// fabric over a w x h mesh books: one per directed mesh link plus the two
// bus directions.
func contendedCalendars(w, h int) int {
	return 2*((w-1)*h+w*(h-1)) + 2
}

// Contended is the occupancy-based fabric: every directed mesh link and both
// bus directions are width-limited resources backed by sched.Calendar, so
// messages queue when a link is busy instead of passing through for free.
// Mesh messages follow deterministic X-Y (dimension-ordered) routing; epoch
// state migrates as a multi-flit block that books every link it crosses,
// charging real bandwidth for placement policies that move epochs off their
// home bank. Latency is bounded below by the analytic model point-wise (at
// link width 1): each hop pays at least the propagation cost, plus whatever
// queueing the calendar imposes.
type Contended struct {
	w, h    int
	hopCost int
	oneWay  int

	busOut, busIn *sched.Calendar
	links         []*sched.Calendar

	tr Traffic
}

// NewContended builds the occupancy-based fabric for a w x h mesh with the
// given per-hop and bus one-way latencies. linkWidth is the number of
// messages each link (and each bus direction) accepts per cycle. alloc
// builds each reservation calendar — the pipeline model passes one at its
// own calendar horizon that also records the calendar for freeing; nil
// uses sched.DefaultHorizon. It panics on an empty mesh, a negative
// latency or a non-positive link width.
func NewContended(w, h, hopCost, oneWay, linkWidth int, alloc func(width int) *sched.Calendar) *Contended {
	if w <= 0 || h <= 0 || hopCost < 0 || oneWay < 0 || linkWidth <= 0 {
		panic("noc: invalid contended fabric geometry")
	}
	if alloc == nil {
		alloc = func(width int) *sched.Calendar { return sched.NewCalendar(width, sched.DefaultHorizon) }
	}
	f := &Contended{w: w, h: h, hopCost: hopCost, oneWay: oneWay}
	f.busOut = alloc(linkWidth)
	f.busIn = alloc(linkWidth)
	f.links = make([]*sched.Calendar, contendedCalendars(w, h)-2)
	for i := range f.links {
		f.links[i] = alloc(linkWidth)
	}
	return f
}

// Distance implements Fabric.
func (f *Contended) Distance(a, b int) int { return distance(f.w, a, b) }

// Directed-link index layout: east links (x -> x+1), then west, then south
// (y -> y+1), then north. Horizontal links are keyed by (y, min x), vertical
// by (x, min y).
func (f *Contended) linkIndex(fromX, fromY, toX, toY int) int {
	hPerDir := (f.w - 1) * f.h
	vPerDir := f.w * (f.h - 1)
	switch {
	case toX == fromX+1: // east
		return fromY*(f.w-1) + fromX
	case toX == fromX-1: // west
		return hPerDir + fromY*(f.w-1) + toX
	case toY == fromY+1: // south
		return 2*hPerDir + fromX*(f.h-1) + fromY
	default: // north
		return 2*hPerDir + vPerDir + fromX*(f.h-1) + toY
	}
}

// hop books one link traversal entering at t and returns the arrival cycle.
func (f *Contended) hop(fromX, fromY, toX, toY int, t int64) int64 {
	depart := f.links[f.linkIndex(fromX, fromY, toX, toY)].Reserve(t)
	f.tr.LinkWaitCycles += uint64(depart - t)
	f.tr.Hops++
	return depart + int64(f.hopCost)
}

// BusOneWay implements Fabric: books one outbound bus slot.
func (f *Contended) BusOneWay(t int64) int64 {
	depart := f.busOut.Reserve(t)
	f.tr.BusWaitCycles += uint64(depart - t)
	f.tr.OneWays++
	return depart + int64(f.oneWay)
}

// BusRoundTrip implements Fabric: the request books the outbound direction,
// the response books the inbound direction at the request's arrival.
func (f *Contended) BusRoundTrip(t int64) int64 {
	depart := f.busOut.Reserve(t)
	f.tr.BusWaitCycles += uint64(depart - t)
	arrive := depart + int64(f.oneWay)
	back := f.busIn.Reserve(arrive)
	f.tr.BusWaitCycles += uint64(back - arrive)
	f.tr.RoundTrips++
	return back + int64(f.oneWay)
}

// Route implements Fabric: X-Y routing, booking every link crossed.
func (f *Contended) Route(a, b int, t int64) int64 {
	x, y := a%f.w, a/f.w
	bx, by := b%f.w, b/f.w
	cur := t
	for x != bx {
		nx := x + 1
		if bx < x {
			nx = x - 1
		}
		cur = f.hop(x, y, nx, y, cur)
		x = nx
	}
	for y != by {
		ny := y + 1
		if by < y {
			ny = y - 1
		}
		cur = f.hop(x, y, x, ny, cur)
		y = ny
	}
	return cur
}

// MigrateState implements Fabric: every flit of the block routes a->b
// individually, so the block's bandwidth demand serialises on each crossed
// link at the link width. The return is the last flit's arrival.
func (f *Contended) MigrateState(a, b, flits int, t int64) int64 {
	if a == b || flits <= 0 {
		return t
	}
	done := t
	for i := 0; i < flits; i++ {
		if arr := f.Route(a, b, t); arr > done {
			done = arr
		}
	}
	f.tr.MigrateFlits += uint64(flits)
	return done
}

// Traffic implements Fabric.
func (f *Contended) Traffic() Traffic { return f.tr }

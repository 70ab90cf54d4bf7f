// Package noc models the FMC interconnect (Figure 6 of the paper): a bus
// between the Cache Processor and the Memory Processor with a 4-cycle
// one-way latency, and a mesh linking the memory engines at one hop per
// cycle. Every FMC-side latency flows through the Fabric interface, which
// has two implementations: Analytic, the paper's contention-free model
// (the paper's single-cycle router citation [14] justifies contention-free
// hops), and Contended, which books every link and bus direction on a
// reservation calendar. Both count traffic for the Table 2 "RoundTrips"
// column.
package noc

// distance returns the Manhattan hop count between nodes a and b of a mesh
// of width w whose nodes are indexed in row-major order.
func distance(w, a, b int) int {
	ax, ay := a%w, a/w
	bx, by := b%w, b/w
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Analytic is the paper's contention-free fabric (the default): a CP<->MP
// bus with a fixed one-way latency and a w x h mesh of memory engines,
// indexed 0..w*h-1 in row-major order, at a fixed per-hop latency. Traffic
// is counted for the Table 2 RoundTrips column.
type Analytic struct {
	w         int
	hopCost   int
	busOneWay int

	tr Traffic
}

// NewAnalytic builds the contention-free fabric for a w x h mesh with the
// given per-hop and bus one-way latencies in cycles, mirroring
// NewContended's geometry arguments. It panics on an empty mesh or a
// negative latency.
func NewAnalytic(w, h, hopCost, busOneWay int) *Analytic {
	if w <= 0 || h <= 0 || hopCost < 0 || busOneWay < 0 {
		panic("noc: invalid analytic fabric geometry")
	}
	return &Analytic{w: w, hopCost: hopCost, busOneWay: busOneWay}
}

// Distance implements Fabric.
func (f *Analytic) Distance(a, b int) int { return distance(f.w, a, b) }

// BusOneWay implements Fabric: a fixed one-way latency.
func (f *Analytic) BusOneWay(t int64) int64 {
	f.tr.OneWays++
	return t + int64(f.busOneWay)
}

// BusRoundTrip implements Fabric: two fixed one-way latencies.
func (f *Analytic) BusRoundTrip(t int64) int64 {
	f.tr.RoundTrips++
	return t + int64(2*f.busOneWay)
}

// Route implements Fabric: Manhattan distance at the fixed per-hop latency.
func (f *Analytic) Route(a, b int, t int64) int64 {
	d := f.Distance(a, b)
	f.tr.Hops += uint64(d)
	return t + int64(d*f.hopCost)
}

// MigrateState implements Fabric: the block cuts through contention-free at
// one flit per cycle, so the last of flits flits arrives a flits-1 cycle
// tail after the head. Hops are counted per flit per link, matching the
// contended model's accounting (the hop-conservation property).
func (f *Analytic) MigrateState(a, b, flits int, t int64) int64 {
	if a == b || flits <= 0 {
		return t
	}
	d := f.Distance(a, b)
	f.tr.Hops += uint64(d * flits)
	f.tr.MigrateFlits += uint64(flits)
	return t + int64(d*f.hopCost) + int64(flits-1)
}

// Traffic implements Fabric. The wait columns stay zero.
func (f *Analytic) Traffic() Traffic { return f.tr }

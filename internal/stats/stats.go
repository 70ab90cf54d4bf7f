// Package stats provides the event counters and histograms used to report
// every figure and table in the reproduction.
//
// Every counted event has a constant ID (Event) and one entry in one table:
// its counter name and, for the events internal/energy prices, the
// structure it is charged to and how one event is priced (Kind). Each
// simulation lane counts into one fixed array indexed by those IDs
// (Tally), incremented in place on the hot path; a finished run reports it
// through the name-keyed Counters view, which lists an event if and only
// if its count is non-zero. All values are plain integers or float64s
// accumulated single-threadedly by the simulator; per-100M-inst
// normalisation (the paper's reporting unit) is provided by Per100M.
package stats

// Per100M scales an event count observed over n committed instructions to
// the paper's "events per 100 million committed instructions" unit.
func Per100M(events uint64, committed uint64) float64 {
	if committed == 0 {
		return 0
	}
	return float64(events) * 1e8 / float64(committed)
}

// Histogram is a fixed-width bucketed histogram, used for the Figure 1
// decode→address-calculation latency distributions (30-cycle buckets in the
// paper).
type Histogram struct {
	// Width is the bucket width in x units.
	Width int
	// Counts[i] counts samples with x in [i*Width, (i+1)*Width).
	Counts []uint64
	// Total is the number of samples.
	Total uint64
	// Overflow counts samples beyond the last bucket.
	Overflow uint64
}

// NewHistogram returns a histogram with the given bucket width and number of
// buckets.
func NewHistogram(width, buckets int) *Histogram {
	if width <= 0 || buckets <= 0 {
		panic("stats: histogram needs positive width and bucket count")
	}
	return &Histogram{Width: width, Counts: make([]uint64, buckets)}
}

// Add records one sample at x (x < 0 is clamped to bucket zero).
func (h *Histogram) Add(x int) {
	h.Total++
	if x < 0 {
		x = 0
	}
	b := x / h.Width
	if b >= len(h.Counts) {
		h.Overflow++
		return
	}
	h.Counts[b]++
}

// Percentile returns the smallest x (bucket upper edge) covering at least
// frac of all samples, e.g. Percentile(0.95) is the paper's "95%" marker.
func (h *Histogram) Percentile(frac float64) int {
	if h.Total == 0 {
		return 0
	}
	target := uint64(frac * float64(h.Total))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return (i + 1) * h.Width
		}
	}
	return (len(h.Counts) + 1) * h.Width // overflow region
}

// FracWithin returns the fraction of samples with x < limit.
func (h *Histogram) FracWithin(limit int) float64 {
	if h.Total == 0 {
		return 0
	}
	var cum uint64
	for i, c := range h.Counts {
		if (i+1)*h.Width > limit {
			// partial bucket: attribute proportionally
			if i*h.Width < limit {
				cum += c * uint64(limit-i*h.Width) / uint64(h.Width)
			}
			break
		}
		cum += c
	}
	return float64(cum) / float64(h.Total)
}

// Merge adds other's samples into h. Histograms must have identical shape.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if h.Width != other.Width || len(h.Counts) != len(other.Counts) {
		panic("stats: merging incompatible histograms")
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.Total += other.Total
	h.Overflow += other.Overflow
}

// Mean computes the arithmetic mean of xs; it returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

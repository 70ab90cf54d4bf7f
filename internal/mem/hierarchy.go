package mem

import "repro/internal/config"

// Level identifies where an access was satisfied.
type Level uint8

const (
	// LevelL1 means the access hit in the first-level cache.
	LevelL1 Level = iota
	// LevelL2 means the access missed L1 and hit L2.
	LevelL2
	// LevelMem means the access went to main memory.
	LevelMem
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	default:
		return "mem"
	}
}

// Hierarchy is the two-level cache plus main memory of Table 1. It is purely
// functional state: latency composition and port contention are handled by
// the pipeline model.
type Hierarchy struct {
	// L1 and L2 are the cache levels.
	L1, L2 *Cache
	// Latencies per level.
	l1Lat, l2Lat, memLat int
}

// NewHierarchy builds the hierarchy from a full processor configuration.
func NewHierarchy(cfg *config.Config) *Hierarchy {
	return &Hierarchy{
		L1:     NewCache(cfg.L1),
		L2:     NewCache(cfg.L2),
		l1Lat:  cfg.L1.LatencyCycles,
		l2Lat:  cfg.L2.LatencyCycles,
		memLat: cfg.MemLatency,
	}
}

// Free hands both caches' line arrays to later hierarchies (Cache.Free);
// the hierarchy must not be used again.
func (h *Hierarchy) Free() {
	h.L1.Free()
	h.L2.Free()
}

// Access simulates a load or store reference to addr. It returns the level
// that satisfied it and the access latency in cycles. Lines are allocated in
// both levels on miss (write-allocate, inclusive).
func (h *Hierarchy) Access(addr uint64) (Level, int) {
	if _, hit := h.L1.Access(addr); hit {
		return LevelL1, h.l1Lat
	}
	if _, hit := h.L2.Access(addr); hit {
		h.L1.allocateMissed(addr)
		return LevelL2, h.l2Lat
	}
	h.L2.allocateMissed(addr)
	h.L1.allocateMissed(addr)
	return LevelMem, h.memLat
}

// Probe reports which level currently holds addr without perturbing LRU.
// The pipeline's SVW re-execution uses it to price a commit-time re-read,
// and the workload calibration tests to classify references.
func (h *Hierarchy) Probe(addr uint64) Level {
	if _, hit := h.L1.Lookup(addr); hit {
		return LevelL1
	}
	if _, hit := h.L2.Lookup(addr); hit {
		return LevelL2
	}
	return LevelMem
}

// Latency returns the total access latency for a given satisfying level.
func (h *Hierarchy) Latency(l Level) int {
	switch l {
	case LevelL1:
		return h.l1Lat
	case LevelL2:
		return h.l2Lat
	default:
		return h.memLat
	}
}

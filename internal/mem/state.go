package mem

// Cache and hierarchy checkpointing: CacheState / HierarchyState are the
// serialisable images of the warm memory state a functional warm-up leaves
// behind. Restoring them onto a freshly built hierarchy of identical
// geometry is bit-equivalent to replaying the warm-up's access sequence —
// lines, LRU ticks, the use clock and the hit/miss counters all carry over,
// so a resumed simulation observes exactly the caches a fresh run would.
//
// An image lists valid lines only. That loses nothing: only fill and
// SetState write a line, so a filled line never becomes invalid again, and
// an invalid slot holds nothing a lookup or a victim choice reads (fill
// takes the first invalid way without looking at its tick). renormalise
// ranks an invalid slot too, but its rank sits below every valid line's
// either way, so the valid lines' ranks come out the same. Lock counts are
// not imaged: functional warm-up never locks a line, and State refuses one.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// lineStateBytes is the packed size of one valid line in an image: tagv
// (8 bytes) and use (4), little-endian.
const lineStateBytes = 12

// CacheState is the serialisable image of one cache level.
type CacheState struct {
	// Sets, Ways and LineBytes pin the geometry the image belongs to;
	// SetState refuses a mismatch.
	Sets      int `json:"sets"`
	Ways      int `json:"ways"`
	LineBytes int `json:"line_bytes"`
	// UseClock is the LRU clock.
	UseClock uint32 `json:"use_clock"`
	// Accesses and Misses are the lookup/miss counters.
	Accesses uint64 `json:"accesses"`
	Misses   uint64 `json:"misses"`
	// Valid is the validity bitmap, one bit per line slot in set-major
	// order: slot i is bit i%8 of byte i/8. Bits past the last slot are
	// zero.
	Valid []byte `json:"valid"`
	// Lines holds, for each set bit of Valid in slot order, that line's
	// tagv and use, lineStateBytes each. Both slices JSON-encode as base64;
	// the L2's Lines dominate a checkpoint's size.
	Lines []byte `json:"lines"`
}

// State captures the cache's complete mutable state. It panics on a locked
// line: its caller images a hierarchy after functional warm-up, which
// never locks, and the image format has no place for lock counts.
func (c *Cache) State() *CacheState {
	n := 0
	for i := range c.lines {
		if c.lines[i].locks != 0 {
			panic(fmt.Sprintf("mem: cannot image locked line %d (set %d, way %d)", i, i/c.ways, i%c.ways))
		}
		if c.lines[i].valid() {
			n++
		}
	}
	st := &CacheState{
		Sets:      c.cfg.Sets(),
		Ways:      c.ways,
		LineBytes: c.cfg.LineBytes,
		UseClock:  c.useClock,
		Accesses:  c.Accesses,
		Misses:    c.Misses,
		Valid:     make([]byte, validBytes(len(c.lines))),
		Lines:     make([]byte, 0, n*lineStateBytes),
	}
	for i, l := range c.lines {
		if l.valid() {
			st.Valid[i/8] |= 1 << (i % 8)
			st.Lines = binary.LittleEndian.AppendUint64(st.Lines, l.tagv)
			st.Lines = binary.LittleEndian.AppendUint32(st.Lines, l.use)
		}
	}
	return st
}

// validBytes is the validity bitmap's length for slots line slots.
func validBytes(slots int) int { return (slots + 7) / 8 }

// SetState overwrites the cache's state with a captured image. The image is
// untrusted input: SetState returns an error, and leaves the cache in an
// unspecified state, for an image of another geometry, a validity map of
// the wrong length or with bits past the last slot, a line section that is
// not exactly lineStateBytes per valid slot, a listed line whose tagv lacks
// the valid bit, a use clock at its wrap point or a use tick above it, or
// two valid ways of one set holding the same tag — nothing a warm-up can
// produce. The image itself is only read, so one image may restore many
// caches concurrently.
func (c *Cache) SetState(st *CacheState) error {
	if st.Sets != c.cfg.Sets() || st.Ways != c.ways || st.LineBytes != c.cfg.LineBytes {
		return fmt.Errorf("mem: state geometry %dx%dx%dB does not match cache %dx%dx%dB",
			st.Sets, st.Ways, st.LineBytes, c.cfg.Sets(), c.ways, c.cfg.LineBytes)
	}
	slots := len(c.lines)
	if len(st.Valid) != validBytes(slots) {
		return fmt.Errorf("mem: validity map is %d bytes, want %d", len(st.Valid), validBytes(slots))
	}
	if slots%8 != 0 && st.Valid[len(st.Valid)-1]>>(slots%8) != 0 {
		return fmt.Errorf("mem: validity map marks slots past the last (%d)", slots)
	}
	valid := 0
	for _, b := range st.Valid {
		valid += bits.OnesCount8(b)
	}
	if len(st.Lines) != valid*lineStateBytes {
		return fmt.Errorf("mem: line section is %d bytes, want %d for %d valid lines",
			len(st.Lines), valid*lineStateBytes, valid)
	}
	if st.UseClock == ^uint32(0) {
		return fmt.Errorf("mem: use clock %#x is at its wrap point", st.UseClock)
	}
	clear(c.lines)
	rec := st.Lines
	for by, b := range st.Valid {
		for ; b != 0; b &= b - 1 {
			i := by*8 + bits.TrailingZeros8(b)
			tagv := binary.LittleEndian.Uint64(rec)
			use := binary.LittleEndian.Uint32(rec[8:])
			rec = rec[lineStateBytes:]
			if tagv&1 == 0 {
				return fmt.Errorf("mem: line %d is listed valid but its tag word %#x lacks the valid bit", i, tagv)
			}
			if use > st.UseClock {
				return fmt.Errorf("mem: line %d use tick %d is above the use clock %d", i, use, st.UseClock)
			}
			for v := i - i%c.ways; v < i; v++ {
				if c.lines[v].tagv == tagv {
					return fmt.Errorf("mem: set %d holds tag %#x in ways %d and %d", i/c.ways, tagv>>1, v%c.ways, i%c.ways)
				}
			}
			c.lines[i] = line{tagv: tagv, use: use}
		}
	}
	c.useClock = st.UseClock
	c.Accesses = st.Accesses
	c.Misses = st.Misses
	return nil
}

// HierarchyState is the serialisable image of the whole memory hierarchy.
type HierarchyState struct {
	L1 *CacheState `json:"l1"`
	L2 *CacheState `json:"l2"`
	// L1Accesses is the hierarchy-level data-cache access counter.
	L1Accesses uint64 `json:"l1_accesses"`
}

// State captures both cache levels and the hierarchy counters.
func (h *Hierarchy) State() *HierarchyState {
	return &HierarchyState{L1: h.L1.State(), L2: h.L2.State(), L1Accesses: h.L1Accesses}
}

// SetState restores both cache levels and the hierarchy counters.
func (h *Hierarchy) SetState(st *HierarchyState) error {
	if st == nil || st.L1 == nil || st.L2 == nil {
		return fmt.Errorf("mem: incomplete hierarchy state")
	}
	if err := h.L1.SetState(st.L1); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := h.L2.SetState(st.L2); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	h.L1Accesses = st.L1Accesses
	return nil
}

package mem

// Cache and hierarchy checkpointing: CacheState / HierarchyState are the
// serialisable images of the warm memory state a functional warm-up leaves
// behind. Restoring them onto a freshly built hierarchy of identical
// geometry is bit-equivalent to replaying the warm-up's access sequence —
// lines, LRU ticks and the use clock all carry over, so a resumed
// simulation observes exactly the caches a fresh run would. The caches
// count no events (the pipeline counts into the simulation's tally), so
// an image holds no counters; older images' counter fields are ignored.
//
// An image lists valid lines only. That loses nothing: only fill and
// SetState write a line, so a filled line never becomes invalid again, and
// an invalid slot holds nothing a lookup or a victim choice reads (fill
// takes the first invalid way without looking at its tick). renormalise
// ranks an invalid slot too, but its rank sits below every valid line's
// either way, so the valid lines' ranks come out the same. Lock counts are
// not imaged: functional warm-up never locks a line, and State refuses one.
//
// Each listed line is its tag, then its use tick, little-endian in the
// fewest whole bytes the image needs: the width of its largest tag and the
// width of its use clock, which no tick exceeds. SetState reads each field
// with one 8-byte load masked to its width.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// CacheState is the serialisable image of one cache level.
type CacheState struct {
	// Sets, Ways and LineBytes pin the geometry the image belongs to;
	// SetState refuses a mismatch.
	Sets      int `json:"sets"`
	Ways      int `json:"ways"`
	LineBytes int `json:"line_bytes"`
	// UseClock is the LRU clock.
	UseClock uint32 `json:"use_clock"`
	// TagBytes (1–8) and UseBytes (1–4) are the widths of each listed
	// line's tag and use tick. State picks the fewest whole bytes that
	// hold the image's largest tag and its use clock.
	TagBytes int `json:"tag_bytes"`
	UseBytes int `json:"use_bytes"`
	// Valid is the validity bitmap, one bit per line slot in set-major
	// order: slot i is bit i%8 of byte i/8. Bits past the last slot are
	// zero.
	Valid []byte `json:"valid"`
	// Lines holds, for each set bit of Valid in slot order, that line's
	// tag in TagBytes and then its use tick in UseBytes, both
	// little-endian; the valid bit is Valid's. Both slices JSON-encode as
	// base64; the L2's Lines dominate a checkpoint's size.
	Lines []byte `json:"lines"`
}

// State captures the cache's complete mutable state. It panics on a locked
// line: its caller images a hierarchy after functional warm-up, which
// never locks, and the image format has no place for lock counts.
func (c *Cache) State() *CacheState {
	n := 0
	var tagvs uint64
	for i := range c.lines {
		l := &c.lines[i]
		if l.locks != 0 {
			panic(fmt.Sprintf("mem: cannot image locked line %d (set %d, way %d)", i, i/c.ways, i%c.ways))
		}
		if l.valid() {
			n++
			tagvs |= l.tagv
		}
	}
	tb, ub := byteWidth(tagvs>>1), byteWidth(uint64(c.useClock))
	rec := tb + ub
	st := &CacheState{
		Sets:      c.cfg.Sets(),
		Ways:      c.ways,
		LineBytes: c.cfg.LineBytes,
		UseClock:  c.useClock,
		TagBytes:  tb,
		UseBytes:  ub,
		Valid:     make([]byte, validBytes(len(c.lines))),
		Lines:     make([]byte, n*rec),
	}
	r := st.Lines
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid() {
			continue
		}
		st.Valid[i/8] |= 1 << (i % 8)
		// putWord writes a whole word, zero past the value's width: the
		// tick overwrites the tag's zeros, the next record the tick's.
		putWord(r, l.tagv>>1)
		putWord(r[tb:], uint64(l.use))
		r = r[rec:]
	}
	return st
}

// validBytes is the validity bitmap's length for slots line slots.
func validBytes(slots int) int { return (slots + 7) / 8 }

// byteWidth is the number of whole bytes v takes, at least 1.
func byteWidth(v uint64) int { return max(1, (bits.Len64(v)+7)/8) }

// word returns the little-endian word at the start of b, reading zeros
// past b's end.
func word(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w uint64
	for k, x := range b {
		w |= uint64(x) << (8 * k)
	}
	return w
}

// putWord stores w little-endian at the start of b, dropping the bytes
// past b's end.
func putWord(b []byte, w uint64) {
	if len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, w)
		return
	}
	for k := range b {
		b[k] = byte(w >> (8 * k))
	}
}

// SetState overwrites the cache's state with a captured image. The image is
// untrusted input: SetState returns an error, and leaves the cache in an
// unspecified state, for an image of another geometry, a tag width outside
// 1–8 or a tick width outside 1–4 bytes, a validity map of the wrong length
// or with bits past the last slot, a line section that is not exactly
// TagBytes + UseBytes per valid slot, a tag no address of the geometry maps
// to, a use clock at its wrap point or a use tick above it, or two valid
// ways of one set holding the same tag — nothing a warm-up can produce.
// The image itself is only read, so one image may restore many caches
// concurrently.
func (c *Cache) SetState(st *CacheState) error {
	if st.Sets != c.cfg.Sets() || st.Ways != c.ways || st.LineBytes != c.cfg.LineBytes {
		return fmt.Errorf("mem: state geometry %dx%dx%dB does not match cache %dx%dx%dB",
			st.Sets, st.Ways, st.LineBytes, c.cfg.Sets(), c.ways, c.cfg.LineBytes)
	}
	if st.TagBytes < 1 || st.TagBytes > 8 || st.UseBytes < 1 || st.UseBytes > 4 {
		return fmt.Errorf("mem: record widths of %d tag and %d use bytes, want 1-8 and 1-4", st.TagBytes, st.UseBytes)
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
	rec := st.TagBytes + st.UseBytes
	if len(st.Lines) != valid*rec {
		return fmt.Errorf("mem: line section is %d bytes, want %d for %d valid lines of %d bytes",
			len(st.Lines), valid*rec, valid, rec)
	}
	if st.UseClock == ^uint32(0) {
		return fmt.Errorf("mem: use clock %#x is at its wrap point", st.UseClock)
	}
	tb, clock := st.TagBytes, st.UseClock
	tagMask := uint64(1)<<(8*tb) - 1 // all ones at 8 bytes: 1<<64 is 0
	useMask := uint64(1)<<(8*st.UseBytes) - 1
	maxTag := ^uint64(0) >> c.tagShift // the tag of the highest address
	clear(c.lines)
	r := st.Lines
	for by, b := range st.Valid {
		for ; b != 0; b &= b - 1 {
			i := by*8 + bits.TrailingZeros8(b)
			set := i - i%c.ways // slot i's set starts at slot set
			tag, use := word(r)&tagMask, uint32(word(r[tb:])&useMask)
			r = r[rec:]
			if tag > maxTag {
				return fmt.Errorf("mem: line %d tag %#x is above the geometry's largest, %#x", i, tag, maxTag)
			}
			if use > clock {
				return fmt.Errorf("mem: line %d use tick %d is above the use clock %d", i, use, clock)
			}
			tagv := mkTagv(tag)
			for v := set; v < i; v++ {
				if c.lines[v].tagv == tagv {
					return fmt.Errorf("mem: set %d holds tag %#x in ways %d and %d", i/c.ways, tag, v-set, i-set)
				}
			}
			c.lines[i] = line{tagv: tagv, use: use}
		}
	}
	c.useClock = st.UseClock
	return nil
}

// HierarchyState is the serialisable image of the whole memory hierarchy.
type HierarchyState struct {
	L1 *CacheState `json:"l1"`
	L2 *CacheState `json:"l2"`
}

// State captures both cache levels.
func (h *Hierarchy) State() *HierarchyState {
	return &HierarchyState{L1: h.L1.State(), L2: h.L2.State()}
}

// SetState restores both cache levels.
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
	return nil
}

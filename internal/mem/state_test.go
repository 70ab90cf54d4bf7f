package mem

import (
	"encoding/json"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/xrand"
)

func testGeom() config.CacheConfig {
	return config.CacheConfig{SizeBytes: 4 << 10, Ways: 4, LineBytes: 32, LatencyCycles: 1}
}

// TestCacheStateRoundTrip restores a captured image (through the JSON
// encoding the disk store uses) onto a fresh cache and requires identical
// lines and identical observable behaviour from both.
func TestCacheStateRoundTrip(t *testing.T) {
	a := warmCache(testGeom(), 10_000)

	buf, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var st CacheState
	if err := json.Unmarshal(buf, &st); err != nil {
		t.Fatal(err)
	}
	b := NewCache(testGeom())
	if err := b.SetState(&st); err != nil {
		t.Fatal(err)
	}

	if b.useClock != a.useClock {
		t.Fatalf("use clock %d, want %d", b.useClock, a.useClock)
	}
	for i := range a.lines {
		if a.lines[i] != b.lines[i] {
			t.Fatalf("line %d diverged: %+v vs %+v", i, a.lines[i], b.lines[i])
		}
	}
	// Behavioural equivalence: the same access sequence produces the same
	// hit/miss and victim decisions on both.
	for i := uint64(0); i < 5_000; i++ {
		addr := (i * 40503) % (64 << 10)
		sa, ha := a.Access(addr)
		sb, hb := b.Access(addr)
		if ha != hb || sa != sb {
			t.Fatalf("access %d diverged: (%v,%v) vs (%v,%v)", i, sa, ha, sb, hb)
		}
		if !ha {
			va, oka := a.allocateMissed(addr)
			vb, okb := b.allocateMissed(addr)
			if va != vb || oka != okb {
				t.Fatalf("fill %d diverged: (%v,%v) vs (%v,%v)", i, va, oka, vb, okb)
			}
		}
	}
}

// warmCache returns a cache of geometry g after n accesses spread over
// 64 KiB, filling on every miss as the hierarchy does.
func warmCache(g config.CacheConfig, n uint64) *Cache {
	c := NewCache(g)
	for i := uint64(0); i < n; i++ {
		addr := (i * 2654435761) % (64 << 10)
		if _, hit := c.Access(addr); !hit {
			c.allocateMissed(addr)
		}
	}
	return c
}

func TestCacheStateRejectsGeometryMismatch(t *testing.T) {
	st := warmCache(testGeom(), 1_000).State()
	other := testGeom()
	other.Ways = 2
	if err := NewCache(other).SetState(st); err == nil {
		t.Error("SetState accepted an image of different geometry")
	}
	short := *st
	short.Lines = short.Lines[:len(short.Lines)-1]
	same := NewCache(testGeom())
	if err := same.SetState(&short); err == nil {
		t.Error("SetState accepted a truncated line image")
	}
}

// oddGeom has three ways over four sets, so its two-byte validity map ends
// in four padding bits. The malformed-image cases run on it and on
// testGeom, FuzzCacheState on it alone.
func oddGeom() config.CacheConfig {
	return config.CacheConfig{SizeBytes: 4 * 3 * 32, Ways: 3, LineBytes: 32, LatencyCycles: 1}
}

// getLE and putLE read and write a little-endian value in len(b) bytes,
// one byte at a time, apart from the decoder under test; putLE writes
// zeros past the value's eighth byte.
func getLE(b []byte) uint64 {
	var v uint64
	for k := len(b) - 1; k >= 0; k-- {
		v = v<<8 | uint64(b[k])
	}
	return v
}

func putLE(b []byte, v uint64) {
	for k := range b {
		b[k] = byte(v)
		v >>= 8
	}
}

// record decodes the k-th listed line of st at st's widths.
func record(st *CacheState, k int) (tag uint64, use uint32) {
	r := st.Lines[k*(st.TagBytes+st.UseBytes):]
	return getLE(r[:st.TagBytes]), uint32(getLE(r[st.TagBytes : st.TagBytes+st.UseBytes]))
}

// setRecord overwrites the k-th listed line of st at st's widths.
func setRecord(st *CacheState, k int, tag uint64, use uint32) {
	r := st.Lines[k*(st.TagBytes+st.UseBytes):]
	putLE(r[:st.TagBytes], tag)
	putLE(r[st.TagBytes:st.TagBytes+st.UseBytes], uint64(use))
}

// reencode rewrites every listed line of st at tag width tb and use width
// ub, and sets st's widths to them.
func reencode(st *CacheState, tb, ub int) {
	n := len(st.Lines) / (st.TagBytes + st.UseBytes)
	out := &CacheState{TagBytes: tb, UseBytes: ub, Lines: make([]byte, n*(tb+ub))}
	for k := 0; k < n; k++ {
		tag, use := record(st, k)
		setRecord(out, k, tag, use)
	}
	st.TagBytes, st.UseBytes, st.Lines = tb, ub, out.Lines
}

// malformations corrupt an image once per SetState rule. The map
// corruptions keep the line section consistent with the bits they leave
// set, and the width corruptions re-encode the lines at the widths they
// set, so only the rule named can catch them. A padded case needs a
// validity map that ends in padding bits.
var malformations = []struct {
	name   string
	padded bool
	bad    func(st *CacheState)
}{
	{"validity map too short", false, func(st *CacheState) {
		last := bits.OnesCount8(st.Valid[len(st.Valid)-1])
		st.Valid = st.Valid[:len(st.Valid)-1]
		st.Lines = st.Lines[:len(st.Lines)-last*(st.TagBytes+st.UseBytes)]
	}},
	{"validity map too long", false, func(st *CacheState) { st.Valid = append(st.Valid, 0) }},
	{"padding bit set", true, func(st *CacheState) {
		st.Valid[len(st.Valid)-1] |= 1 << 7
		st.Lines = append(st.Lines, st.Lines[:st.TagBytes+st.UseBytes]...)
	}},
	{"line section short of the valid bits", false, func(st *CacheState) {
		st.Lines = st.Lines[:len(st.Lines)-st.TagBytes-st.UseBytes]
	}},
	{"line section not whole records", false, func(st *CacheState) { st.Lines = append(st.Lines, 0) }},
	{"line section at other widths", false, func(st *CacheState) {
		tb := st.TagBytes
		reencode(st, tb+1, st.UseBytes)
		st.TagBytes = tb
	}},
	{"extra valid bit", false, func(st *CacheState) {
		for i := 0; ; i++ {
			if st.Valid[i/8]&(1<<(i%8)) == 0 {
				st.Valid[i/8] |= 1 << (i % 8)
				return
			}
		}
	}},
	{"zero tag width", false, func(st *CacheState) { reencode(st, 0, st.UseBytes) }},
	{"zero use width", false, func(st *CacheState) { reencode(st, st.TagBytes, 0) }},
	{"tag width 9", false, func(st *CacheState) { reencode(st, 9, st.UseBytes) }},
	{"use width 5", false, func(st *CacheState) { reencode(st, st.TagBytes, 5) }},
	{"tag past the geometry's range", false, func(st *CacheState) {
		// No address maps to a tag of 2^(64 − log2(sets × line bytes)).
		shift := bits.TrailingZeros(uint(st.Sets * st.LineBytes))
		reencode(st, 8, st.UseBytes)
		_, use := record(st, 2)
		setRecord(st, 2, 1<<(64-shift), use)
	}},
	{"use tick above the clock", false, func(st *CacheState) {
		reencode(st, st.TagBytes, 4)
		tag, _ := record(st, 5)
		setRecord(st, 5, tag, st.UseClock+1)
	}},
	{"use clock at its wrap point", false, func(st *CacheState) { st.UseClock = ^uint32(0) }},
	{"duplicate tag in one set", false, func(st *CacheState) {
		// Copy a valid line's tag onto the next valid way of its set; k
		// counts listed records ahead of slot i.
		valid := func(i int) bool { return st.Valid[i/8]&(1<<(i%8)) != 0 }
		for i, k := 0, 0; ; i++ {
			if valid(i) {
				if i%st.Ways > 0 && valid(i-1) {
					tag, _ := record(st, k-1)
					_, use := record(st, k)
					setRecord(st, k, tag, use)
					return
				}
				k++
			}
		}
	}},
}

// malformedBase is oddGeom's image for the malformations: 10 of its 12
// slots valid.
func malformedBase() *CacheState { return warmCache(oddGeom(), 10).State() }

// TestCacheStateRejectsMalformedImages corrupts a real image once per
// SetState rule; each corruption must fail with an error, never restore.
// Every case runs on testGeom, four ways as real geometries have, and on
// oddGeom, whose map has padding bits.
func TestCacheStateRejectsMalformedImages(t *testing.T) {
	bases := []struct {
		geom config.CacheConfig
		img  func() *CacheState
	}{
		// 100 misses fill 100 of testGeom's 128 slots.
		{testGeom(), func() *CacheState { return warmCache(testGeom(), 100).State() }},
		{oddGeom(), malformedBase},
	}
	for _, tc := range malformations {
		t.Run(tc.name, func(t *testing.T) {
			for _, b := range bases {
				if tc.padded && b.geom.Sets()*b.geom.Ways%8 == 0 {
					continue // its map has no padding bits
				}
				st := b.img()
				if err := NewCache(b.geom).SetState(st); err != nil {
					t.Fatalf("%d-way: uncorrupted image rejected: %v", b.geom.Ways, err)
				}
				tc.bad(st)
				if err := NewCache(b.geom).SetState(st); err == nil {
					t.Errorf("%d-way: SetState accepted the corrupted image", b.geom.Ways)
				}
			}
		})
	}
}

// TestCacheStateRoundTripAtEveryWidth images a one-set, 16-way cache of
// 32-byte lines, whose tags reach 2^59, at every tag width from 1 to 8
// bytes and every use-clock width from 1 to 4, each with the smallest and
// the largest tag and clock of its width. State must pick exactly those
// widths, and the restored cache must equal the imaged one line for line
// and image to the same bytes.
func TestCacheStateRoundTripAtEveryWidth(t *testing.T) {
	g := config.CacheConfig{SizeBytes: 16 * 32, Ways: 16, LineBytes: 32, LatencyCycles: 1}
	for tb := 1; tb <= 8; tb++ {
		tags := []uint64{1 << (8 * (tb - 1)), 1<<(8*tb) - 1}
		if tb == 8 {
			tags[1] = 1<<59 - 1
		}
		for ub := 1; ub <= 4; ub++ {
			clocks := []uint32{1 << (8 * (ub - 1)), uint32(1<<(8*ub) - 1)}
			if ub == 4 {
				clocks[1]-- // the wrap point is no clock
			}
			for _, top := range tags {
				for _, clock := range clocks {
					c := NewCache(g)
					c.useClock = clock
					valid := 0
					for w := range c.lines {
						if w%5 == 3 {
							continue // leave a few ways invalid
						}
						// top^w keeps top's width and, with w < 16, stays
						// below 2^59; w = 0 holds top and the clock.
						c.lines[w] = line{tagv: mkTagv(top ^ uint64(w)), use: clock >> w}
						valid++
					}
					st := c.State()
					if st.TagBytes != tb || st.UseBytes != ub || len(st.Lines) != valid*(tb+ub) {
						t.Fatalf("tag %#x, clock %#x: imaged %d lines as %d bytes at widths %d+%d, want %d bytes at %d+%d",
							top, clock, valid, len(st.Lines), st.TagBytes, st.UseBytes, valid*(tb+ub), tb, ub)
					}
					r := NewCache(g)
					if err := r.SetState(st); err != nil {
						t.Fatalf("tag %#x, clock %#x: %v", top, clock, err)
					}
					if r.useClock != c.useClock || !reflect.DeepEqual(r.lines, c.lines) {
						t.Fatalf("tag %#x, clock %#x: the restored cache differs from the imaged one", top, clock)
					}
					if again := r.State(); !reflect.DeepEqual(again, st) {
						t.Fatalf("tag %#x, clock %#x: the restored cache images to other bytes", top, clock)
					}
				}
			}
		}
	}
}

// FuzzCacheState restores arbitrary images of oddGeom: arbitrary widths,
// use clock, validity map and line bytes. SetState must refuse the image
// with an error or restore exactly the records it lists, read here byte
// by byte, into a cache whose own image restores to the same lines.
// Nothing may panic.
//
// Seeds: images after 0, 4, 12 and 1,000 accesses, and malformedBase under
// each of the malformations.
func FuzzCacheState(f *testing.F) {
	add := func(st *CacheState) { f.Add(st.TagBytes, st.UseBytes, st.UseClock, st.Valid, st.Lines) }
	for _, n := range []uint64{0, 4, 12, 1_000} {
		add(warmCache(oddGeom(), n).State())
	}
	for _, tc := range malformations {
		st := malformedBase()
		tc.bad(st)
		add(st)
	}
	f.Fuzz(func(t *testing.T, tagBytes, useBytes int, clock uint32, valid, lines []byte) {
		g := oddGeom()
		st := &CacheState{Sets: g.Sets(), Ways: g.Ways, LineBytes: g.LineBytes, UseClock: clock,
			TagBytes: tagBytes, UseBytes: useBytes, Valid: valid, Lines: lines}
		c := NewCache(g)
		if c.SetState(st) != nil {
			return
		}
		if c.useClock != clock {
			t.Fatalf("restored use clock %d, image has %d", c.useClock, clock)
		}
		k := 0
		for i, l := range c.lines {
			if valid[i/8]&(1<<(i%8)) == 0 {
				if l != (line{}) {
					t.Fatalf("slot %d is not listed but restored as %+v", i, l)
				}
				continue
			}
			tag, use := record(st, k)
			if l != (line{tagv: mkTagv(tag), use: use}) {
				t.Fatalf("slot %d restored as %+v, its record lists tag %#x, use %d", i, l, tag, use)
			}
			k++
		}
		again := NewCache(g)
		if err := again.SetState(c.State()); err != nil {
			t.Fatalf("the restored cache's own image is refused: %v", err)
		}
		if again.useClock != c.useClock || !reflect.DeepEqual(again.lines, c.lines) {
			t.Fatal("the restored cache's own image restores other lines")
		}
	})
}

// TestCacheStateRefusesLockedLine: images carry no lock counts, so State
// must not silently drop one.
func TestCacheStateRefusesLockedLine(t *testing.T) {
	c := warmCache(testGeom(), 1_000)
	c.Lock(LineSlot{Set: 3, Way: 1})
	defer func() {
		if recover() == nil {
			t.Error("State imaged a locked line")
		}
	}()
	c.State()
}

func TestHierarchyStateRoundTrip(t *testing.T) {
	cfg := config.Default()
	a := NewHierarchy(&cfg)
	for i := uint64(0); i < 50_000; i++ {
		a.Access((i * 7919) % (8 << 20))
	}
	st := a.State()
	b := NewHierarchy(&cfg)
	if err := b.SetState(st); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20_000; i++ {
		addr := (i * 104729) % (8 << 20)
		la, lata := a.Access(addr)
		lb, latb := b.Access(addr)
		if la != lb || lata != latb {
			t.Fatalf("access %d diverged: (%v,%d) vs (%v,%d)", i, la, lata, lb, latb)
		}
	}
}

// TestLRUOrderAcrossClockWrap drives the use clock across the
// renormalisation boundary and requires victim selection to keep following
// true recency order. The pre-fix saturating downshift collapsed the older
// half of the tick range to zero, so a line more recent than its set-mate
// (but below the shift threshold) could tie at zero and — sitting in an
// earlier way — be evicted in its place.
func TestLRUOrderAcrossClockWrap(t *testing.T) {
	c := NewCache(testGeom())
	set0 := func(addr uint64) uint64 { return addr * uint64(c.cfg.Sets()) * uint64(c.cfg.LineBytes) } // all map to set 0

	// Fill set 0 with four lines, touched in way order 0..3.
	for w := uint64(0); w < 4; w++ {
		c.allocateMissed(set0(w))
	}
	// Way 0 is touched at a tick below the old shift threshold, way 1 far
	// above it, so the old renormalisation would order way 1 > way 0 = 0 —
	// correct here. The inversion needs the *younger* line in the earlier
	// way, so re-touch way 1's line first and way 0's line second, both
	// below the threshold, then push the rest of the set above it.
	c.useClock = 1 << 29
	c.Access(set0(1)) // older of the collapsing pair
	c.Access(set0(0)) // younger: must NOT become the victim
	c.useClock = ^uint32(0) - 8
	c.Access(set0(2))
	c.Access(set0(3)) // these cross-threshold touches ride the wrap below

	// Cross the renormalisation boundary with touches to ways 2 and 3 only.
	for i := 0; i < 12; i++ {
		c.Access(set0(uint64(2 + i%2)))
	}
	if c.useClock >= ^uint32(0)-16 {
		t.Fatalf("clock did not renormalise: %#x", c.useClock)
	}

	// True LRU order is way1 < way0 < {2,3}: the victim must be way 1.
	slot, ok := c.Allocate(set0(9))
	if !ok {
		t.Fatal("allocation failed")
	}
	if slot.Way != 1 {
		t.Errorf("victim = way %d, want way 1 (LRU order lost across clock wrap)", slot.Way)
	}

	// Next victim must be way 0.
	slot, ok = c.Allocate(set0(10))
	if !ok {
		t.Fatal("allocation failed")
	}
	if slot.Way != 0 {
		t.Errorf("second victim = way %d, want way 0", slot.Way)
	}
}

// TestRenormalisePreservesOrderProperty fuzzes renormalise directly: for
// random per-set use patterns, the full victim order of every set must be
// identical before and after renormalisation.
func TestRenormalisePreservesOrderProperty(t *testing.T) {
	c := NewCache(testGeom())
	seed := uint64(12345)
	rnd := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 16
	}
	for i := range c.lines {
		c.lines[i] = line{tagv: mkTagv(uint64(i)), use: uint32(rnd())}
	}
	order := func() []int {
		var out []int
		for s := 0; s < c.cfg.Sets(); s++ {
			base := s * c.ways
			picked := make([]bool, c.ways)
			for n := 0; n < c.ways; n++ {
				best, bestUse := -1, ^uint32(0)
				for w := 0; w < c.ways; w++ {
					if !picked[w] && c.lines[base+w].use < bestUse {
						best, bestUse = w, c.lines[base+w].use
					}
				}
				picked[best] = true
				out = append(out, best)
			}
		}
		return out
	}
	before := order()
	c.renormalise()
	after := order()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("victim order diverged at position %d: %d vs %d", i, before[i], after[i])
		}
	}
	for i := range c.lines {
		if c.lines[i].use >= uint32(c.ways) {
			t.Fatalf("line %d rank %d not compacted below ways", i, c.lines[i].use)
		}
	}
}

// TestReusedLinesBehaveLikeFreshOnes builds a cache on the line array a
// freed, warm cache handed on — every line valid and locked — and drives
// it and a cache on a new array with the same random address stream,
// once from empty and once restored from an image. Both must end in the
// same State: a reused array is cleared, not just handed over. sync.Pool
// may drop what it is given (a quarter at random under -race), so the
// reuse is retried until the array comes back.
func TestReusedLinesBehaveLikeFreshOnes(t *testing.T) {
	g := testGeom()
	img := warmCache(g, 10_000).State()
	for _, restore := range []bool{false, true} {
		var reused *Cache
		for try := 0; try < 50 && reused == nil; try++ {
			dirty := warmCache(g, 30_000)
			for i := range dirty.lines {
				dirty.lines[i].locks = 1
			}
			array := &dirty.lines[0]
			dirty.Free()
			if c := NewCache(g); &c.lines[0] == array {
				reused = c
			}
		}
		if reused == nil {
			t.Fatal("NewCache never reused a freed line array of its length")
		}
		fresh := NewCache(g)
		fresh.lines = make([]line, len(fresh.lines))
		for _, c := range []*Cache{reused, fresh} {
			if restore {
				if err := c.SetState(img); err != nil {
					t.Fatal(err)
				}
			}
			rng := xrand.New(3)
			for i := 0; i < 20_000; i++ {
				addr := rng.Uint64n(96 << 10)
				if _, hit := c.Access(addr); !hit {
					c.allocateMissed(addr)
				}
			}
		}
		if got, want := reused.State(), fresh.State(); !reflect.DeepEqual(got, want) {
			t.Errorf("restore=%v: the cache on a reused array ended in another state than one on a new array", restore)
		}
	}
}

// TestAccessAfterFreePanics pins that a freed cache cannot touch the line
// array it handed on.
func TestAccessAfterFreePanics(t *testing.T) {
	c := NewCache(testGeom())
	c.Access(64)
	c.Free()
	c.Free()
	defer func() {
		if recover() == nil {
			t.Error("Access after Free did not panic")
		}
	}()
	c.Access(64)
}

// TestStateIgnoresRetiredCounters: images written before the caches stopped
// counting carry "accesses" and "misses" per level and "l1_accesses" per
// hierarchy. Nothing read them, so such an image restores exactly what the
// same image without them does, which is why ckpt.FormatVersion did not
// move when they went.
func TestStateIgnoresRetiredCounters(t *testing.T) {
	cfg := config.Default()
	cfg.L1, cfg.L2 = testGeom(), config.CacheConfig{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, LatencyCycles: 10}
	h := NewHierarchy(&cfg)
	for i := uint64(0); i < 20_000; i++ {
		h.Access((i * 7919) % (1 << 20))
	}
	cur, err := json.Marshal(h.State())
	if err != nil {
		t.Fatal(err)
	}
	var img map[string]any
	if err := json.Unmarshal(cur, &img); err != nil {
		t.Fatal(err)
	}
	img["l1_accesses"] = 20_000
	for _, lvl := range []string{"l1", "l2"} {
		c := img[lvl].(map[string]any)
		c["accesses"], c["misses"] = 20_000, 1_234
	}
	old, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	restore := func(buf []byte) *Hierarchy {
		var st HierarchyState
		if err := json.Unmarshal(buf, &st); err != nil {
			t.Fatal(err)
		}
		r := NewHierarchy(&cfg)
		if err := r.SetState(&st); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := restore(cur), restore(old)
	for _, p := range [][2]*Cache{{a.L1, b.L1}, {a.L2, b.L2}} {
		if p[0].useClock != p[1].useClock || !reflect.DeepEqual(p[0].lines, p[1].lines) {
			t.Fatal("an image with the retired counter fields restored different lines or use clock")
		}
	}
}

package mem

import (
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"testing"

	"repro/internal/config"
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

	if b.Accesses != a.Accesses || b.Misses != a.Misses || b.useClock != a.useClock {
		t.Fatalf("counters diverged: %d/%d/%d vs %d/%d/%d",
			b.Accesses, b.Misses, b.useClock, a.Accesses, a.Misses, a.useClock)
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

// TestCacheStateRejectsMalformedImages corrupts a real image once per
// SetState rule; each corruption must fail with an error, never restore.
func TestCacheStateRejectsMalformedImages(t *testing.T) {
	// Three ways over two sets leave two padding bits in the one-byte map.
	odd := config.CacheConfig{SizeBytes: 2 * 3 * 32, Ways: 3, LineBytes: 32, LatencyCycles: 1}
	rec := func(st *CacheState, k int) []byte { return st.Lines[k*lineStateBytes:] }
	valid := func(st *CacheState, i int) bool { return st.Valid[i/8]&(1<<(i%8)) != 0 }
	cases := []struct {
		name string
		geom config.CacheConfig
		bad  func(st *CacheState)
	}{
		// The map corruptions keep the line section consistent with the
		// bits they leave set, so only the map rule can catch them.
		{"validity map too short", testGeom(), func(st *CacheState) {
			last := bits.OnesCount8(st.Valid[len(st.Valid)-1])
			st.Valid = st.Valid[:len(st.Valid)-1]
			st.Lines = st.Lines[:len(st.Lines)-last*lineStateBytes]
		}},
		{"validity map too long", testGeom(), func(st *CacheState) { st.Valid = append(st.Valid, 0) }},
		{"padding bit set", odd, func(st *CacheState) {
			st.Valid[0] |= 1 << 7
			st.Lines = append(st.Lines, rec(st, 0)[:lineStateBytes]...)
		}},
		{"line section short of the valid bits", testGeom(), func(st *CacheState) {
			st.Lines = st.Lines[:len(st.Lines)-lineStateBytes]
		}},
		{"line section not whole records", testGeom(), func(st *CacheState) { st.Lines = append(st.Lines, 0) }},
		{"extra valid bit", testGeom(), func(st *CacheState) {
			for i := 0; ; i++ {
				if !valid(st, i) {
					st.Valid[i/8] |= 1 << (i % 8)
					return
				}
			}
		}},
		{"listed line without valid bit", testGeom(), func(st *CacheState) { rec(st, 3)[0] &^= 1 }},
		{"use tick above the clock", testGeom(), func(st *CacheState) {
			binary.LittleEndian.PutUint32(rec(st, 5)[8:], st.UseClock+1)
		}},
		{"use clock at its wrap point", testGeom(), func(st *CacheState) { st.UseClock = ^uint32(0) }},
		{"duplicate tag in one set", testGeom(), func(st *CacheState) {
			// Copy the first valid line's tag onto the next valid way of
			// its set; k counts listed records ahead of slot i.
			ways := testGeom().Ways
			for i, k := 0, 0; ; i++ {
				if valid(st, i) {
					if i%ways > 0 && valid(st, i-1) {
						copy(rec(st, k)[:8], rec(st, k-1)[:8])
						return
					}
					k++
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// 100 misses fill 100 of testGeom's 128 slots.
			st := warmCache(tc.geom, 100).State()
			if err := NewCache(tc.geom).SetState(st); err != nil {
				t.Fatalf("uncorrupted image rejected: %v", err)
			}
			tc.bad(st)
			if err := NewCache(tc.geom).SetState(st); err == nil {
				t.Error("SetState accepted the corrupted image")
			}
		})
	}
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
	if b.L1Accesses != a.L1Accesses {
		t.Fatalf("L1Accesses %d, want %d", b.L1Accesses, a.L1Accesses)
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

package filter

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestHashIndexRange(t *testing.T) {
	f := func(addr uint64, nb uint8) bool {
		n := int(nb)%16 + 1
		i := HashIndex(addr, n)
		return i >= 0 && i < 1<<uint(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Overlapping naturally-aligned accesses must share a hash index — the
// no-false-negative guarantee every disambiguation filter relies on.
func TestHashIndexNoFalseNegatives(t *testing.T) {
	f := func(block uint64, o1, o2, s1, s2 uint8) bool {
		block %= 1 << 30
		// naturally aligned 4- or 8-byte accesses
		size1 := uint8(4)
		if s1%2 == 0 {
			size1 = 8
		}
		size2 := uint8(4)
		if s2%2 == 0 {
			size2 = 8
		}
		a1 := block<<3 + uint64(o1%2)*4
		if size1 == 8 {
			a1 = block << 3
		}
		a2 := block<<3 + uint64(o2%2)*4
		if size2 == 8 {
			a2 = block << 3
		}
		if !isa.Overlaps(a1, size1, a2, size2) {
			return true
		}
		return HashIndex(a1, 10) == HashIndex(a2, 10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEpochBitTableSetLookupClear(t *testing.T) {
	tb := NewEpochBitTable(64, 16)
	tb.SetStore(5, 3)
	tb.SetStore(5, 7)
	tb.SetLoad(5, 2)
	if m := tb.StoreMask(5); m != MaskOf(3, 7) {
		t.Errorf("StoreMask = %b", m)
	}
	if m := tb.LoadMask(5); m != MaskOf(2) {
		t.Errorf("LoadMask = %b", m)
	}
	if m := tb.StoreMask(6); !m.Empty() {
		t.Errorf("untouched index mask = %b", m)
	}
	tb.ClearEpoch(3)
	if m := tb.StoreMask(5); m != MaskOf(7) {
		t.Errorf("after clear StoreMask = %b", m)
	}
	tb.ClearEpoch(7)
	tb.ClearEpoch(2)
	if !tb.StoreMask(5).Empty() || !tb.LoadMask(5).Empty() {
		t.Error("clear did not empty the entry")
	}
}

func TestEpochBitTableIdempotentSet(t *testing.T) {
	tb := NewEpochBitTable(8, 4)
	for i := 0; i < 100; i++ {
		tb.SetStore(1, 2)
	}
	tb.ClearEpoch(2)
	if !tb.StoreMask(1).Empty() {
		t.Error("repeated sets broke clearing")
	}
	// touched list must not grow unboundedly
	if len(tb.touchedSt[2]) != 0 {
		t.Error("touched list not reset")
	}
}

func TestEpochBitTableClearIsolation(t *testing.T) {
	tb := NewEpochBitTable(16, 8)
	tb.SetLoad(3, 1)
	tb.SetLoad(4, 2)
	tb.ClearEpoch(1)
	if tb.LoadMask(4) != MaskOf(2) {
		t.Error("clearing epoch 1 damaged epoch 2 state")
	}
}

func TestEpochsOf(t *testing.T) {
	got := EpochsOf(MaskOf(1, 4, 6))
	want := []int{1, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("EpochsOf = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EpochsOf = %v, want %v", got, want)
		}
	}
	if len(EpochsOf(EpochMask{})) != 0 {
		t.Error("EpochsOf(0) not empty")
	}
}

func TestEpochBitTableGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewEpochBitTable(0, 16) },
		func() { NewEpochBitTable(16, 0) },
		func() { NewEpochBitTable(16, MaxEpochs+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid geometry accepted")
				}
			}()
			f()
		}()
	}
}

func TestSSBF(t *testing.T) {
	s := NewSSBF(10)
	if _, _, ok := s.LastStore(0x40); ok {
		t.Error("empty SSBF returned a store")
	}
	s.CommitStore(0x40, 0, 7) // seq 0 must be distinguishable from empty
	seq, commit, ok := s.LastStore(0x40)
	if !ok || seq != 0 || commit != 7 {
		t.Errorf("LastStore = %d@%d/%v, want 0@7/true", seq, commit, ok)
	}
	s.CommitStore(0x40, 99, 123)
	seq, commit, _ = s.LastStore(0x40)
	if seq != 99 || commit != 123 {
		t.Errorf("LastStore = %d@%d, want 99@123", seq, commit)
	}
	if s.Entries() != 1024 {
		t.Errorf("Entries = %d", s.Entries())
	}
}

func TestSSBFAliasing(t *testing.T) {
	// Two addresses 2^(bits+3) apart alias in the SSBF — that is the source
	// of false re-executions the paper sweeps with 8/10/12 bits.
	s := NewSSBF(8)
	a := uint64(0x100)
	b := a + (1 << (8 + 3))
	if HashIndex(a, 8) != HashIndex(b, 8) {
		t.Fatal("test addresses do not alias")
	}
	s.CommitStore(a, 7, 11)
	seq, commit, ok := s.LastStore(b)
	if !ok || seq != 7 || commit != 11 {
		t.Error("aliased read did not observe the store")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSSBF(0) },
		func() { NewSSBF(25) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid bits accepted")
				}
			}()
			f()
		}()
	}
}

// TestIndexable pins the invariant HashIndex's no-false-negative guarantee
// rests on.
func TestIndexable(t *testing.T) {
	cases := []struct {
		addr uint64
		size uint8
		ok   bool
	}{
		{0x1000, 8, true},
		{0x1004, 4, true},
		{0x1006, 2, true},
		{0x1007, 1, true},
		{0x1004, 8, false},  // 8-byte access crossing an 8-byte boundary
		{0x1002, 4, false},  // misaligned 4-byte
		{0x1000, 16, false}, // wider than a granule
		{0x1000, 3, false},  // non-power-of-two
		{0x1000, 0, false},  // degenerate
	}
	for _, c := range cases {
		if got := Indexable(c.addr, c.size); got != c.ok {
			t.Errorf("Indexable(%#x, %d) = %v, want %v", c.addr, c.size, got, c.ok)
		}
	}
}

// TestOverlappingAccessesCollide proves the soundness property: any two
// Indexable accesses whose byte ranges overlap map to the same HashIndex,
// for every index width, over an exhaustive sweep of granule-local offsets
// and a randomised sweep of bases.
func TestOverlappingAccessesCollide(t *testing.T) {
	sizes := []uint8{1, 2, 4, 8}
	overlap := func(a1 uint64, s1 uint8, a2 uint64, s2 uint8) bool {
		return a1 < a2+uint64(s2) && a2 < a1+uint64(s1)
	}
	bases := []uint64{0, 0x1000, 0xFFF8, 1 << 20, (1 << 40) - 8}
	for _, nbits := range []int{4, 10, 24} {
		for _, base := range bases {
			for _, s1 := range sizes {
				for o1 := uint64(0); o1 < 16; o1 += uint64(s1) {
					for _, s2 := range sizes {
						for o2 := uint64(0); o2 < 16; o2 += uint64(s2) {
							a1, a2 := base+o1, base+o2
							if !Indexable(a1, s1) || !Indexable(a2, s2) || !overlap(a1, s1, a2, s2) {
								continue
							}
							if HashIndex(a1, nbits) != HashIndex(a2, nbits) {
								t.Fatalf("overlapping accesses (%#x,%d) and (%#x,%d) map to indices %d and %d (nbits %d)",
									a1, s1, a2, s2, HashIndex(a1, nbits), HashIndex(a2, nbits), nbits)
							}
						}
					}
				}
			}
		}
	}
}

// TestAssertIndexable checks the debug gate: off by default, panics on a
// crossing access when enabled.
func TestAssertIndexable(t *testing.T) {
	AssertIndexable(0x1004, 8, "test") // Debug off: must not panic
	Debug = true
	defer func() {
		Debug = false
		if recover() == nil {
			t.Error("AssertIndexable let an 8-byte-crossing access through with Debug on")
		}
	}()
	AssertIndexable(0x1004, 8, "test")
}

// TestAssertCommittedPath checks the wrong-path boundary gate: off by
// default, panics when a wrong-path sequence number reaches a
// committed-state structure with Debug on.
func TestAssertCommittedPath(t *testing.T) {
	AssertCommittedPath(isa.WrongPathSeqBit|5, "test") // Debug off: must not panic
	Debug = true
	defer func() {
		Debug = false
		if recover() == nil {
			t.Error("AssertCommittedPath let a wrong-path op through with Debug on")
		}
	}()
	AssertCommittedPath(isa.WrongPathSeqBit|5, "test")
}

// TestSSBFRejectsWrongPathStores pins the commit boundary: a squashed
// wrong-path store must never update the SSBF.
func TestSSBFRejectsWrongPathStores(t *testing.T) {
	Debug = true
	defer func() {
		Debug = false
		if recover() == nil {
			t.Error("SSBF.CommitStore accepted a wrong-path store with Debug on")
		}
	}()
	NewSSBF(8).CommitStore(0x100, isa.WrongPathSeqBit|5, 10)
}

// A squashed epoch's two EpochBitTable columns must be fully cleared: no
// stale bit in any entry and no touchedLd/touchedSt residue — a leftover
// touched entry would make a later ClearEpoch of the recycled bank clear a
// younger epoch's bit, and a leftover bit would fake a store match.
func TestClearEpochNoResidue(t *testing.T) {
	tb := NewEpochBitTable(64, 8)
	for idx := 0; idx < 64; idx += 3 {
		tb.SetLoad(idx, 2)
		tb.SetStore(idx, 2)
		tb.SetLoad(idx, 5)
		tb.SetStore(idx, 5)
		// Duplicate sets must not duplicate touched entries either.
		tb.SetStore(idx, 2)
	}
	tb.ClearEpoch(2)
	for idx := 0; idx < 64; idx++ {
		if tb.LoadMask(idx).Has(2) || tb.StoreMask(idx).Has(2) {
			t.Fatalf("entry %d keeps epoch-2 bits after ClearEpoch", idx)
		}
	}
	if len(tb.touchedLd[2]) != 0 || len(tb.touchedSt[2]) != 0 {
		t.Fatalf("touched residue after ClearEpoch: %d loads / %d stores",
			len(tb.touchedLd[2]), len(tb.touchedSt[2]))
	}
	// The other epoch's columns survive untouched.
	for idx := 0; idx < 64; idx += 3 {
		if !tb.LoadMask(idx).Has(5) || !tb.StoreMask(idx).Has(5) {
			t.Fatalf("ClearEpoch(2) disturbed epoch 5 at entry %d", idx)
		}
	}
	// Re-population after the clear starts from a clean touched list: a
	// second clear must still remove everything.
	tb.SetStore(7, 2)
	tb.ClearEpoch(2)
	if tb.StoreMask(7).Has(2) || len(tb.touchedSt[2]) != 0 {
		t.Fatal("stale state after set-clear-set-clear cycle")
	}
}

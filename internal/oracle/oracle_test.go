package oracle

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/lsq"
)

// st builds a committed store op.
func st(seq, addr uint64, size uint8, commit int64) *lsq.MemOp {
	return &lsq.MemOp{Seq: seq, Store: true, Addr: addr, Size: size, Commit: commit}
}

// ld builds a committed load op with cache-read provenance.
func ld(seq, addr uint64, size uint8, readAt, commit int64) *lsq.MemOp {
	return &lsq.MemOp{Seq: seq, Addr: addr, Size: size, ReadAt: readAt, Commit: commit}
}

// fwd builds a committed load op forwarded in full from store fwdSeq.
func fwd(seq, addr uint64, size uint8, fwdSeq uint64, commit int64) *lsq.MemOp {
	return &lsq.MemOp{Seq: seq, Addr: addr, Size: size, Commit: commit,
		FwdSeq: fwdSeq, FwdMask: isa.FullMask(size)}
}

func wantClean(t *testing.T, c *Checker) {
	t.Helper()
	if err := c.Err(); err != nil {
		t.Fatalf("unexpected violation: %v", err)
	}
}

func wantKind(t *testing.T, c *Checker, kind string) {
	t.Helper()
	if c.ViolationCount() == 0 {
		t.Fatalf("expected a %q violation, checker is clean", kind)
	}
	if got := c.Violations()[0].Kind; got != kind {
		t.Fatalf("violation kind = %q, want %q (%v)", got, kind, c.Violations()[0])
	}
}

func TestCleanStreamPasses(t *testing.T) {
	c := New(0)
	c.StoreCommitted(st(1, 0x100, 8, 10))
	c.LoadCommitted(fwd(2, 0x100, 8, 1, 12)) // forwarded from the writer
	c.LoadCommitted(ld(3, 0x100, 4, 10, 14)) // cache read at the commit cycle
	c.LoadCommitted(ld(4, 0x200, 8, 1, 16))  // untouched memory: any read time
	c.StoreCommitted(st(5, 0x100, 4, 20))    // partial overwrite
	c.LoadCommitted(fwd(6, 0x100, 4, 5, 22)) // low half from the new writer
	c.LoadCommitted(ld(7, 0x104, 4, 11, 24)) // high half still store 1, read after its commit
	wantClean(t, c)
	if c.Loads() != 5 || c.Stores() != 2 || c.CheckedBytes() != 28 {
		t.Errorf("stats = %d loads / %d stores / %d bytes", c.Loads(), c.Stores(), c.CheckedBytes())
	}
}

func TestForwardFromSupersededStoreFlagged(t *testing.T) {
	c := New(0)
	c.StoreCommitted(st(1, 0x100, 8, 10))
	c.StoreCommitted(st(2, 0x100, 8, 12))
	// The load claims store 1 supplied its bytes, but store 2 is the
	// youngest older writer: a forwarding age-ordering bug.
	c.LoadCommitted(fwd(3, 0x100, 8, 1, 14))
	wantKind(t, c, "forward-wrong-store")
}

func TestForwardFromPhantomStoreFlagged(t *testing.T) {
	c := New(0)
	c.LoadCommitted(fwd(3, 0x300, 8, 1, 14))
	wantKind(t, c, "forward-wrong-store")
}

// TestLoadFromUnwrittenPageAllocatesNothing pins that a load from a page
// no store has written is certified against initial memory without making
// the page resident: one resident page is 64 KiB, and a run reads many
// more pages than it writes.
func TestLoadFromUnwrittenPageAllocatesNothing(t *testing.T) {
	c := New(0)
	op := ld(0, 0, 8, 1, 0)
	allocs := testing.AllocsPerRun(100, func() {
		op.Seq++
		op.Commit++
		op.Addr += pageBytes // a fresh page every load
		c.LoadCommitted(op)
	})
	wantClean(t, c)
	if allocs != 0 {
		t.Errorf("LoadCommitted on never-stored pages allocates %.1f objects per load, want 0", allocs)
	}
	if len(c.pages) != 0 {
		t.Errorf("%d pages resident after loads alone, want 0", len(c.pages))
	}
}

func TestStaleCacheReadFlagged(t *testing.T) {
	c := New(0)
	c.StoreCommitted(st(1, 0x100, 8, 100))
	// The load read the cache at cycle 50, before the store's commit wrote
	// the bytes back — it consumed stale data and was never repaired.
	c.LoadCommitted(ld(2, 0x100, 8, 50, 120))
	wantKind(t, c, "stale-byte")
}

func TestPartialForwardCheckedByteWise(t *testing.T) {
	// An 8-byte store, then a younger 2-byte store inside it. A load of the
	// full word claiming full forwarding from the older store is wrong on
	// exactly the two overwritten bytes.
	c := New(0)
	c.StoreCommitted(st(1, 0x100, 8, 10))
	c.StoreCommitted(st(2, 0x102, 2, 12))
	c.LoadCommitted(fwd(3, 0x100, 8, 1, 14))
	if c.ViolationCount() != 2 {
		t.Fatalf("violations = %d, want 2 (one per clobbered byte)", c.ViolationCount())
	}
	for _, v := range c.Violations() {
		if v.Kind != "forward-wrong-store" || (v.Byte != 2 && v.Byte != 3) {
			t.Errorf("unexpected violation %v", v)
		}
	}

	// The correct claim — low/high bytes from store 1 at a read past both
	// commits, or forwarding from store 2 for its two bytes — passes.
	c2 := New(0)
	c2.StoreCommitted(st(1, 0x100, 8, 10))
	c2.StoreCommitted(st(2, 0x102, 2, 12))
	c2.LoadCommitted(&lsq.MemOp{Seq: 3, Addr: 0x100, Size: 8, Commit: 14,
		FwdSeq: 2, FwdMask: 0b00001100, ReadAt: 12})
	wantClean(t, c2)
}

func TestWrongPathOpFlagged(t *testing.T) {
	c := New(0)
	c.StoreCommitted(st(isa.WrongPathSeqBit|7, 0x100, 8, 10))
	wantKind(t, c, "wrong-path-op")
	if c.Stores() != 0 {
		t.Error("wrong-path store entered the image")
	}
}

func TestOutOfOrderStreamFlagged(t *testing.T) {
	c := New(0)
	c.StoreCommitted(st(5, 0x100, 8, 10))
	c.LoadCommitted(ld(4, 0x100, 8, 11, 12))
	wantKind(t, c, "out-of-order-stream")
}

func TestCommitOrderFlagged(t *testing.T) {
	c := New(0)
	c.StoreCommitted(st(1, 0x100, 8, 10))
	c.StoreCommitted(st(2, 0x100, 8, 9))
	wantKind(t, c, "commit-order")
}

func TestBadFootprintFlagged(t *testing.T) {
	cases := []struct {
		addr uint64
		size uint8
	}{
		{0x100, 16}, // wider than a granule
		{0x100, 3},  // non-power-of-two
		{0xFFD, 8},  // misaligned, page-crossing: must report, not panic
		{0x102, 4},  // misaligned
	}
	for _, tc := range cases {
		c := New(0)
		c.LoadCommitted(&lsq.MemOp{Seq: 1, Addr: tc.addr, Size: tc.size, Commit: 5})
		wantKind(t, c, "bad-footprint")
	}
}

func TestViolationCapAndTotals(t *testing.T) {
	c := New(2)
	c.StoreCommitted(st(1, 0x100, 8, 100))
	for i := uint64(0); i < 5; i++ {
		c.LoadCommitted(ld(2+i, 0x100, 8, 50, 120))
	}
	if c.ViolationCount() != 40 { // every byte of every stale load is counted
		t.Errorf("total = %d, want 40", c.ViolationCount())
	}
	if len(c.Violations()) != 2 {
		t.Errorf("recorded = %d, want cap 2", len(c.Violations()))
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "40 violation(s)") {
		t.Errorf("Err = %v", err)
	}
}

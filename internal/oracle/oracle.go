// Package oracle is the differential correctness oracle of the repository:
// a sequential architectural memory model that consumes the committed-path
// memory-operation stream in program order (through cpu.CommitObserver) and
// certifies, at commit time, that every load the timing model commits
// observed exactly the bytes the sequential semantics require — whichever
// LSQ scheme, replay mode or sampling regime produced the stream.
//
// The simulator is a timing model: it never materialises data values, so
// "observed the right bytes" is checked as provenance. The oracle keeps a
// sparse byte-granular image of memory mapping every byte to the youngest
// committed store that wrote it (its sequence number and commit cycle).
// When a load commits, the sequential semantics require each of its bytes
// to come from the image's current writer (every older store has committed
// by then — commit is in order). The timing model's claim arrives on the
// lsq.MemOp: bytes in FwdMask came from in-flight forwarding out of store
// FwdSeq; the remaining bytes were read from the data cache at cycle
// ReadAt, where they observe exactly the stores committed by ReadAt. A
// byte whose image entry disagrees — a forwarding source that is not the
// youngest older writer, or a cache read that predates the youngest older
// writer's commit — is a certified memory-ordering violation of the scheme
// under test, not a modelling tolerance.
//
// The checker also enforces stream sanity: committed sequence numbers must
// be strictly increasing, commit cycles non-decreasing (in-order commit),
// wrong-path ops must never appear, and footprints must be legal
// (aligned power-of-two, at most 8 bytes — the same invariant the
// ERT/SSBF hash indexing relies on).
package oracle

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/lsq"
)

// pageBits sizes the sparse image pages (2^pageBits bytes per page).
const pageBits = 12

const pageBytes = 1 << pageBits

// page is one resident chunk of the architectural image: per byte, the
// youngest committed writer's sequence number (+1; 0 = initial memory) and
// its commit cycle.
type page struct {
	seq    [pageBytes]uint64
	commit [pageBytes]int64
}

// unwritten is the image of every page no store has written: each byte
// reads as initial memory. Loads share it read-only, so certifying a load
// never makes a page resident.
var unwritten page

// Violation is one certified mismatch between the timing model's claimed
// load value provenance and the sequential reference.
type Violation struct {
	// Kind classifies the mismatch:
	//   "forward-wrong-store": a forwarded byte's source is not the
	//       youngest older store that wrote it;
	//   "stale-byte": a cache-read byte's youngest older writer committed
	//       after the load's final read;
	//   "wrong-path-op", "out-of-order-stream", "commit-order",
	//   "bad-footprint": committed-stream sanity failures.
	Kind string
	// LoadSeq, Addr and Size identify the offending committed op.
	LoadSeq uint64
	Addr    uint64
	Size    uint8
	// Byte is the offending byte offset within the footprint (-1 when the
	// violation is not byte-specific).
	Byte int
	// WantSeq is the sequence number (+1; 0 = initial memory) of the store
	// the sequential semantics require for the byte.
	WantSeq uint64
	// GotSeq is the claimed forwarding source (+1) for forwarded bytes.
	GotSeq uint64
	// WantCommit is the required store's commit cycle and ReadAt the cycle
	// the timing model claims the byte was read (stale-byte only).
	WantCommit int64
	ReadAt     int64
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	id := fmt.Sprintf("load seq %d addr %#x size %d", v.LoadSeq, v.Addr, v.Size)
	switch v.Kind {
	case "forward-wrong-store":
		return fmt.Sprintf("oracle: %s: %s byte %d forwarded from store seq+1 %d, sequential semantics require %d",
			v.Kind, id, v.Byte, v.GotSeq, v.WantSeq)
	case "stale-byte":
		return fmt.Sprintf("oracle: %s: %s byte %d read from the cache at cycle %d, but its writer (store seq+1 %d) committed at cycle %d",
			v.Kind, id, v.Byte, v.ReadAt, v.WantSeq, v.WantCommit)
	default:
		return fmt.Sprintf("oracle: %s: %s", v.Kind, id)
	}
}

// Checker is the sequential reference model. It implements
// cpu.CommitObserver; attach it with cpu.Sim.SetCommitObserver. The zero
// value is not usable; use New.
type Checker struct {
	pages map[uint64]*page

	lastSeq    uint64 // +1 encoding; 0 = nothing consumed yet
	lastCommit int64

	loads, stores uint64
	checkedBytes  uint64

	violations    []Violation
	maxViolations int
	total         uint64
}

// New returns an empty checker recording at most maxViolations violations
// in detail (further ones are counted but not stored); maxViolations <= 0
// selects a default of 16.
func New(maxViolations int) *Checker {
	if maxViolations <= 0 {
		maxViolations = 16
	}
	return &Checker{
		pages:         make(map[uint64]*page),
		maxViolations: maxViolations,
	}
}

// Loads returns the number of committed loads certified.
func (c *Checker) Loads() uint64 { return c.loads }

// Stores returns the number of committed stores applied to the image.
func (c *Checker) Stores() uint64 { return c.stores }

// CheckedBytes returns the total number of load bytes certified.
func (c *Checker) CheckedBytes() uint64 { return c.checkedBytes }

// ViolationCount returns the total number of violations detected,
// including any beyond the recording cap.
func (c *Checker) ViolationCount() uint64 { return c.total }

// Violations returns the recorded violations in detection order.
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns nil when every certified load matched the sequential
// reference, or an error describing the first violation and the totals.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return fmt.Errorf("%s (%d violation(s) over %d loads / %d stores)",
		c.violations[0], c.total, c.loads, c.stores)
}

func (c *Checker) report(v Violation) {
	c.total++
	if len(c.violations) < c.maxViolations {
		c.violations = append(c.violations, v)
	}
}

// pageFor returns the resident page covering addr, allocating on first
// touch.
func (c *Checker) pageFor(addr uint64) *page {
	key := addr >> pageBits
	p := c.pages[key]
	if p == nil {
		p = new(page)
		c.pages[key] = p
	}
	return p
}

// sane runs the committed-stream checks shared by loads and stores and
// reports whether the per-byte checks may proceed.
func (c *Checker) sane(op *lsq.MemOp) bool {
	if isa.IsWrongPathSeq(op.Seq) {
		c.report(Violation{Kind: "wrong-path-op", LoadSeq: op.Seq, Addr: op.Addr, Size: op.Size, Byte: -1})
		return false
	}
	if op.Seq+1 <= c.lastSeq {
		c.report(Violation{Kind: "out-of-order-stream", LoadSeq: op.Seq, Addr: op.Addr, Size: op.Size, Byte: -1})
		return false
	}
	c.lastSeq = op.Seq + 1
	if op.Commit < c.lastCommit {
		c.report(Violation{Kind: "commit-order", LoadSeq: op.Seq, Addr: op.Addr, Size: op.Size, Byte: -1})
		return false
	}
	c.lastCommit = op.Commit
	if op.Size == 0 || op.Size > 8 || op.Size&(op.Size-1) != 0 || op.Addr&uint64(op.Size-1) != 0 {
		// Aligned power-of-two footprints are also what keeps an op inside
		// one image page; a crossing op must be reported, not indexed.
		c.report(Violation{Kind: "bad-footprint", LoadSeq: op.Seq, Addr: op.Addr, Size: op.Size, Byte: -1})
		return false
	}
	return true
}

// StoreCommitted implements cpu.CommitObserver: the store's bytes become
// the architectural state.
func (c *Checker) StoreCommitted(op *lsq.MemOp) {
	if !c.sane(op) {
		return
	}
	c.stores++
	p := c.pageFor(op.Addr)
	off := int(op.Addr & (pageBytes - 1))
	// Legal footprints are aligned and <= 8 bytes, so they never cross a
	// page boundary.
	for i := 0; i < int(op.Size); i++ {
		p.seq[off+i] = op.Seq + 1
		p.commit[off+i] = op.Commit
	}
}

// LoadCommitted implements cpu.CommitObserver: every byte of the load is
// certified against the image. Bytes covered by FwdMask must come from
// exactly the youngest older store that wrote them; the remaining bytes
// were read from the cache at ReadAt and must not have a younger-than-read
// committed writer.
func (c *Checker) LoadCommitted(op *lsq.MemOp) {
	if !c.sane(op) {
		return
	}
	c.loads++
	p := c.pages[op.Addr>>pageBits]
	if p == nil {
		p = &unwritten
	}
	off := int(op.Addr & (pageBytes - 1))
	for i := 0; i < int(op.Size); i++ {
		c.checkedBytes++
		want := p.seq[off+i]
		if op.FwdMask&(1<<uint(i)) != 0 {
			if want != op.FwdSeq+1 {
				c.report(Violation{
					Kind: "forward-wrong-store", LoadSeq: op.Seq, Addr: op.Addr, Size: op.Size,
					Byte: i, WantSeq: want, GotSeq: op.FwdSeq + 1,
				})
			}
			continue
		}
		if want != 0 && p.commit[off+i] > op.ReadAt {
			c.report(Violation{
				Kind: "stale-byte", LoadSeq: op.Seq, Addr: op.Addr, Size: op.Size,
				Byte: i, WantSeq: want, WantCommit: p.commit[off+i], ReadAt: op.ReadAt,
			})
		}
	}
}

// The byte-wise forwarding overlap matrix: every legal (store size/align ×
// load size/align) footprint pair inside a 16-byte window — exact matches,
// containment, partial low/high overlap and adjacent non-overlap — driven
// through each scheme's load search and certified against the differential
// oracle. This is the table test behind the forwarding-provenance contract:
// full coverage forwards, partial coverage waits for the store's commit and
// re-reads, disjoint footprints read the cache untouched.
package lsq_test

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/oracle"
	"repro/internal/stats"
)

const (
	windowBase  = uint64(0x1000)
	windowBytes = 16
	storeCommit = int64(100)
	loadIssue   = int64(50)
	loadCommit  = int64(110)
)

// cell is one matrix entry: a store footprint against a load footprint.
type cell struct {
	stAddr uint64
	stSize uint8
	ldAddr uint64
	ldSize uint8
}

func (c cell) String() string {
	return fmt.Sprintf("st %d@+%d / ld %d@+%d", c.stSize, c.stAddr-windowBase, c.ldSize, c.ldAddr-windowBase)
}

// matrix enumerates every legal aligned power-of-two footprint pair in the
// window: 30 store placements x 30 load placements.
func matrix() []cell {
	var placements []struct {
		addr uint64
		size uint8
	}
	for _, size := range []uint8{1, 2, 4, 8} {
		for off := uint64(0); off+uint64(size) <= windowBytes; off += uint64(size) {
			placements = append(placements, struct {
				addr uint64
				size uint8
			}{windowBase + off, size})
		}
	}
	var out []cell
	for _, st := range placements {
		for _, ld := range placements {
			out = append(out, cell{st.addr, st.size, ld.addr, ld.size})
		}
	}
	return out
}

// schemeUnderTest drives one LSQ organisation's HL load-search path.
type schemeUnderTest struct {
	name string
	mk   func() lsq.Scheme
}

func schemesUnderTest() []schemeUnderTest {
	elsq := func(mut func(*config.Config)) func() lsq.Scheme {
		return func() lsq.Scheme {
			cfg := config.Default()
			if mut != nil {
				mut(&cfg)
			}
			l1 := mem.NewCache(cfg.L1)
			return core.New(&cfg, noc.NewAnalytic(4, 4, cfg.MeshHop, cfg.BusOneWay), l1, nil, false, new(stats.Tally))
		}
	}
	return []schemeUnderTest{
		{"central", func() lsq.Scheme { return lsq.NewCentral(noc.NewAnalytic(4, 4, 1, 4), new(stats.Tally)) }},
		{"conventional", func() lsq.Scheme { return lsq.NewConventional(false, new(stats.Tally)) }},
		{"elsq-hash", elsq(nil)},
		{"elsq-line", elsq(func(c *config.Config) { c.ERT = config.ERTLine })},
	}
}

func TestForwardingOverlapMatrix(t *testing.T) {
	cells := matrix()
	if len(cells) != 30*30 {
		t.Fatalf("matrix has %d cells, want 900", len(cells))
	}
	for _, s := range schemesUnderTest() {
		t.Run(s.name, func(t *testing.T) {
			scheme := s.mk()
			for _, c := range cells {
				ix := lsq.NewStoreIndex()
				st := ix.NewOp()
				st.Seq, st.Store, st.Addr, st.Size = 1, true, c.stAddr, c.stSize
				st.AddrReady, st.DataReady, st.Commit = 5, 6, storeCommit
				st.Epoch = lsq.HLEpoch
				ix.Add(st)

				ld := &lsq.MemOp{Seq: 9, Addr: c.ldAddr, Size: c.ldSize, Epoch: lsq.HLEpoch, Issued: loadIssue}
				res := scheme.LoadIssue(ld, ix, loadIssue)

				mask := isa.OverlapMask(c.stAddr, c.stSize, c.ldAddr, c.ldSize)
				covers := st.Covers(ld)
				switch {
				case mask == 0:
					if res.Forwarded || res.Partial {
						t.Fatalf("%s: disjoint footprints matched: %+v", c, res)
					}
				case covers:
					if !res.Forwarded || res.Source != st {
						t.Fatalf("%s: covering store did not forward: %+v", c, res)
					}
					if mask != isa.FullMask(c.ldSize) {
						t.Fatalf("%s: covering store mask %#x not full", c, mask)
					}
				default:
					if !res.Partial || res.PartialStore != st {
						t.Fatalf("%s: partial overlap not detected: %+v", c, res)
					}
				}

				// Certify the cell's provenance against the oracle, exactly
				// as the pipeline model would report it.
				ck := oracle.New(0)
				ck.StoreCommitted(st)
				committed := &lsq.MemOp{Seq: 9, Addr: c.ldAddr, Size: c.ldSize, Commit: loadCommit}
				switch {
				case res.Forwarded:
					committed.FwdSeq, committed.FwdMask = st.Seq, mask
					committed.ReadAt = loadIssue
				case res.Partial:
					committed.ReadAt = st.Commit // wait for the store, re-read
				default:
					committed.ReadAt = loadIssue
				}
				ck.LoadCommitted(committed)
				if err := ck.Err(); err != nil {
					t.Fatalf("%s: oracle rejected the scheme's provenance: %v", c, err)
				}

				// Sensitivity control: for overlapping footprints a stale
				// issue-time read with no forwarding must be rejected.
				if mask != 0 {
					bad := oracle.New(0)
					bad.StoreCommitted(st)
					badLd := &lsq.MemOp{Seq: 9, Addr: c.ldAddr, Size: c.ldSize, Commit: loadCommit, ReadAt: loadIssue}
					bad.LoadCommitted(badLd)
					if bad.Err() == nil {
						t.Fatalf("%s: oracle accepted a stale un-forwarded read", c)
					}
				}
			}
		})
	}
}

package lsq

import (
	"slices"
	"testing"

	"repro/internal/xrand"
)

// streamSource supplies the choices a storeStream makes: the property test
// draws them from a seeded PRNG, FuzzStoreIndex decodes them from its input.
type streamSource interface {
	// intn returns a value in [0, n).
	intn(n int) int
	// more reports whether the stream goes on.
	more() bool
}

// rngSource draws from xrand for a fixed number of steps.
type rngSource struct {
	rng   *xrand.RNG
	steps int
}

func (s *rngSource) intn(n int) int { return s.rng.Intn(n) }
func (s *rngSource) more() bool {
	s.steps--
	return s.steps >= 0
}

// byteSource decodes little-endian 16-bit draws from a fuzz input; an
// exhausted input draws zeros and ends the stream.
type byteSource struct{ data []byte }

func (s *byteSource) intn(n int) int {
	if len(s.data) < 2 {
		s.data = nil
		return 0
	}
	v := int(s.data[0]) | int(s.data[1])<<8
	s.data = s.data[2:]
	return v % n
}
func (s *byteSource) more() bool { return len(s.data) >= 2 }

// Stream geometry. Addresses fall in a few 8-byte blocks, so chains grow
// long and loads overlap stores often.
const (
	streamBase      = 0x1000
	streamBlocks    = 12
	streamFetch     = 4 // stores dispatched per cycle at most (lateSlack 8)
	streamSparseGap = 512
)

// streamCoverage counts how often a stream took each path the early exits
// and O(1) retirement must get right.
type streamCoverage struct {
	// aliased counts records NewOp recycled while a recent-ring slot still
	// pointed at them.
	aliased int
	// late counts late-address stores (tracked in lateAddr).
	late int
	// tailQueries counts queries made with uncommitted stores indexed.
	tailQueries int
	// retired counts stores the index retired.
	retired int
}

// storeStream drives a StoreIndex the way the pipeline model does and
// checks Candidates, CandidatesOracle and Unresolved after every query
// against brute force over copies of every store Added so far (the index
// recycles its records, so only the copies keep the truth).
//
// The stream keeps the index's contract. Stores get records from NewOp and
// are Added in commit order, each committing no earlier than its own
// address and data and no earlier than the store before; once the stream
// reaches its uncommitted tail, every later store has Commit 0. Dispatch is
// non-decreasing with at most streamFetch stores per cycle. A load
// dispatches no earlier than every store Added before it and queries after
// its dispatch, which is what keeps evicted ring entries and retired stores
// out of every query's window.
type storeStream struct {
	ix     *StoreIndex
	stores []MemOp
	cov    streamCoverage

	seq       uint64
	clock     int64 // dispatch cycle of the youngest store
	sameCycle int   // stores dispatched at clock
	commit    int64 // commit cycle of the youngest committed store
	tail      bool  // every further store is uncommitted
	sparse    bool  // current phase dispatches far fewer than 64 stores per horizon
	phaseLeft int
}

func newStoreStream() *storeStream { return &storeStream{ix: NewStoreIndex()} }

// run consumes src: two stores for every query on average, in phases of
// dense and sparse dispatch.
func (s *storeStream) run(tb testing.TB, src streamSource) {
	tb.Helper()
	for src.more() {
		if src.intn(3) == 0 {
			s.query(tb, src)
		} else {
			s.addStore(src)
		}
	}
}

func (s *storeStream) addStore(src streamSource) {
	if s.phaseLeft == 0 {
		s.phaseLeft = 16 + src.intn(200)
		s.sparse = src.intn(3) == 0
	}
	s.phaseLeft--
	gap := int64(src.intn(8))
	if s.sparse {
		gap = streamSparseGap/2 + int64(src.intn(streamSparseGap))
	}
	if gap == 0 && s.sameCycle == streamFetch {
		gap = 1
	}
	if gap > 0 {
		s.clock += gap
		s.sameCycle = 0
	}
	s.sameCycle++

	op := s.ix.NewOp()
	if slices.Contains(s.ix.recent[:], op) {
		s.cov.aliased++
	}
	s.seq += 2 // stores take odd sequence numbers, loads between them even
	size := uint8(1) << src.intn(4)
	op.Seq, op.Store, op.Size = s.seq-1, true, size
	op.Addr = streamBase + uint64(src.intn(streamBlocks))*8 + uint64(src.intn(8/int(size)))*uint64(size)
	op.Dispatch = s.clock
	op.AddrReady = s.clock + 1 + int64(src.intn(int(s.ix.lateSlack)))
	if src.intn(8) == 0 {
		op.AddrReady = s.clock + s.ix.lateSlack + 1 + int64(src.intn(400))
		s.cov.late++
	}
	op.DataReady = s.clock + 1 + int64(src.intn(16))
	if !s.tail && src.intn(1024) == 0 {
		s.tail = true
	}
	if !s.tail {
		s.commit = max(s.commit, op.AddrReady, op.DataReady) + int64(src.intn(40))
		op.Commit = s.commit
	}
	free := len(s.ix.freeOps)
	s.ix.Add(op)
	s.cov.retired += len(s.ix.freeOps) - free
	s.stores = append(s.stores, *op)
}

func (s *storeStream) query(tb testing.TB, src streamSource) {
	tb.Helper()
	seq := s.seq + 2 // younger than every store
	if len(s.stores) > 0 && src.intn(4) == 0 {
		seq = s.stores[src.intn(len(s.stores))].Seq + 1 // sees only part of the window
	}
	size := uint8(1) << src.intn(4)
	ld := &MemOp{Seq: seq, Size: size, Dispatch: s.clock + int64(src.intn(4))}
	ld.Addr = streamBase + uint64(src.intn(streamBlocks))*8 + uint64(src.intn(8/int(size)))*uint64(size)
	tq := ld.Dispatch + 1 + int64(src.intn(400))
	ld.Issued = tq
	if s.tail {
		s.cov.tailQueries++
	}
	var wantCand, wantOracle []uint64
	wantUnres := false
	for i := range s.stores {
		st := &s.stores[i]
		if st.Seq >= ld.Seq || !st.InFlightAt(tq) {
			continue
		}
		if st.AddrReady > tq {
			wantUnres = true
		}
		if st.Overlaps(ld) {
			wantOracle = append(wantOracle, st.Seq)
			if st.AddrReady <= tq {
				wantCand = append(wantCand, st.Seq)
			}
		}
	}
	if got := seqsOf(s.ix.Candidates(ld, tq)); !slices.Equal(got, wantCand) {
		tb.Fatalf("Candidates(seq %d, %#x/%d, t=%d) = %v, want %v", ld.Seq, ld.Addr, ld.Size, tq, got, wantCand)
	}
	if got := seqsOf(s.ix.CandidatesOracle(ld, tq)); !slices.Equal(got, wantOracle) {
		tb.Fatalf("CandidatesOracle(seq %d, %#x/%d, t=%d) = %v, want %v", ld.Seq, ld.Addr, ld.Size, tq, got, wantOracle)
	}
	if got := s.ix.Unresolved(ld, tq); got != wantUnres {
		tb.Fatalf("Unresolved(seq %d, t=%d) = %v, want %v", ld.Seq, tq, got, wantUnres)
	}
}

func seqsOf(ops []*MemOp) []uint64 {
	var out []uint64
	for _, op := range ops {
		out = append(out, op.Seq)
	}
	return out
}

// FuzzStoreIndex decodes its input into a commit-ordered stream of stores
// and queries and checks every query against brute force. Run it with
//
//	go test -fuzz=FuzzStoreIndex ./internal/lsq
//
// In plain go test runs the seed corpus below replays a few thousand-draw
// streams.
func FuzzStoreIndex(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		buf := make([]byte, 8192)
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newStoreStream().run(t, &byteSource{data: data})
	})
}

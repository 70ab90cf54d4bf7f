package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// record encodes the first n committed-path instructions of (bench, seed)
// with the given block granularity and returns the file image.
func record(t testing.TB, bench string, seed, n uint64, blockRecords int) []byte {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := newRecorder(&buf, prof.New(seed), blockRecords)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(n); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != n {
		t.Fatalf("recorded %d instructions, want %d", rec.Count(), n)
	}
	return buf.Bytes()
}

func mustOpen(t *testing.T, data []byte) *Trace {
	t.Helper()
	tr, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustSource(t *testing.T, tr *Trace) *Source {
	t.Helper()
	s, err := tr.Source()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTrip pins the core fidelity contract: decoding a recording
// reproduces the live generator's committed stream field-for-field,
// including sequence numbers, across multiple blocks and a partial tail
// block.
func TestRoundTrip(t *testing.T) {
	const n, blockRecords = 10_000, 512
	for _, bench := range []string{"gzip", "swim", "mcf"} {
		data := record(t, bench, 7, n, blockRecords)
		tr := mustOpen(t, data)
		m := tr.Meta()
		if m.Bench != bench || m.Seed != 7 || m.Records != n || m.BlockRecords != blockRecords {
			t.Fatalf("%s: bad meta %+v", bench, m)
		}
		if m.StateVersion != workload.StateVersion {
			t.Errorf("%s: meta state version %d, want %d", bench, m.StateVersion, workload.StateVersion)
		}
		if err := tr.Verify(); err != nil {
			t.Fatalf("%s: %v", bench, err)
		}

		prof, _ := workload.ByName(bench)
		live := prof.New(7)
		src := mustSource(t, tr)
		var want, got isa.Inst
		for i := 0; i < n; i++ {
			live.Next(&want)
			src.Next(&got)
			if got != want {
				t.Fatalf("%s: record %d replayed as %+v, live %+v", bench, i, got, want)
			}
		}
	}
}

// TestWrongPathEquivalence proves replay re-synthesises the exact
// wrong-path stream the live source would produce when both are driven
// with an interleaved committed/wrong-path consumption pattern.
func TestWrongPathEquivalence(t *testing.T) {
	const n = 4000
	data := record(t, "mcf", 3, n, 256)
	prof, _ := workload.ByName("mcf")
	live := prof.New(3)
	src := mustSource(t, mustOpen(t, data))

	var want, got isa.Inst
	for i := 0; i < n; i++ {
		live.Next(&want)
		src.Next(&got)
		if got != want {
			t.Fatalf("committed %d diverged", i)
		}
		if i%13 == 0 {
			for k := 0; k < 3; k++ {
				live.WrongPath(&want)
				src.WrongPath(&got)
				if got != want {
					t.Fatalf("wrong-path after committed %d diverged: %+v vs %+v", i, got, want)
				}
			}
		}
	}
}

// TestWarmupEquivalence checks count-mode Warmup feeds the same access
// sequence as the live source and leaves the stream at the same position.
func TestWarmupEquivalence(t *testing.T) {
	const n, warm = 6000, 3777
	data := record(t, "gcc", 5, n, 512)
	prof, _ := workload.ByName("gcc")
	live := prof.New(5)
	src := mustSource(t, mustOpen(t, data))

	var liveAddrs, srcAddrs []uint64
	live.Warmup(warm, func(a uint64) { liveAddrs = append(liveAddrs, a) })
	src.Warmup(warm, func(a uint64) { srcAddrs = append(srcAddrs, a) })
	if len(liveAddrs) != len(srcAddrs) {
		t.Fatalf("warm-up fed %d accesses, live fed %d", len(srcAddrs), len(liveAddrs))
	}
	for i := range liveAddrs {
		if liveAddrs[i] != srcAddrs[i] {
			t.Fatalf("access %d: %#x vs live %#x", i, srcAddrs[i], liveAddrs[i])
		}
	}
	var want, got isa.Inst
	for i := 0; i < 500; i++ {
		live.Next(&want)
		src.Next(&got)
		if got != want {
			t.Fatalf("post-warm-up instruction %d diverged", i)
		}
		live.WrongPath(&want)
		src.WrongPath(&got)
		if got != want {
			t.Fatalf("post-warm-up wrong path %d diverged", i)
		}
	}
}

// warmOnePass warms a fresh trace over data through WarmSource and returns
// the trace, the source and the fed addresses.
func warmOnePass(t testing.TB, data []byte, n uint64) (*Trace, *Source, []uint64, error) {
	t.Helper()
	tr, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []uint64
	src, err := tr.WarmSource(n, func(a uint64) { addrs = append(addrs, a) })
	return tr, src, addrs, err
}

// warmVerified is the two-pass reference: Verify, then Source and Warmup.
func warmVerified(t testing.TB, data []byte, n uint64) (*Source, []uint64) {
	t.Helper()
	tr, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	src, err := tr.Source()
	if err != nil {
		t.Fatal(err)
	}
	var addrs []uint64
	src.Warmup(n, func(a uint64) { addrs = append(addrs, a) })
	return src, addrs
}

// TestWarmSourceOnePass: on a trace not yet verified, WarmSource warms
// inside the verification pass. For an INT and an FP benchmark, with no
// warm-up, one record, both sides of a block boundary and the whole
// recording, it feeds the addresses Verify, Source and Warmup feed, leaves
// the source in the same state (position and wrong-path ring) to continue
// identically, counts no decode outside the pass, and keeps the verdict: a
// later Verify answers from it without decoding, even after the file
// image is damaged under it. A warm-up past the recording is refused.
func TestWarmSourceOnePass(t *testing.T) {
	const blockRecords = 256
	const n = 3*blockRecords + 17
	for _, bench := range []string{"gcc", "swim"} {
		data := record(t, bench, 3, n, blockRecords)
		for _, budget := range []uint64{0, 1, blockRecords - 1, blockRecords, blockRecords + 1, n} {
			img := slices.Clone(data)
			tr, got, gotAddrs, err := warmOnePass(t, img, budget)
			if err != nil {
				t.Fatalf("%s n=%d: %v", bench, budget, err)
			}
			want, wantAddrs := warmVerified(t, data, budget)
			if !slices.Equal(gotAddrs, wantAddrs) {
				t.Fatalf("%s n=%d: one pass fed %d addresses, verify-then-warm %d (or a different sequence)",
					bench, budget, len(gotAddrs), len(wantAddrs))
			}
			if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
				t.Fatalf("%s n=%d: snapshot %+v, verify-then-warm %+v", bench, budget, got.Snapshot(), want.Snapshot())
			}
			if d := tr.Decodes(); d != 0 {
				t.Errorf("%s n=%d: the one-pass warm-up decoded %d blocks outside the verification pass", bench, budget, d)
			}
			var a, b isa.Inst
			for i := budget; i < min(budget+300, n); i++ {
				got.Next(&a)
				want.Next(&b)
				if a != b {
					t.Fatalf("%s n=%d: instruction %d after the warm-up diverged", bench, budget, i)
				}
				got.WrongPath(&a)
				want.WrongPath(&b)
				if a != b {
					t.Fatalf("%s n=%d: wrong path after instruction %d diverged", bench, budget, i)
				}
			}
			img[tr.blocks[0].off+3] ^= 0x40
			if mustOpen(t, img).Verify() == nil {
				t.Fatalf("%s: the damaged image verifies clean", bench)
			}
			if err := tr.Verify(); err != nil {
				t.Fatalf("%s n=%d: Verify after the one-pass warm-up decoded again: %v", bench, budget, err)
			}
		}
		if _, _, _, err := warmOnePass(t, data, n+1); err == nil {
			t.Errorf("%s: a warm-up past the %d-record recording was accepted", bench, n)
		}
	}
}

// TestSnapshotRestore checks the Snapshottable contract within the
// recording: a restored source continues bit-identically, committed and
// wrong path both.
func TestSnapshotRestore(t *testing.T) {
	const n = 5000
	data := record(t, "vpr", 9, n, 256)
	tr := mustOpen(t, data)

	a := mustSource(t, tr)
	var in isa.Inst
	for i := 0; i < 1234; i++ {
		a.Next(&in)
	}
	a.WrongPath(&in) // advance wrong-path state too
	st := a.Snapshot()
	if st.Consumed != 1234 || st.Kernel != nil {
		t.Fatalf("snapshot: consumed %d kernel %v", st.Consumed, st.Kernel)
	}

	b := mustSource(t, tr)
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	var want, got isa.Inst
	for i := 0; i < 2000; i++ {
		a.Next(&want)
		b.Next(&got)
		if got != want {
			t.Fatalf("restored source diverged at %d", i)
		}
		a.WrongPath(&want)
		b.WrongPath(&got)
		if got != want {
			t.Fatalf("restored wrong path diverged at %d", i)
		}
	}

	// Mismatched identities are rejected.
	other := mustSource(t, mustOpen(t, record(t, "vpr", 10, 100, 64)))
	if err := other.Restore(st); err == nil {
		t.Error("snapshot restored onto a different seed")
	}
}

// TestRestoreRejectsOutOfRangeRecentPos: a corrupt wrong-path ring position
// must fail Restore with an error, inside the recording and at its end, not
// restore cleanly and panic on the next instruction.
func TestRestoreRejectsOutOfRangeRecentPos(t *testing.T) {
	tr := mustOpen(t, record(t, "mcf", 1, 3500, 256))
	a := mustSource(t, tr)
	var in isa.Inst
	for i := 0; i < 3500; i++ {
		a.Next(&in)
		if i == 1234 {
			st := a.Snapshot()
			st.RecentPos = 1 << 40
			if err := mustSource(t, tr).Restore(st); err == nil {
				t.Error("restore accepted recent_pos 2^40 within the recording")
			}
		}
	}
	st := a.Snapshot()
	st.RecentPos = -1
	if err := mustSource(t, tr).Restore(st); err == nil {
		t.Error("restore accepted recent_pos -1 at the end of the recording")
	}
}

// TestSourcesIndependent: two Sources of one Trace share no mutable state.
// Advancing one leaves the other at the start of the stream, with the
// wrong-path state of a fresh live generator.
func TestSourcesIndependent(t *testing.T) {
	tr := mustOpen(t, record(t, "swim", 1, 1_000, 256))
	r1, r2 := mustSource(t, tr), mustSource(t, tr)
	var in isa.Inst
	for i := 0; i < 500; i++ {
		r1.Next(&in)
		r1.WrongPath(&in)
	}
	prof, _ := workload.ByName("swim")
	live := prof.New(1)
	var want, got isa.Inst
	live.Next(&want)
	r2.Next(&got)
	if got != want {
		t.Fatalf("second source does not start fresh: %+v vs %+v", got, want)
	}
	live.WrongPath(&want)
	r2.WrongPath(&got)
	if got != want {
		t.Fatalf("wrong-path state shared between sources: %+v vs %+v", got, want)
	}
}

// TestGeneratorSnapshotRestore: a live generator's snapshot positions a
// fresh Source within the recording by seeking, and both then continue in
// lockstep. A snapshot past the recording is refused.
func TestGeneratorSnapshotRestore(t *testing.T) {
	const recorded = 12_000
	tr := mustOpen(t, record(t, "swim", 5, recorded, 1024))
	prof, _ := workload.ByName("swim")
	for _, at := range []int{5_000, recorded + 1_000} {
		g := prof.New(5)
		var want, got isa.Inst
		for i := 0; i < at; i++ {
			g.Next(&want)
			if i%53 == 52 {
				g.WrongPath(&want)
			}
		}
		src := mustSource(t, tr)
		err := src.Restore(g.Snapshot())
		if at > recorded {
			if err == nil {
				t.Fatalf("restore at %d, past the %d-instruction recording, succeeded", at, recorded)
			}
			continue
		}
		if err != nil {
			t.Fatalf("restore at %d: %v", at, err)
		}
		for i := 0; i < 4_000; i++ {
			g.Next(&want)
			src.Next(&got)
			if got != want {
				t.Fatalf("restored at %d: instruction %d diverged", at, i)
			}
			if i%7 == 0 {
				g.WrongPath(&want)
				src.WrongPath(&got)
				if got != want {
					t.Fatalf("restored at %d: wrong path %d diverged", at, i)
				}
			}
		}
	}
}

// TestDigestBlockSizeIndependence pins the content-digest contract: the
// digest names the instruction stream, not its storage layout.
func TestDigestBlockSizeIndependence(t *testing.T) {
	a := mustOpen(t, record(t, "gzip", 1, 3000, 128))
	b := mustOpen(t, record(t, "gzip", 1, 3000, 1024))
	if a.Meta().Digest != b.Meta().Digest {
		t.Errorf("digest depends on block size: %s vs %s", a.Meta().Digest, b.Meta().Digest)
	}
	c := mustOpen(t, record(t, "gzip", 2, 3000, 128))
	if a.Meta().Digest == c.Meta().Digest {
		t.Error("different seeds share a digest")
	}
	d := mustOpen(t, record(t, "gzip", 1, 3001, 128))
	if a.Meta().Digest == d.Meta().Digest {
		t.Error("different lengths share a digest")
	}
}

// TestCorruptionDetection checks the failure modes: payload bit-flips are
// caught by block digests, header/trailer damage by structural parsing.
func TestCorruptionDetection(t *testing.T) {
	data := record(t, "gzip", 1, 2000, 256)
	tr := mustOpen(t, data)

	// Flip one byte inside the first block's compressed payload.
	flipped := append([]byte(nil), data...)
	flipped[tr.blocks[0].off+3] ^= 0x40
	if tr2, err := New(flipped); err == nil {
		if err := tr2.Verify(); err == nil {
			t.Error("bit-flipped payload verified clean")
		}
	}

	// Flip one byte of the trailer digest.
	flipped = append([]byte(nil), data...)
	flipped[len(flipped)-10] ^= 1
	if tr2, err := New(flipped); err == nil {
		if err := tr2.Verify(); err == nil {
			t.Error("bit-flipped trailer digest verified clean")
		}
	}

	// Structural damage fails at parse time.
	for _, mut := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte{'X'}, data[1:]...)},
		{"truncated", data[:len(data)-5]},
		{"trailing garbage", append(append([]byte(nil), data...), 0xFF)},
	} {
		if _, err := New(mut.data); err == nil {
			t.Errorf("%s parsed without error", mut.name)
		}
	}
}

// fuzzWarmBudget derives a warm-up length within the recording from a
// fuzz input: its length modulo one more than the record count.
func fuzzWarmBudget(data []byte, records uint64) uint64 {
	return uint64(len(data)) % (records + 1)
}

// FuzzTraceOpen feeds arbitrary file images through the decoder as a
// simulation would: New, then Verify, then Source, then a replay of every
// record. Corrupt input must be rejected with an error, never a panic or a
// hang, and an accepted input must replay exactly the record count its
// trailer claims, all from the recording. Each input also drives the
// one-pass warm-up (WarmSource on a second fresh Trace, over the first
// fuzzWarmBudget records): it must fail exactly when Verify does, with
// Verify's error, which that Trace keeps as its verdict, and otherwise
// feed the addresses and reach the snapshot of Verify, Source and Warmup.
// The seeds are a 3,000-record mcf recording and one-byte flips of it in
// the header, in a block payload, in a block past the warm-up and in the
// trailer's content digest.
//
//	go test -fuzz=FuzzTraceOpen ./internal/trace/
func FuzzTraceOpen(f *testing.F) {
	data := record(f, "mcf", 1, 3000, 256)
	tr, err := New(data)
	if err != nil {
		f.Fatal(err)
	}
	past := tr.blockFor(fuzzWarmBudget(data, tr.Meta().Records)) + 1
	if past >= len(tr.blocks) {
		f.Fatalf("the seed's warm-up ends in its last block")
	}
	f.Add(data)
	for _, off := range []int{
		len(magicHead) + 3,          // header: the benchmark name
		tr.blocks[1].off + 5,        // a block payload
		tr.blocks[past].off + 5,     // a block past the warm-up
		len(data) - trailerLen + 20, // the trailer's content digest
	} {
		flipped := append([]byte(nil), data...)
		flipped[off] ^= 0x20
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := New(data)
		if err != nil {
			return
		}
		n := fuzzWarmBudget(data, tr.Meta().Records)
		one, warm, warmAddrs, warmErr := warmOnePass(t, data, n)
		if err := tr.Verify(); err != nil {
			if warmErr == nil || warmErr.Error() != err.Error() {
				t.Fatalf("Verify failed with %q, the one-pass warm-up of %d records with %v", err, n, warmErr)
			}
			if kept := one.Verify(); kept != warmErr {
				t.Fatalf("Verify after the failed warm-up returned %v, not the kept %v", kept, warmErr)
			}
			return
		}
		if warmErr != nil {
			t.Fatalf("the one-pass warm-up of %d records failed on a trace that verifies: %v", n, warmErr)
		}
		ref, refAddrs := warmVerified(t, data, n)
		if !slices.Equal(warmAddrs, refAddrs) {
			t.Fatalf("the one-pass warm-up of %d records fed %d addresses, verify-then-warm %d (or a different sequence)",
				n, len(warmAddrs), len(refAddrs))
		}
		if !reflect.DeepEqual(warm.Snapshot(), ref.Snapshot()) {
			t.Fatalf("the one-pass warm-up of %d records reached %+v, verify-then-warm %+v", n, warm.Snapshot(), ref.Snapshot())
		}
		src, err := tr.Source()
		if err != nil {
			return
		}
		records := tr.Meta().Records
		var in isa.Inst
		for i := uint64(0); i < records; i++ {
			src.Next(&in)
			if in.Seq != i {
				t.Fatalf("record %d replayed with sequence number %d", i, in.Seq)
			}
		}
		if src.pos != records {
			t.Fatalf("replayed %d records of %d", src.pos, records)
		}
	})
}

// TestRecorderRequiresFreshSource pins the position-zero precondition the
// header's wrong-path seed depends on.
func TestRecorderRequiresFreshSource(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	g := prof.New(1)
	var in isa.Inst
	g.Next(&in)
	if _, err := NewRecorder(&bytes.Buffer{}, g); err == nil {
		t.Error("recorder accepted a consumed source")
	}
}

// TestCached checks the process-wide cache serves unchanged files and
// reloads replaced ones.
func TestCached(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.elt")
	if err := os.WriteFile(path, record(t, "gzip", 1, 500, 128), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Cached(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cached(path)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("unchanged file was re-parsed")
	}
	// Replace with a different recording; the cache must notice.
	if err := os.WriteFile(path, record(t, "gzip", 2, 600, 128), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Cached(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Meta().Seed != 2 {
		t.Errorf("cache served the replaced file (seed %d)", c.Meta().Seed)
	}
}

// TestBenchPath pins the directory naming convention shared by record and
// the -tracedir consumers.
func TestBenchPath(t *testing.T) {
	if got, want := BenchPath("traces", "swim", 3), filepath.Join("traces", "swim-s3.elt"); got != want {
		t.Errorf("BenchPath = %q, want %q", got, want)
	}
}

// TestZigzag pins the signed-delta codec at the extremes.
func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -(1 << 62)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

// TestInterleavedSources: six Sources over one Trace, advanced in turn by
// chunks smaller than a block, each replay the exact live stream. Each
// decodes every block it enters once, into its own buffer, so the trace
// counts six decodes per block; its verification pass counts none.
func TestInterleavedSources(t *testing.T) {
	const n, blockRecords, lanes = 8_000, 512, 6
	data := record(t, "mcf", 5, n, blockRecords)
	tr := mustOpen(t, data)
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Decodes(); got != 0 {
		t.Fatalf("Verify counted %d decodes; only Block and Sources count", got)
	}

	prof, _ := workload.ByName("mcf")
	lives := make([]*workload.Generator, lanes)
	srcs := make([]*Source, lanes)
	for k := 0; k < lanes; k++ {
		lives[k] = prof.New(5)
		srcs[k] = mustSource(t, tr)
	}
	var want, got isa.Inst
	for consumed := 0; consumed < n; consumed += 100 {
		for k := 0; k < lanes; k++ {
			for i := 0; i < 100; i++ {
				lives[k].Next(&want)
				srcs[k].Next(&got)
				if got != want {
					t.Fatalf("source %d record %d replayed as %+v, live %+v", k, consumed+i, got, want)
				}
			}
		}
	}
	if got, want := tr.Decodes(), uint64(lanes*len(tr.blocks)); got != want {
		t.Fatalf("%d sources performed %d block decodes, want one each per block (%d)", lanes, got, want)
	}
}

// TestConcurrentSources: Sources over one Trace on separate goroutines,
// sharing the trace's decoder, each replay the exact live stream, wrong
// path included. Run it with -race -count=10.
func TestConcurrentSources(t *testing.T) {
	const n, blockRecords, k = 8_000, 512, 4
	tr := mustOpen(t, record(t, "mcf", 5, n, blockRecords))
	prof, _ := workload.ByName("mcf")
	var wg sync.WaitGroup
	for s := range k {
		src := mustSource(t, tr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			live := prof.New(5)
			var want, got isa.Inst
			for i := range n {
				live.Next(&want)
				src.Next(&got)
				if got != want {
					t.Errorf("source %d record %d replayed as %+v, live %+v", s, i, got, want)
					return
				}
				if i%13 == 0 {
					live.WrongPath(&want)
					src.WrongPath(&got)
					if got != want {
						t.Errorf("source %d: wrong path after record %d diverged", s, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

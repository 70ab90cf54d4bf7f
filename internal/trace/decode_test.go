package trace

import (
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
)

// readPathTrace records the trace the read-path allocation tests use:
// 12,000 mcf records at 256 records per block, 47 blocks.
func readPathTrace(t *testing.T) []byte {
	t.Helper()
	data := record(t, "mcf", 1, 12_000, 256)
	if n := len(mustOpen(t, data).blocks); n != 47 {
		t.Fatalf("recording has %d blocks, want 47", n)
	}
	return data
}

// TestVerifyAllocs: New + Verify allocates per trace and per block buffer,
// not per record. Per-record digest writes cost one object per record
// (12,000 here).
func TestVerifyAllocs(t *testing.T) {
	data := readPathTrace(t)
	allocs := testing.AllocsPerRun(5, func() {
		tr, err := New(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Verify(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("New + Verify of a 12,000-record trace allocates %.0f objects, want at most 100", allocs)
	}
}

// TestBlockMissAllocs: once the trace's decoder exists, a Block miss
// allocates exactly one object, the record slice it returns and caches.
// The blocks are visited in a cycle longer than the resident FIFO, so
// every call misses.
func TestBlockMissAllocs(t *testing.T) {
	tr := mustOpen(t, readPathTrace(t))
	nblocks := len(tr.blocks)
	i := 0
	allocs := testing.AllocsPerRun(2*nblocks, func() {
		if _, err := tr.Block(i % nblocks); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// AllocsPerRun makes one warm-up call beyond its runs.
	if got, want := tr.Decodes(), uint64(2*nblocks+1); got != want {
		t.Fatalf("%d Block calls decoded %d blocks; every call should miss", want, got)
	}
	if allocs != 1 {
		t.Errorf("a Block miss allocates %.2f objects, want exactly 1", allocs)
	}
}

// TestRecordAllocs: the Recorder folds the content digest a block at a
// time, so recording allocates per block, not per record.
func TestRecordAllocs(t *testing.T) {
	readPathTrace(t)
	allocs := testing.AllocsPerRun(3, func() {
		record(t, "mcf", 1, 12_000, 256)
	})
	if allocs > 300 {
		t.Errorf("recording 12,000 records allocates %.0f objects, want at most 300", allocs)
	}
}

// TestVerifyScratchFromBlockIndex: Verify sizes its scratch from the
// largest block, not from the header's records-per-block, so a one-record
// trace that declares 2^20 records per block verifies in a few kilobytes
// instead of allocating a 2^20-record buffer (33.6 MB).
func TestVerifyScratchFromBlockIndex(t *testing.T) {
	tr := mustOpen(t, record(t, "mcf", 1, 1, 1<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := tr.Verify()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("Verify of a one-record trace allocated %d bytes, want under 1 MiB", got)
	}
}

// TestDecoderSurvivesCorruptBlock: a block that fails to decode leaves the
// reused decoder good for the next block. Block k of a recording is
// corrupted two ways, by a flip that makes inflation fail and by one that
// inflates to a payload failing its digest. Decoding blocks k-1, k and k+1
// in order through one trace, block k fails naming k while its neighbours
// decode to the clean trace's records, and Verify reports block k.
func TestDecoderSurvivesCorruptBlock(t *testing.T) {
	const k = 5
	data := record(t, "mcf", 1, 3000, 256)
	clean := mustOpen(t, data)
	want := map[int][]isa.Inst{}
	for _, i := range []int{k - 1, k + 1} {
		recs, err := clean.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = recs
	}
	namesK := regexp.MustCompile(fmt.Sprintf(`\bblock %d\b`, k))

	// Find the first flip of each kind in block k's compressed payload.
	flip := func(off int) []byte {
		b := append([]byte(nil), data...)
		b[off] ^= 0x10
		return b
	}
	flips := map[string]int{}
	b := clean.blocks[k]
	for off := b.off; off < b.off+b.compLen && len(flips) < 2; off++ {
		_, err := mustOpen(t, flip(off)).Block(k)
		var corrupt flate.CorruptInputError
		switch {
		case err == nil:
		case errors.As(err, &corrupt) || errors.Is(err, io.ErrUnexpectedEOF):
			if _, ok := flips["inflate"]; !ok {
				flips["inflate"] = off
			}
		case strings.Contains(err.Error(), "payload digest"):
			if _, ok := flips["digest"]; !ok {
				flips["digest"] = off
			}
		}
	}
	if len(flips) != 2 {
		t.Fatalf("found flips %v in block %d, want one that fails inflation and one that fails the digest", flips, k)
	}

	for kind, off := range flips {
		tr := mustOpen(t, flip(off))
		for i := k - 1; i <= k+1; i++ {
			recs, err := tr.Block(i)
			if i == k {
				if err == nil || !namesK.MatchString(err.Error()) {
					t.Errorf("%s flip: block %d returned %v, want an error naming block %d", kind, k, err, k)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s flip: block %d: %v", kind, i, err)
			}
			if !slices.Equal(recs, want[i]) {
				t.Errorf("%s flip: block %d decoded differently from the clean trace", kind, i)
			}
		}
		if err := tr.Verify(); err == nil || !namesK.MatchString(err.Error()) {
			t.Errorf("%s flip: Verify returned %v, want an error naming block %d", kind, err, k)
		}
	}
}

// decodeRecordRef is the record decoder as it was when each register field
// was read as a full uvarint, kept verbatim as FuzzDecodeRecord's
// reference. Besides the one-byte encodings every recorder writes, it
// accepts overlong register encodings such as 80 00.
func decodeRecordRef(buf []byte, out *isa.Inst, prevAddr uint64) ([]byte, uint64, error) {
	if len(buf) == 0 {
		return nil, prevAddr, fmt.Errorf("trace: truncated record")
	}
	flags := buf[0]
	buf = buf[1:]
	out.Op = isa.OpClass(flags & 7)
	out.Taken = flags&(1<<3) != 0
	out.Mispred = flags&(1<<4) != 0
	reg := func() (int16, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 || v > uint64(isa.NumRegs) {
			return 0, fmt.Errorf("trace: bad register field")
		}
		buf = buf[n:]
		return int16(v) - 1, nil
	}
	var err error
	if out.Dst, err = reg(); err != nil {
		return nil, prevAddr, err
	}
	if out.Src1, err = reg(); err != nil {
		return nil, prevAddr, err
	}
	if out.Src2, err = reg(); err != nil {
		return nil, prevAddr, err
	}
	if out.Op.IsMem() {
		d, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, prevAddr, fmt.Errorf("trace: bad address delta")
		}
		buf = buf[n:]
		prevAddr += uint64(unzigzag(d))
		out.Addr = prevAddr
		out.Size = 1 << ((flags >> 5) & 3)
	} else {
		out.Addr, out.Size = 0, 0
	}
	return buf, prevAddr, nil
}

// FuzzDecodeRecord checks decodeRecord against decodeRecordRef, record by
// record until the input ends or either errors. Both return the same
// instruction, remaining length and address base, or decodeRecord errors
// and either the reference errors too or one of the three register bytes
// has bit 7 set. decodeRecord never succeeds where the reference fails.
//
//	go test -fuzz=FuzzDecodeRecord ./internal/trace/
func FuzzDecodeRecord(f *testing.F) {
	for op := isa.OpClass(0); op < isa.OpClass(isa.NumOpClasses); op++ {
		in := isa.Inst{Op: op, Dst: 3, Src1: isa.NoReg, Src2: isa.NumRegs - 1, Taken: true}
		if op.IsMem() {
			in.Addr, in.Size = 0x2a40, 4
		}
		rec, _, err := appendRecord(nil, &in, 0x3000)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec, uint64(0x3000))
	}
	for _, reg := range []byte{0, 64, 65, 0x7f} {
		for pos := 1; pos <= 3; pos++ {
			rec := []byte{byte(isa.OpIntAlu), 1, 1, 1}
			rec[pos] = reg
			f.Add(rec, uint64(0))
		}
	}
	for _, overlong := range [][]byte{{0x80, 0x00}, {0x81, 0x00}} {
		f.Add(append([]byte{byte(isa.OpIntAlu), 1, 1}, overlong...), uint64(0))
		f.Add(append(append([]byte{byte(isa.OpIntAlu)}, overlong...), 1, 1), uint64(0))
	}
	for _, short := range [][]byte{
		{},
		{byte(isa.OpIntAlu)},
		{byte(isa.OpIntAlu), 1, 1},
		{byte(isa.OpLoad) | 3<<5, 1, 1, 1}, // no address delta
		{byte(isa.OpStore) | 3<<5, 1, 1, 1, 0x80}, // delta cut mid-varint
	} {
		f.Add(short, uint64(0))
	}
	tr, err := New(record(f, "mcf", 1, 3000, 256))
	if err != nil {
		f.Fatal(err)
	}
	var d blockDecoder
	if _, err := d.decode(tr, 1, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), d.raw[:tr.blocks[1].rawLen]...), uint64(0))

	f.Fuzz(func(t *testing.T, buf []byte, prevAddr uint64) {
		for {
			var got, want isa.Inst
			rest, base, err := decodeRecord(buf, &got, prevAddr)
			wantRest, wantBase, wantErr := decodeRecordRef(buf, &want, prevAddr)
			if err != nil {
				overlong := len(buf) >= 4 && (buf[1]|buf[2]|buf[3])&0x80 != 0
				if wantErr == nil && !overlong {
					t.Fatalf("record % x: rejected (%v), the reference decodes it", buf, err)
				}
				return
			}
			if wantErr != nil {
				t.Fatalf("record % x: decoded, the reference rejects it (%v)", buf, wantErr)
			}
			if got != want || len(rest) != len(wantRest) || base != wantBase {
				t.Fatalf("record % x: decoded %+v, %d bytes left, base %#x; reference %+v, %d left, base %#x",
					buf, got, len(rest), base, want, len(wantRest), wantBase)
			}
			if len(rest) == 0 {
				return
			}
			buf, prevAddr = rest, base
		}
	})
}

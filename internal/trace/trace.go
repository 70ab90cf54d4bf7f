// Package trace is the portable on-disk trace subsystem: a versioned,
// self-describing binary format (".elt") for recorded committed-path
// instruction streams, a Recorder that captures any workload.Source to disk
// while (optionally) being consumed as one, and a file-backed Source that
// replays a trace bit-identically to the live generator it was recorded
// from — including wrong-path re-synthesis and Snapshot/Restore, so
// checkpointed sampled simulation (internal/ckpt) resumes from traces
// exactly as it does from live generation.
//
// The paper evaluates the two-level LSQ on recorded Alpha SimPoint traces;
// this package gives the reproduction the same artifact shape: a benchmark
// run becomes a file that replays identically across processes, machines
// and CI, can be swept over (config.Config.TracePath / the "trace" sweep
// axis) and is content-addressed (config.Config.TraceDigest folds the
// trace's digest into the simulation and warm-up cache identities).
//
// # File format
//
// All integers are unsigned LEB128 varints unless noted; multi-byte fixed
// fields are little-endian. A file is:
//
//	magic      "ELT\x01"                        (4 bytes)
//	header     format version (uvarint)
//	           workload state version (uvarint, workload.StateVersion)
//	           benchmark name (uvarint length + bytes)
//	           suite (1 byte: 0 = INT, 1 = FP)
//	           seed (uvarint)
//	           wrong-path RNG init state (uvarint)
//	           records per block (uvarint)
//	blocks     each: raw length (uvarint, > 0)
//	                 record count (uvarint)
//	                 raw-payload digest (8 bytes, sha256 prefix)
//	                 compressed length (uvarint)
//	                 DEFLATE-compressed record payload
//	terminator one 0x00 byte (a zero raw length)
//	trailer    "ELTE", record count (8-byte LE), content digest (16 bytes,
//	           sha256 prefix), "ELTZ"             (32 bytes)
//
// Every block except the last holds exactly the header's records-per-block
// count, so a record index maps to its block in O(1) and Restore seeks
// without replay. Per-block digests localise corruption; the trailer's
// content digest covers the header identity plus every record's canonical
// form (see appendCanonical) and is therefore independent of block size —
// it is the digest config.Config.TraceDigest carries. See WORKLOADS.md for
// the format specification with a worked hex example.
package trace

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/isa"
	"repro/internal/workload"
)

// FormatVersion is bumped whenever the file layout changes incompatibly, so
// traces from older builds fail loudly instead of decoding garbage.
const FormatVersion = 1

// DefaultBlockRecords is the Recorder's default block granularity: large
// enough that DEFLATE sees real redundancy, small enough that a Restore
// seek decodes only a sliver of the file.
const DefaultBlockRecords = 4096

// maxNameLen bounds the benchmark-name field against hostile headers.
const maxNameLen = 256

var (
	magicHead = []byte{'E', 'L', 'T', 1}
	magicTail = []byte("ELTE")
	magicEnd  = []byte("ELTZ")
)

// trailerLen is the fixed size of the file trailer.
const trailerLen = 4 + 8 + 16 + 4

// Meta is the self-describing identity of a trace.
type Meta struct {
	// FormatVersion is the file-format version (FormatVersion at write time).
	FormatVersion int
	// StateVersion is workload.StateVersion at record time; a mismatch means
	// the generator state layout (and hence the synthetic streams) may have
	// changed under the trace.
	StateVersion int
	// Bench and Suite identify the recorded benchmark.
	Bench string
	Suite workload.Suite
	// Seed is the workload seed the stream was generated under.
	Seed uint64
	// WPInit is the wrong-path RNG state at record start; replay seeds its
	// wrong-path synthesiser from it (see workload.NewWrongPathSynth).
	WPInit uint64
	// BlockRecords is the records-per-block granularity.
	BlockRecords int
	// Records is the total committed-path instruction count.
	Records uint64
	// Digest is the hex content digest of the stream (block-size
	// independent); it is what config.Config.TraceDigest carries.
	Digest string
}

// blockInfo indexes one compressed block inside the file image.
type blockInfo struct {
	off     int // offset of the compressed payload in data
	compLen int
	rawLen  int
	count   int
	digest  [8]byte
	start   uint64 // record index of the block's first record
}

// Trace is an opened, structurally validated trace, safe for concurrent
// use. Its file image and block index never change; its verdict is kept
// once computed, and its one block decoder is shared under blockMu. Every
// mutable cursor, with the block it has decoded, lives in a Source.
type Trace struct {
	meta   Meta
	data   []byte
	blocks []blockInfo
	// maxCount and maxRaw are the largest record count and raw length of
	// any block: decode scratch is sized from them, never from the
	// header's records-per-block, which may be far larger than any block.
	maxCount, maxRaw int

	verifyOnce sync.Once
	verifyErr  error

	// blockMu guards the decoder that Block and every Source decode through,
	// and the count of their decodes.
	blockMu  sync.Mutex
	blockDec blockDecoder
	decodes  uint64
}

// Block decodes block i into a new slice, which the caller owns.
func (t *Trace) Block(i int) ([]isa.Inst, error) {
	return t.decodeBlock(i, make([]isa.Inst, t.blocks[i].count))
}

// decodeBlock decodes block i through the trace's decoder, over dst's
// backing array when it has the capacity, and counts the decode.
func (t *Trace) decodeBlock(i int, dst []isa.Inst) ([]isa.Inst, error) {
	t.blockMu.Lock()
	defer t.blockMu.Unlock()
	recs, err := t.blockDec.decode(t, i, dst)
	if err != nil {
		return nil, err
	}
	t.decodes++
	return recs, nil
}

// Decodes reports how many blocks Block and the trace's Sources have
// decoded; the verification pass, and a warm-up riding on it, are not
// counted. Tests and the benchmark read it to pin one decode per block a
// cursor enters.
func (t *Trace) Decodes() uint64 {
	t.blockMu.Lock()
	defer t.blockMu.Unlock()
	return t.decodes
}

// Meta returns the trace's identity.
func (t *Trace) Meta() Meta { return t.meta }

// Open reads and structurally validates the trace file at path. The whole
// file is held in memory (compressed — a full-budget trace is a few MiB);
// blocks are decompressed on demand.
func Open(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	t, err := New(data)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return t, nil
}

// New parses a trace from its file image. The slice is retained; the caller
// must not modify it afterwards.
func New(data []byte) (*Trace, error) {
	r := &byteReader{buf: data}
	if !bytes.HasPrefix(data, magicHead) {
		return nil, fmt.Errorf("not an .elt trace (bad magic)")
	}
	r.pos = len(magicHead)

	t := &Trace{data: data}
	m := &t.meta
	var err error
	if m.FormatVersion, err = r.uvarintInt("format version"); err != nil {
		return nil, err
	}
	if m.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("format version %d, this build speaks %d", m.FormatVersion, FormatVersion)
	}
	if m.StateVersion, err = r.uvarintInt("state version"); err != nil {
		return nil, err
	}
	nameLen, err := r.uvarintInt("name length")
	if err != nil {
		return nil, err
	}
	if nameLen <= 0 || nameLen > maxNameLen {
		return nil, fmt.Errorf("benchmark name length %d out of range", nameLen)
	}
	name, err := r.take(nameLen, "name")
	if err != nil {
		return nil, err
	}
	m.Bench = string(name)
	sb, err := r.take(1, "suite")
	if err != nil {
		return nil, err
	}
	if sb[0] > 1 {
		return nil, fmt.Errorf("unknown suite byte %d", sb[0])
	}
	m.Suite = workload.Suite(sb[0])
	if m.Seed, err = r.uvarint("seed"); err != nil {
		return nil, err
	}
	if m.WPInit, err = r.uvarint("wrong-path init"); err != nil {
		return nil, err
	}
	if m.BlockRecords, err = r.uvarintInt("block records"); err != nil {
		return nil, err
	}
	if m.BlockRecords < 1 || m.BlockRecords > 1<<20 {
		return nil, fmt.Errorf("records-per-block %d out of range", m.BlockRecords)
	}

	// Block index: walk headers, skip payloads.
	var start uint64
	for {
		rawLen, err := r.uvarintInt("block raw length")
		if err != nil {
			return nil, err
		}
		if rawLen == 0 {
			break // terminator
		}
		count, err := r.uvarintInt("block record count")
		if err != nil {
			return nil, err
		}
		if count < 1 || count > m.BlockRecords {
			return nil, fmt.Errorf("block %d holds %d records, want 1..%d", len(t.blocks), count, m.BlockRecords)
		}
		if rawLen > count*maxRecordBytes {
			return nil, fmt.Errorf("block %d raw length %d exceeds %d records", len(t.blocks), rawLen, count)
		}
		dig, err := r.take(8, "block digest")
		if err != nil {
			return nil, err
		}
		compLen, err := r.uvarintInt("block compressed length")
		if err != nil {
			return nil, err
		}
		if compLen < 1 || compLen > rawLen+1024 {
			return nil, fmt.Errorf("block %d compressed length %d implausible for raw %d", len(t.blocks), compLen, rawLen)
		}
		b := blockInfo{off: r.pos, compLen: compLen, rawLen: rawLen, count: count, start: start}
		copy(b.digest[:], dig)
		if _, err := r.take(compLen, "block payload"); err != nil {
			return nil, err
		}
		t.blocks = append(t.blocks, b)
		t.maxCount = max(t.maxCount, count)
		t.maxRaw = max(t.maxRaw, rawLen)
		start += uint64(count)
	}
	for i, b := range t.blocks[:max(len(t.blocks)-1, 0)] {
		if b.count != m.BlockRecords {
			return nil, fmt.Errorf("interior block %d holds %d records, want exactly %d", i, b.count, m.BlockRecords)
		}
	}

	// Trailer.
	tr, err := r.take(trailerLen, "trailer")
	if err != nil {
		return nil, err
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("%d trailing bytes after trailer", len(data)-r.pos)
	}
	if !bytes.Equal(tr[:4], magicTail) || !bytes.Equal(tr[trailerLen-4:], magicEnd) {
		return nil, fmt.Errorf("bad trailer magic")
	}
	m.Records = binary.LittleEndian.Uint64(tr[4:12])
	if m.Records != start {
		return nil, fmt.Errorf("trailer claims %d records, blocks hold %d", m.Records, start)
	}
	m.Digest = hex.EncodeToString(tr[12 : 12+16])
	return t, nil
}

// blockFor returns the index of the block containing record index pos.
func (t *Trace) blockFor(pos uint64) int {
	return int(pos / uint64(t.meta.BlockRecords))
}

// blockDecoder decompresses and decodes blocks through state it keeps
// from one block to the next: a reader over the compressed payload, one
// flate reader reset onto it, a raw buffer sized for the trace's largest
// block and the one-byte end-of-stream probe. It is not safe for
// concurrent use: Verify owns one, and the Trace another under blockMu.
type blockDecoder struct {
	br    bytes.Reader
	fr    io.ReadCloser // flate reader over br, built on first use
	raw   []byte
	probe [1]byte
}

// decode decompresses and decodes block i of t, verifying its raw-payload
// digest, and returns its records (sequence numbers stamped), written over
// dst's backing array when it has the capacity. A failed decode leaves the
// decoder ready for the next block.
func (d *blockDecoder) decode(t *Trace, i int, dst []isa.Inst) ([]isa.Inst, error) {
	b := t.blocks[i]
	d.br.Reset(t.data[b.off : b.off+b.compLen])
	if d.fr == nil {
		d.fr = flate.NewReader(&d.br)
		d.raw = make([]byte, t.maxRaw)
	} else if err := d.fr.(flate.Resetter).Reset(&d.br, nil); err != nil {
		return nil, fmt.Errorf("trace: block %d: %w", i, err)
	}
	raw := d.raw[:b.rawLen]
	if _, err := io.ReadFull(d.fr, raw); err != nil {
		return nil, fmt.Errorf("trace: block %d: %w", i, err)
	}
	// A well-formed stream ends exactly at rawLen.
	if n, _ := d.fr.Read(d.probe[:]); n != 0 {
		return nil, fmt.Errorf("trace: block %d decompresses past its raw length", i)
	}
	sum := sha256.Sum256(raw)
	if !bytes.Equal(sum[:8], b.digest[:]) {
		return nil, fmt.Errorf("trace: block %d payload digest mismatch (corrupt file?)", i)
	}
	recs := slices.Grow(dst[:0], b.count)[:b.count]
	var prevAddr uint64
	buf := raw
	var err error
	for j := range recs {
		in := &recs[j]
		if buf, prevAddr, err = decodeRecord(buf, in, prevAddr); err != nil {
			return nil, fmt.Errorf("trace: block %d record %d: %w", i, j, err)
		}
		in.Seq, in.WrongPath = b.start+uint64(j), false
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("trace: block %d has %d bytes after its last record", i, len(buf))
	}
	return recs, nil
}

// Verify fully decodes the trace and checks every per-block digest plus the
// trailer's content digest. The verdict is computed once and kept; Source
// and WarmSource construction reach it, so a corrupt trace fails before
// simulation rather than mid-run.
func (t *Trace) Verify() error {
	t.verifyOnce.Do(func() { t.verifyErr = t.verify(nil) })
	return t.verifyErr
}

// verify is Verify's uncached body. It folds the content digest a block at
// a time: each block's canonical forms reach sha256 in one Write. feed, when
// non-nil, is handed each block's records in order, after the block has
// decoded and passed its payload digest; the slice is reused for the next
// block.
func (t *Trace) verify(feed func(recs []isa.Inst)) error {
	h := sha256.New()
	foldHeader(h, &t.meta)
	var d blockDecoder
	recs := make([]isa.Inst, 0, t.maxCount)
	canon := make([]byte, 0, t.maxCount*canonicalLen)
	for i := range t.blocks {
		var err error
		if recs, err = d.decode(t, i, recs); err != nil {
			return err
		}
		if feed != nil {
			feed(recs)
		}
		canon = canon[:0]
		for j := range recs {
			canon = appendCanonical(canon, &recs[j])
		}
		h.Write(canon)
	}
	if got := hex.EncodeToString(h.Sum(nil)[:16]); got != t.meta.Digest {
		return fmt.Errorf("trace: content digest %s, trailer claims %s", got, t.meta.Digest)
	}
	return nil
}

// foldHeader feeds the trace's identity into the content digest. The block
// granularity is deliberately excluded: two traces of the same stream with
// different block sizes digest identically.
func foldHeader(h hash.Hash, m *Meta) {
	fmt.Fprintf(h, "elt%d|ws%d|%s|%d|%d|%d|", FormatVersion, m.StateVersion, m.Bench, m.Suite, m.Seed, m.WPInit)
}

// byteReader is a bounds-checked cursor over the file image.
type byteReader struct {
	buf []byte
	pos int
}

// uvarint reads one varint, naming the field in errors.
func (r *byteReader) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated %s", field)
	}
	r.pos += n
	return v, nil
}

// uvarintInt reads one varint that must fit an int.
func (r *byteReader) uvarintInt(field string) (int, error) {
	v, err := r.uvarint(field)
	if err != nil {
		return 0, err
	}
	if v > 1<<31 {
		return 0, fmt.Errorf("%s %d out of range", field, v)
	}
	return int(v), nil
}

// take returns the next n bytes, naming the field in errors.
func (r *byteReader) take(n int, field string) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) {
		return nil, fmt.Errorf("truncated %s", field)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// cached memoises Open per path, validated by file size and modification
// time, so sweeps whose jobs share one trace parse and verify it once per
// process instead of once per job.
var cache sync.Map // path -> *cacheEntry

// cacheEntry pins the file identity an entry was parsed from.
type cacheEntry struct {
	size    int64
	modTime int64
	t       *Trace
}

// Cached returns the trace at path, served from the process-wide cache when
// the file is unchanged since it was first opened.
func Cached(path string) (*Trace, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if e, ok := cache.Load(path); ok {
		ce := e.(*cacheEntry)
		if ce.size == info.Size() && ce.modTime == info.ModTime().UnixNano() {
			return ce.t, nil
		}
	}
	t, err := Open(path)
	if err != nil {
		return nil, err
	}
	cache.Store(path, &cacheEntry{size: info.Size(), modTime: info.ModTime().UnixNano(), t: t})
	return t, nil
}

package trace

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"

	"repro/internal/isa"
	"repro/internal/workload"
)

// Recorder drains a workload source's committed-path instructions into a
// streaming .elt encoder (Record). Wrong-path instructions are not recorded
// — replay re-synthesises them bit-identically from the header's wrong-path
// seed.
//
// Encoding errors are sticky: Record and Close report the first failure —
// a recording is only valid if Close returns nil.
type Recorder struct {
	src workload.Snapshottable

	w            io.Writer
	blockRecords int
	raw          []byte // current block's encoded payload
	canon        []byte // current block's canonical forms, for the digest
	blockCount   int    // records in the current block
	prevAddr     uint64 // address-delta base (reset per block)
	count        uint64 // records written overall
	digest       hash.Hash
	fw           *flate.Writer
	comp         bytes.Buffer
	err          error
	closed       bool
}

// NewRecorder starts a recording of src onto w. The source must be fresh
// (no instructions consumed yet): the header captures the source identity
// and initial wrong-path state, which is only well-defined at position
// zero. The caller must Close the recorder to flush the final block and
// trailer.
func NewRecorder(w io.Writer, src workload.Snapshottable) (*Recorder, error) {
	return newRecorder(w, src, DefaultBlockRecords)
}

// newRecorder is NewRecorder with an explicit block granularity (tests
// exercise multi-block files without multi-thousand-instruction streams).
func newRecorder(w io.Writer, src workload.Snapshottable, blockRecords int) (*Recorder, error) {
	if blockRecords < 1 {
		return nil, fmt.Errorf("trace: records-per-block %d out of range", blockRecords)
	}
	st := src.Snapshot()
	if st.Consumed != 0 {
		return nil, fmt.Errorf("trace: recording must start from a fresh source (%s has consumed %d instructions)",
			src.Name(), st.Consumed)
	}
	r := &Recorder{
		src:          src,
		w:            w,
		blockRecords: blockRecords,
		digest:       sha256.New(),
	}
	m := Meta{
		FormatVersion: FormatVersion,
		StateVersion:  st.Version,
		Bench:         src.Name(),
		Suite:         src.Suite(),
		Seed:          st.Seed,
		WPInit:        st.WpRNG,
		BlockRecords:  blockRecords,
	}
	foldHeader(r.digest, &m)
	if err := r.writeHeader(&m); err != nil {
		return nil, err
	}
	return r, nil
}

// writeHeader emits the magic and header fields.
func (r *Recorder) writeHeader(m *Meta) error {
	var buf []byte
	buf = append(buf, magicHead...)
	buf = binary.AppendUvarint(buf, uint64(m.FormatVersion))
	buf = binary.AppendUvarint(buf, uint64(m.StateVersion))
	buf = binary.AppendUvarint(buf, uint64(len(m.Bench)))
	buf = append(buf, m.Bench...)
	buf = append(buf, byte(m.Suite))
	buf = binary.AppendUvarint(buf, m.Seed)
	buf = binary.AppendUvarint(buf, m.WPInit)
	buf = binary.AppendUvarint(buf, uint64(m.BlockRecords))
	_, err := r.w.Write(buf)
	return err
}

// Record drains the source's next n committed-path instructions into the
// recording.
func (r *Recorder) Record(n uint64) error {
	var in isa.Inst
	for i := uint64(0); i < n; i++ {
		r.src.Next(&in)
		r.record(&in)
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// record encodes one delivered instruction.
func (r *Recorder) record(in *isa.Inst) {
	if r.err != nil {
		return
	}
	if r.closed {
		r.err = fmt.Errorf("trace: record after Close")
		return
	}
	if in.Seq != r.count {
		// The committed path is the program order; a gap means the wrapped
		// source and the recording have diverged.
		r.err = fmt.Errorf("trace: source delivered seq %d as record %d", in.Seq, r.count)
		return
	}
	r.raw, r.prevAddr, r.err = appendRecord(r.raw, in, r.prevAddr)
	if r.err != nil {
		return
	}
	r.canon = appendCanonical(r.canon, in)
	r.count++
	r.blockCount++
	if r.blockCount == r.blockRecords {
		r.err = r.flushBlock()
	}
}

// flushBlock folds the current block into the content digest, then
// compresses and writes it.
func (r *Recorder) flushBlock() error {
	if r.blockCount == 0 {
		return nil
	}
	r.digest.Write(r.canon)
	r.canon = r.canon[:0]
	r.comp.Reset()
	if r.fw == nil {
		fw, err := flate.NewWriter(&r.comp, flate.DefaultCompression)
		if err != nil {
			return err
		}
		r.fw = fw
	} else {
		r.fw.Reset(&r.comp)
	}
	if _, err := r.fw.Write(r.raw); err != nil {
		return err
	}
	if err := r.fw.Close(); err != nil {
		return err
	}
	sum := sha256.Sum256(r.raw)
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(len(r.raw)))
	hdr = binary.AppendUvarint(hdr, uint64(r.blockCount))
	hdr = append(hdr, sum[:8]...)
	hdr = binary.AppendUvarint(hdr, uint64(r.comp.Len()))
	if _, err := r.w.Write(hdr); err != nil {
		return err
	}
	if _, err := r.w.Write(r.comp.Bytes()); err != nil {
		return err
	}
	r.raw = r.raw[:0]
	r.blockCount = 0
	r.prevAddr = 0
	return nil
}

// Count returns the number of instructions recorded so far.
func (r *Recorder) Count() uint64 { return r.count }

// Close flushes the final block, terminator and trailer, and returns the
// first error of the whole recording. The wrapped source remains usable.
func (r *Recorder) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	if r.err != nil {
		return r.err
	}
	if r.err = r.flushBlock(); r.err != nil {
		return r.err
	}
	var buf []byte
	buf = append(buf, 0) // terminator: zero raw length
	buf = append(buf, magicTail...)
	buf = binary.LittleEndian.AppendUint64(buf, r.count)
	buf = append(buf, r.digest.Sum(nil)[:16]...)
	buf = append(buf, magicEnd...)
	_, r.err = r.w.Write(buf)
	return r.err
}

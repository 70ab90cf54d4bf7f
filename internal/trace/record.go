package trace

// Per-record wire codec. A committed-path instruction is encoded as:
//
//	flags byte:  bits 0-2 op class, bit 3 taken, bit 4 mispred,
//	             bits 5-6 log2(access size) for memory ops, bit 7 reserved
//	3 bytes:     dst+1, src1+1, src2+1  (register numbers, 0..64; 0 encodes
//	             NoReg). Each is the one-byte uvarint of its value, so a
//	             byte with bit 7 set is an overlong encoding and rejected.
//	zigzag varint (memory ops only): effective address delta from the
//	             previous memory record of the same block
//
// The address delta base resets to zero at every block boundary, so blocks
// decode independently. Sequence numbers are not stored: records are the
// committed program order, so a record's sequence number is its position.
// Wrong-path instructions are never recorded — replay re-synthesises them
// (see Source).

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// maxRecordBytes bounds one encoded record: 1 flags byte, 3 register bytes
// and a worst-case 10-byte address delta. Block-size sanity checks in the
// parser derive from it.
const maxRecordBytes = 1 + 3 + binary.MaxVarintLen64

// canonicalLen is the size of a record's canonical form (appendCanonical).
const canonicalLen = 17

// sizeLog2 maps an access size (1, 2, 4, 8) to its 2-bit exponent.
func sizeLog2(size uint8) (uint8, error) {
	switch size {
	case 1:
		return 0, nil
	case 2:
		return 1, nil
	case 4:
		return 2, nil
	case 8:
		return 3, nil
	}
	return 0, fmt.Errorf("trace: unencodable access size %d", size)
}

// zigzag maps a signed delta onto the unsigned varint space so small
// magnitudes of either sign encode short.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendRecord encodes in onto buf and returns the extended buffer plus the
// updated address-delta base.
func appendRecord(buf []byte, in *isa.Inst, prevAddr uint64) ([]byte, uint64, error) {
	if in.WrongPath {
		return buf, prevAddr, fmt.Errorf("trace: wrong-path instruction in committed stream (seq %d)", in.Seq)
	}
	if in.Op >= isa.OpClass(8) {
		return buf, prevAddr, fmt.Errorf("trace: unencodable op class %d", in.Op)
	}
	flags := uint8(in.Op)
	if in.Taken {
		flags |= 1 << 3
	}
	if in.Mispred {
		flags |= 1 << 4
	}
	if in.IsMem() {
		lg, err := sizeLog2(in.Size)
		if err != nil {
			return buf, prevAddr, err
		}
		flags |= lg << 5
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(in.Dst+1))
	buf = binary.AppendUvarint(buf, uint64(in.Src1+1))
	buf = binary.AppendUvarint(buf, uint64(in.Src2+1))
	if in.IsMem() {
		buf = binary.AppendUvarint(buf, zigzag(int64(in.Addr-prevAddr)))
		prevAddr = in.Addr
	}
	return buf, prevAddr, nil
}

// decodeRecord decodes one record from buf into out (Seq and WrongPath are
// left untouched; the caller owns positioning). It returns the remaining
// buffer and the updated address-delta base.
func decodeRecord(buf []byte, out *isa.Inst, prevAddr uint64) ([]byte, uint64, error) {
	if len(buf) < 4 {
		return nil, prevAddr, fmt.Errorf("trace: truncated record")
	}
	flags, dst, src1, src2 := buf[0], buf[1], buf[2], buf[3]
	if dst > isa.NumRegs || src1 > isa.NumRegs || src2 > isa.NumRegs {
		return nil, prevAddr, fmt.Errorf("trace: bad register field")
	}
	buf = buf[4:]
	out.Op = isa.OpClass(flags & 7)
	out.Taken = flags&(1<<3) != 0
	out.Mispred = flags&(1<<4) != 0
	out.Dst, out.Src1, out.Src2 = int16(dst)-1, int16(src1)-1, int16(src2)-1
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

// appendCanonical appends the record's canonical form, canonicalLen bytes,
// to dst. The content digest folds these forms a block at a time, in the
// Recorder and in Verify alike. The canonical form is independent of block
// size and wire encoding, so the digest identifies the instruction stream
// itself, not its storage layout.
func appendCanonical(dst []byte, in *isa.Inst) []byte {
	var flags uint8
	if in.Taken {
		flags |= 1
	}
	if in.Mispred {
		flags |= 2
	}
	dst = append(dst, uint8(in.Op), in.Size, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(in.Dst))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(in.Src1))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(in.Src2))
	return binary.LittleEndian.AppendUint64(dst, in.Addr)
}

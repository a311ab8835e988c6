package schema

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Row codec: the compact binary wire format used for records in flight
// through the STREAM broker. Layout per value:
//
//	1 byte kind | payload
//
// where payload is empty for null, 1 byte for bool, a zigzag varint for
// int/time, 8 fixed bytes for float, and uvarint-length-prefixed bytes
// for string. Rows are prefixed with a uvarint field count so readers can
// skip records whose schema they do not know.

// AppendRow encodes r onto buf and returns the extended slice.
func AppendRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		buf = append(buf, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindBool:
			b := byte(0)
			if v.num != 0 {
				b = 1
			}
			buf = append(buf, b)
		case KindInt, KindTime:
			buf = binary.AppendVarint(buf, int64(v.num))
		case KindFloat:
			buf = binary.LittleEndian.AppendUint64(buf, v.num)
		case KindString:
			buf = binary.AppendUvarint(buf, uint64(len(v.str)))
			buf = append(buf, v.str...)
		}
	}
	return buf
}

// EncodeRow encodes r into a fresh buffer of exactly its encoded size:
// the payload is the one allocation an encoded record keeps.
func EncodeRow(r Row) []byte { return AppendRow(make([]byte, 0, rowSize(r)), r) }

// rowSize is the number of bytes AppendRow writes for r.
func rowSize(r Row) int {
	n := uvarintLen(uint64(len(r))) + len(r) // field count, kind bytes
	for i := range r {
		switch v := &r[i]; v.kind {
		case KindBool:
			n++
		case KindInt, KindTime:
			n += uvarintLen(uint64(int64(v.num)<<1) ^ uint64(int64(v.num)>>63))
		case KindFloat:
			n += 8
		case KindString:
			n += uvarintLen(uint64(len(v.str))) + len(v.str)
		}
	}
	return n
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Interner deduplicates the strings a decode stream produces. ODA wire
// rows repeat a tiny dimension vocabulary (system, source, component,
// metric names) millions of times, and decoding every occurrence to a
// fresh string is pure allocator churn; an Interner hands back one
// canonical string per distinct byte sequence, and the map probe keyed
// by string(b) compiles to a zero-allocation lookup, so a steady-state
// decode stream stops allocating strings entirely. Not safe for
// concurrent use; give each decoding goroutine its own.
type Interner struct {
	strings map[string]string
}

// internerCap bounds resident entries so an adversarial or high-
// cardinality stream cannot grow the table without limit; on overflow
// the table is dropped and rebuilt from the live vocabulary.
const internerCap = 1 << 16

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{strings: make(map[string]string)}
}

// Bytes returns the canonical string for b.
func (in *Interner) Bytes(b []byte) string {
	if s, ok := in.strings[string(b)]; ok {
		return s
	}
	if len(in.strings) >= internerCap {
		in.strings = make(map[string]string)
	}
	s := string(b)
	in.strings[s] = s
	return s
}

// DecodeRow decodes one row from buf, returning the row and the number of
// bytes consumed.
func DecodeRow(buf []byte) (Row, int, error) {
	return DecodeRowTo(nil, buf, nil)
}

// DecodeRowTo decodes one row from buf into dst (grown as needed and
// returned re-sliced, so a caller looping over records can reuse one
// backing array), interning string payloads through in when non-nil.
// This is the broker-drain hot path: with a reused dst and an interner
// a steady-state stream decodes with no per-record allocations at all.
func DecodeRowTo(dst Row, buf []byte, in *Interner) (Row, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("schema: decode row: bad field count")
	}
	if n > uint64(len(buf)) { // each field needs >= 1 byte
		return nil, 0, fmt.Errorf("schema: decode row: field count %d exceeds buffer", n)
	}
	off := sz
	row := dst[:0]
	if cap(row) < int(n) {
		row = make(Row, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		if off >= len(buf) {
			return nil, 0, fmt.Errorf("schema: decode row: truncated at field %d", i)
		}
		kind := Kind(buf[off])
		off++
		switch kind {
		case KindNull:
			row = append(row, Null)
		case KindBool:
			if off >= len(buf) {
				return nil, 0, fmt.Errorf("schema: decode row: truncated bool")
			}
			row = append(row, Bool(buf[off] != 0))
			off++
		case KindInt, KindTime:
			v, sz := binary.Varint(buf[off:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("schema: decode row: bad varint")
			}
			off += sz
			if kind == KindInt {
				row = append(row, Int(v))
			} else {
				row = append(row, TimeNanos(v))
			}
		case KindFloat:
			if off+8 > len(buf) {
				return nil, 0, fmt.Errorf("schema: decode row: truncated float")
			}
			bits := binary.LittleEndian.Uint64(buf[off:])
			off += 8
			row = append(row, Float(math.Float64frombits(bits)))
		case KindString:
			l, sz := binary.Uvarint(buf[off:])
			if sz <= 0 || l > uint64(len(buf)) || uint64(off+sz)+l > uint64(len(buf)) {
				return nil, 0, fmt.Errorf("schema: decode row: truncated string")
			}
			off += sz
			if in != nil {
				row = append(row, Str(in.Bytes(buf[off:off+int(l)])))
			} else {
				row = append(row, Str(string(buf[off:off+int(l)])))
			}
			off += int(l)
		default:
			return nil, 0, fmt.Errorf("schema: decode row: unknown kind %d", kind)
		}
	}
	return row, off, nil
}

// Package columnar implements OCF, the odakit columnar file format: the
// role Apache Parquet plays in the paper's OCEAN tier — "a column-oriented
// compressed file format, ensuring significant data compression and
// minimal I/O footprint" for ever-appended Silver datasets.
//
// An OCF byte stream is:
//
//	magic "OCF1" | schema block | row-group block*
//
// and two OCF streams with equal schemas concatenate into a valid stream,
// which is what makes OCEAN objects appendable. Each row group stores one
// column chunk per field: per-column statistics (null count, min, max) for
// predicate pushdown, followed by an encoded, optionally flate-compressed
// payload. Integers and times are delta+zigzag-varint encoded; strings are
// dictionary-encoded when the dictionary pays for itself; floats are fixed
// 8-byte little-endian; bools and null masks are bitmaps.
package columnar

import (
	"encoding/binary"
	"fmt"
	"math"

	"odakit/internal/schema"
)

// bitmap helpers ------------------------------------------------------------

func bitmapBytes(n int) int { return (n + 7) / 8 }

func bitmapSet(b []byte, i int) { b[i/8] |= 1 << (i % 8) }

func bitmapGet(b []byte, i int) bool { return b[i/8]&(1<<(i%8)) != 0 }

// int block ------------------------------------------------------------------

// appendIntBlock encodes values as zigzag varint deltas.
func appendIntBlock(buf []byte, vals []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	prev := int64(0)
	for _, v := range vals {
		buf = binary.AppendVarint(buf, v-prev)
		prev = v
	}
	return buf
}

func decodeIntBlock(buf []byte) ([]int64, int, error) {
	n, sz := binary.Uvarint(buf)
	// Each value costs at least one varint byte, so a count past the
	// remaining buffer is corrupt — reject before trusting it as a cap.
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return nil, 0, fmt.Errorf("columnar: bad int block count")
	}
	off := sz
	vals := make([]int64, n)
	prev := int64(0)
	for i := range vals {
		d, sz := binary.Varint(buf[off:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("columnar: truncated int block at %d", i)
		}
		off += sz
		prev += d
		vals[i] = prev
	}
	return vals, off, nil
}

// float block ----------------------------------------------------------------

func appendFloatBlock(buf []byte, vals []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func decodeFloatBlock(buf []byte) ([]float64, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("columnar: bad float block count")
	}
	off := sz
	// Divide rather than multiply: 8*n overflows uint64 for hostile n.
	if n > uint64(len(buf)-off)/8 {
		return nil, 0, fmt.Errorf("columnar: truncated float block")
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return vals, off, nil
}

// string block ---------------------------------------------------------------

const (
	strPlain byte = 0
	strDict  byte = 1
)

// appendStringBlock dictionary-encodes when the distinct count is at most
// half the value count (the telemetry case: few metric names, many rows).
func appendStringBlock(buf []byte, vals []string) []byte {
	dict := make(map[string]int)
	order := make([]string, 0, 16)
	for _, v := range vals {
		if _, ok := dict[v]; !ok {
			dict[v] = len(order)
			order = append(order, v)
		}
	}
	if len(vals) >= 8 && len(order)*2 <= len(vals) {
		buf = append(buf, strDict)
		buf = binary.AppendUvarint(buf, uint64(len(order)))
		for _, s := range order {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		buf = binary.AppendUvarint(buf, uint64(len(vals)))
		for _, v := range vals {
			buf = binary.AppendUvarint(buf, uint64(dict[v]))
		}
		return buf
	}
	buf = append(buf, strPlain)
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, s := range vals {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

func decodeStringBlock(buf []byte) ([]string, int, error) {
	if len(buf) == 0 {
		return nil, 0, fmt.Errorf("columnar: empty string block")
	}
	mode := buf[0]
	off := 1
	readStr := func() (string, error) {
		l, sz := binary.Uvarint(buf[off:])
		// The standalone l check stops uint64(off+sz)+l wrapping around
		// for lengths near 2^64 and slicing with a negative int(l).
		if sz <= 0 || l > uint64(len(buf)) || uint64(off+sz)+l > uint64(len(buf)) {
			return "", fmt.Errorf("columnar: truncated string")
		}
		off += sz
		s := string(buf[off : off+int(l)])
		off += int(l)
		return s, nil
	}
	switch mode {
	case strDict:
		dn, sz := binary.Uvarint(buf[off:])
		if sz <= 0 || dn > uint64(len(buf)-off-sz) {
			return nil, 0, fmt.Errorf("columnar: bad dict size")
		}
		off += sz
		dict := make([]string, dn)
		for i := range dict {
			s, err := readStr()
			if err != nil {
				return nil, 0, err
			}
			dict[i] = s
		}
		n, sz := binary.Uvarint(buf[off:])
		if sz <= 0 || n > uint64(len(buf)-off-sz) {
			return nil, 0, fmt.Errorf("columnar: bad dict value count")
		}
		off += sz
		vals := make([]string, n)
		for i := range vals {
			idx, sz := binary.Uvarint(buf[off:])
			if sz <= 0 || idx >= dn {
				return nil, 0, fmt.Errorf("columnar: bad dict index")
			}
			off += sz
			vals[i] = dict[idx]
		}
		return vals, off, nil
	case strPlain:
		n, sz := binary.Uvarint(buf[off:])
		if sz <= 0 || n > uint64(len(buf)-off-sz) {
			return nil, 0, fmt.Errorf("columnar: bad string count")
		}
		off += sz
		vals := make([]string, n)
		for i := range vals {
			s, err := readStr()
			if err != nil {
				return nil, 0, err
			}
			vals[i] = s
		}
		return vals, off, nil
	default:
		return nil, 0, fmt.Errorf("columnar: unknown string encoding %d", mode)
	}
}

// column chunk ---------------------------------------------------------------

// encodeColumn serializes one column of a frame (nulls + typed payload).
func encodeColumn(col *schema.Column) []byte {
	n := col.Len()
	buf := make([]byte, 0, n*4+16)
	buf = append(buf, byte(col.Kind()))
	buf = binary.AppendUvarint(buf, uint64(n))
	mask := make([]byte, bitmapBytes(n))
	for i := 0; i < n; i++ {
		if col.IsNull(i) {
			bitmapSet(mask, i)
		}
	}
	buf = append(buf, mask...)
	switch col.Kind() {
	case schema.KindInt, schema.KindTime:
		buf = appendIntBlock(buf, col.Ints())
	case schema.KindBool:
		bm := make([]byte, bitmapBytes(n))
		for i, v := range col.Ints() {
			if v != 0 {
				bitmapSet(bm, i)
			}
		}
		buf = append(buf, bm...)
	case schema.KindFloat:
		buf = appendFloatBlock(buf, col.Floats())
	case schema.KindString:
		buf = appendStringBlock(buf, col.Strs())
	}
	return buf
}

// decodeColumn rebuilds a column from its serialized form. The column
// keeps no reference to buf.
func decodeColumn(buf []byte) (*schema.Column, int, error) {
	if len(buf) < 2 {
		return nil, 0, fmt.Errorf("columnar: short column chunk")
	}
	kind := schema.Kind(buf[0])
	off := 1
	n64, sz := binary.Uvarint(buf[off:])
	// The null mask alone needs n/8 bytes, so anything past 8*len(buf)
	// is corrupt; the bound also keeps int(n64) from going negative.
	if sz <= 0 || n64 > uint64(len(buf))*8 {
		return nil, 0, fmt.Errorf("columnar: bad column length")
	}
	off += sz
	n := int(n64)
	mb := bitmapBytes(n)
	if off+mb > len(buf) {
		return nil, 0, fmt.Errorf("columnar: truncated null mask")
	}
	mask := buf[off : off+mb]
	off += mb

	// The decoded block goes to the column as is: the schema constructor
	// adopts the slice and zeroes whatever payload sits under a null bit.
	nulls := make([]bool, n)
	for i, b := range mask {
		for j := i * 8; b != 0; j, b = j+1, b>>1 {
			// Set bits past n in the last mask byte are padding, not rows.
			if b&1 != 0 && j < n {
				nulls[j] = true
			}
		}
	}
	switch kind {
	case schema.KindInt, schema.KindTime:
		vals, consumed, err := decodeIntBlock(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		if len(vals) != n {
			return nil, 0, fmt.Errorf("columnar: int block has %d values, want %d", len(vals), n)
		}
		col, err := schema.IntColumn(kind, vals, nulls)
		return col, off + consumed, err
	case schema.KindBool:
		if off+mb > len(buf) {
			return nil, 0, fmt.Errorf("columnar: truncated bool bitmap")
		}
		bm := buf[off : off+mb]
		vals := make([]int64, n)
		for i := range vals {
			if bitmapGet(bm, i) {
				vals[i] = 1
			}
		}
		col, err := schema.IntColumn(kind, vals, nulls)
		return col, off + mb, err
	case schema.KindFloat:
		vals, consumed, err := decodeFloatBlock(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		if len(vals) != n {
			return nil, 0, fmt.Errorf("columnar: float block has %d values, want %d", len(vals), n)
		}
		col, err := schema.FloatColumn(vals, nulls)
		return col, off + consumed, err
	case schema.KindString:
		vals, consumed, err := decodeStringBlock(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		if len(vals) != n {
			return nil, 0, fmt.Errorf("columnar: string block has %d values, want %d", len(vals), n)
		}
		col, err := schema.StringColumn(vals, nulls)
		return col, off + consumed, err
	default:
		return nil, 0, fmt.Errorf("columnar: unknown column kind %d", kind)
	}
}

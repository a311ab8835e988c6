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
//
// A scan (FileReader.ScanInto) skips row groups by their statistics and
// blooms, then decodes each surviving group's predicate columns first and
// filters what they decoded; a group they leave no row in decodes nothing
// more. decodeColumn is the only reader of a chunk, and a scan inflates
// each chunk it needs at most once.
package columnar

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"odakit/internal/schema"
)

// bitmap helpers ------------------------------------------------------------

func bitmapBytes(n int) int { return (n + 7) / 8 }

func bitmapSet(b []byte, i int) { b[i/8] |= 1 << (i % 8) }

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

// decodeIntBlock appends the values of one zigzag-varint delta block to
// dst and returns the bytes it consumed. A delta that fits one byte — the
// telemetry case: stripes, seqs and counts climb by small steps — is
// decoded inline; any other goes through binary.Varint, so errors and
// consumed counts are exactly a binary.Varint loop's.
func decodeIntBlock(dst []int64, buf []byte) ([]int64, int, error) {
	n, sz := binary.Uvarint(buf)
	// Each value costs at least one varint byte, so a count past the
	// remaining buffer is corrupt — reject before trusting it as a cap.
	if sz <= 0 || n > uint64(len(buf)-sz) {
		return nil, 0, fmt.Errorf("columnar: bad int block count")
	}
	off := sz
	dst = slices.Grow(dst, int(n))
	vals := dst[len(dst) : len(dst)+int(n)]
	prev := int64(0)
	for i := range vals {
		if off < len(buf) && buf[off] < 0x80 {
			u := int64(buf[off])
			prev += u>>1 ^ -(u & 1)
			off++
		} else {
			d, sz := binary.Varint(buf[off:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("columnar: truncated int block at %d", i)
			}
			off += sz
			prev += d
		}
		vals[i] = prev
	}
	return dst[:len(dst)+int(n)], off, nil
}

// float block ----------------------------------------------------------------

func appendFloatBlock(buf []byte, vals []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// decodeFloatBlock appends the values of one float block to dst.
func decodeFloatBlock(dst []float64, buf []byte) ([]float64, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("columnar: bad float block count")
	}
	off := sz
	// Divide rather than multiply: 8*n overflows uint64 for hostile n.
	if n > uint64(len(buf)-off)/8 {
		return nil, 0, fmt.Errorf("columnar: truncated float block")
	}
	dst = slices.Grow(dst, int(n))
	for i := uint64(0); i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
		off += 8
	}
	return dst, off, nil
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

// decodeScratch is what decoding a string block reuses from one chunk to
// the next: the interner dictionary entries are drawn from, so a
// dictionary seen before costs no allocation, and the last block's
// dictionary and per-value ids, which predicates test entry by entry.
type decodeScratch struct {
	in   *schema.Interner // made on first use
	dict []string
	// ids holds, after a dictionary-mode block, each value's index into
	// dict; it is empty after a plain block or a chunk with a null.
	ids []uint32
	// accept is Predicate.filter's table over dict: whether each entry
	// satisfies the predicate.
	accept []bool
}

// decodeStringBlock appends the values of one string block to dst.
// Dictionary entries are interned through ds; plain values are copied.
func decodeStringBlock(dst []string, buf []byte, ds *decodeScratch) ([]string, int, error) {
	ds.ids = ds.ids[:0]
	if len(buf) == 0 {
		return nil, 0, fmt.Errorf("columnar: empty string block")
	}
	mode := buf[0]
	off := 1
	readStr := func() ([]byte, error) {
		l, sz := binary.Uvarint(buf[off:])
		// The standalone l check stops uint64(off+sz)+l wrapping around
		// for lengths near 2^64 and slicing with a negative int(l).
		if sz <= 0 || l > uint64(len(buf)) || uint64(off+sz)+l > uint64(len(buf)) {
			return nil, fmt.Errorf("columnar: truncated string")
		}
		off += sz
		b := buf[off : off+int(l)]
		off += int(l)
		return b, nil
	}
	switch mode {
	case strDict:
		dn, sz := binary.Uvarint(buf[off:])
		if sz <= 0 || dn > uint64(len(buf)-off-sz) {
			return nil, 0, fmt.Errorf("columnar: bad dict size")
		}
		off += sz
		if ds.in == nil {
			ds.in = schema.NewInterner()
		}
		dict := ds.dict[:0]
		for i := uint64(0); i < dn; i++ {
			b, err := readStr()
			if err != nil {
				return nil, 0, err
			}
			dict = append(dict, ds.in.Bytes(b))
		}
		ds.dict = dict
		n, sz := binary.Uvarint(buf[off:])
		if sz <= 0 || n > uint64(len(buf)-off-sz) {
			return nil, 0, fmt.Errorf("columnar: bad dict value count")
		}
		off += sz
		dst = slices.Grow(dst, int(n))
		ids := slices.Grow(ds.ids, int(n))
		for i := uint64(0); i < n; i++ {
			idx, sz := binary.Uvarint(buf[off:])
			if sz <= 0 || idx >= dn {
				return nil, 0, fmt.Errorf("columnar: bad dict index")
			}
			off += sz
			dst = append(dst, dict[idx])
			ids = append(ids, uint32(idx))
		}
		ds.ids = ids
		return dst, off, nil
	case strPlain:
		n, sz := binary.Uvarint(buf[off:])
		if sz <= 0 || n > uint64(len(buf)-off-sz) {
			return nil, 0, fmt.Errorf("columnar: bad string count")
		}
		off += sz
		dst = slices.Grow(dst, int(n))
		for i := uint64(0); i < n; i++ {
			b, err := readStr()
			if err != nil {
				return nil, 0, err
			}
			dst = append(dst, string(b))
		}
		return dst, off, nil
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

// decodeColumn decodes one serialized column chunk of want rows and
// kind v.Kind, appending its payload to v's slice of that kind and its
// null mask to v.Nulls. Payload under a null reads zero, as a column
// built by Append holds it. v keeps no reference to buf.
func decodeColumn(buf []byte, want int, v *Vector, ds *decodeScratch) error {
	if len(buf) < 2 {
		return fmt.Errorf("columnar: short column chunk")
	}
	if kind := schema.Kind(buf[0]); kind != v.Kind {
		return fmt.Errorf("columnar: chunk is %v, schema says %v", kind, v.Kind)
	}
	off := 1
	n64, sz := binary.Uvarint(buf[off:])
	// The null mask alone needs n/8 bytes, so anything past 8*len(buf)
	// is corrupt; the bound also keeps int(n64) from going negative.
	if sz <= 0 || n64 > uint64(len(buf))*8 {
		return fmt.Errorf("columnar: bad column length")
	}
	if n64 != uint64(want) {
		return fmt.Errorf("columnar: chunk has %d rows, group has %d", n64, want)
	}
	off += sz
	n := int(n64)
	mb := bitmapBytes(n)
	if off+mb > len(buf) {
		return fmt.Errorf("columnar: truncated null mask")
	}
	mask := buf[off : off+mb]
	off += mb

	base := len(v.Nulls)
	v.Nulls = slices.Grow(v.Nulls, n)[:base+n]
	nulls := v.Nulls[base:]
	clear(nulls)
	hasNull := false
	for i, b := range mask {
		for j := i * 8; b != 0; j, b = j+1, b>>1 {
			// Set bits past n in the last mask byte are padding, not rows.
			if b&1 != 0 && j < n {
				nulls[j] = true
				hasNull = true
			}
		}
	}
	var got int
	switch v.Kind {
	case schema.KindInt, schema.KindTime:
		vals, _, err := decodeIntBlock(v.Ints, buf[off:])
		if err != nil {
			return err
		}
		v.Ints, got = vals, len(vals)-base
	case schema.KindBool:
		if off+mb > len(buf) {
			return fmt.Errorf("columnar: truncated bool bitmap")
		}
		bm := buf[off : off+mb]
		for i := 0; i < n; i++ {
			v.Ints = append(v.Ints, int64(bm[i/8]>>(i%8)&1))
		}
		got = n
	case schema.KindFloat:
		vals, _, err := decodeFloatBlock(v.Floats, buf[off:])
		if err != nil {
			return err
		}
		v.Floats, got = vals, len(vals)-base
	case schema.KindString:
		vals, _, err := decodeStringBlock(v.Strs, buf[off:], ds)
		if err != nil {
			return err
		}
		v.Strs, got = vals, len(vals)-base
	default:
		return fmt.Errorf("columnar: unknown column kind %d", v.Kind)
	}
	if got != n {
		return fmt.Errorf("columnar: %v block has %d values, want %d", v.Kind, got, n)
	}
	if hasNull {
		v.zeroNulls(base)
		// A null reads "" whatever entry it was written under: its row no
		// longer holds its entry's value.
		ds.ids = ds.ids[:0]
	}
	return nil
}

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
// predicate pushdown, then the chunk in one of three forms, the smallest
// the writer found, marked by its codec byte:
//
//   - plain: a null mask, then integers and times as delta+zigzag varints,
//     strings dictionary-encoded when the dictionary pays for itself,
//     floats as fixed 8-byte little-endian, bools as a bitmap;
//   - flate: the plain form deflated (only when the writer is asked for
//     flate);
//   - light, stored uncompressed: the null mask only when the chunk has a
//     null; integers and times as runs of equal deltas; strings as runs of
//     dictionary ids; floats split into their top 16 bits, bit-packed ids
//     into a table of at most 256 per chunk, and their low 48 bits raw
//     (ALP_rd's split); bools as a bitmap.
//
// A scan (FileReader.ScanInto) skips row groups by their statistics and
// blooms, then decodes each surviving group's predicate columns first and
// filters what they decoded; a group they leave no row in decodes nothing
// more. decodeColumn is the only reader of a chunk, and a scan inflates
// each flate chunk it needs at most once.
package columnar

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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

// appendIntRuns encodes values as runs of equal deltas, each a (zigzag
// delta, run length) varint pair; the value count is the chunk's.
func appendIntRuns(buf []byte, vals []int64) []byte {
	prev := int64(0)
	for i := 0; i < len(vals); {
		d := vals[i] - prev
		j := i + 1
		for j < len(vals) && vals[j]-vals[j-1] == d {
			j++
		}
		buf = binary.AppendVarint(buf, d)
		buf = binary.AppendUvarint(buf, uint64(j-i))
		prev, i = vals[j-1], j
	}
	return buf
}

// decodeIntRuns appends the n values of one run block to dst. The runs
// must cover exactly n values, so dst grows by n and no more.
func decodeIntRuns(dst []int64, buf []byte, n int) ([]int64, error) {
	dst = slices.Grow(dst, n)
	vals := dst[len(dst) : len(dst)+n]
	off, prev := 0, int64(0)
	for i := 0; i < n; {
		d, sz := binary.Varint(buf[off:])
		if sz <= 0 {
			return nil, fmt.Errorf("columnar: truncated int run at %d", i)
		}
		off += sz
		r, sz := binary.Uvarint(buf[off:])
		if sz <= 0 || r == 0 || r > uint64(n-i) {
			return nil, fmt.Errorf("columnar: bad int run length at %d", i)
		}
		off += sz
		for k := range vals[i : i+int(r)] {
			prev += d
			vals[i+k] = prev
		}
		i += int(r)
	}
	return dst[:len(dst)+n], nil
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

// A split float block stores each value's top 16 bits (sign, exponent and
// the leading mantissa bits, which telemetry shares across a chunk) as an
// id into a table of at most maxSplitTops entries, bit-packed at the
// fewest bits that number the table, and its low 48 bits raw:
//
//	uvarint entries | entries × uint16 | width byte | packed ids | n × 6 bytes
const (
	splitLowBits = 48
	maxSplitTops = 256
)

// topTable numbers a float chunk's distinct top-16-bit values by first
// appearance: an open-addressed table of maxSplitTops×2 slots, each 0 or
// top<<16 | id+1, reset per chunk.
type topTable struct {
	slots [2 * maxSplitTops]uint32
	tops  []uint16 // by id
	ids   []uint8  // by value
}

// number fills t.tops and t.ids for vals; false when they hold more than
// maxSplitTops distinct tops.
func (t *topTable) number(vals []float64) bool {
	clear(t.slots[:])
	t.tops, t.ids = t.tops[:0], slices.Grow(t.ids[:0], len(vals))
	for _, v := range vals {
		top := uint16(math.Float64bits(v) >> splitLowBits)
		h := uint32(top) * 0x9E37 >> 7 % uint32(len(t.slots))
		for {
			s := t.slots[h]
			if s == 0 {
				if len(t.tops) == maxSplitTops {
					return false
				}
				t.tops = append(t.tops, top)
				s = uint32(top)<<16 | uint32(len(t.tops))
				t.slots[h] = s
			}
			if uint16(s>>16) == top {
				t.ids = append(t.ids, uint8(s&0xffff-1))
				break
			}
			h = (h + 1) % uint32(len(t.slots))
		}
	}
	return true
}

// splitWidth is the id width of a table of n entries.
func splitWidth(n int) int { return bits.Len(uint(n - 1)) }

// appendFloatSplit encodes vals as a split block from t, which number
// filled for them.
func appendFloatSplit(buf []byte, vals []float64, t *topTable) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.tops)))
	for _, top := range t.tops {
		buf = binary.LittleEndian.AppendUint16(buf, top)
	}
	w := splitWidth(len(t.tops))
	buf = append(buf, byte(w))
	var acc uint32
	n := 0
	for _, id := range t.ids {
		acc |= uint32(id) << n
		if n += w; n >= 8 {
			buf = append(buf, byte(acc))
			acc >>= 8
			n -= 8
		}
	}
	if n > 0 {
		buf = append(buf, byte(acc))
	}
	for _, v := range vals {
		lo := math.Float64bits(v)
		buf = append(buf, byte(lo), byte(lo>>8), byte(lo>>16), byte(lo>>24), byte(lo>>32), byte(lo>>40))
	}
	return buf
}

// decodeFloatSplit appends the n values of one split block to dst.
func decodeFloatSplit(dst []float64, buf []byte, n int) ([]float64, error) {
	t, sz := binary.Uvarint(buf)
	if sz <= 0 || t == 0 || t > maxSplitTops {
		return nil, fmt.Errorf("columnar: bad float table size")
	}
	off := sz
	if len(buf)-off < 2*int(t)+1 {
		return nil, fmt.Errorf("columnar: truncated float table")
	}
	var tops [maxSplitTops]uint64
	for k := range int(t) {
		tops[k] = uint64(binary.LittleEndian.Uint16(buf[off:])) << splitLowBits
		off += 2
	}
	w := int(buf[off])
	off++
	if w != splitWidth(int(t)) {
		return nil, fmt.Errorf("columnar: %d-bit float ids for %d table entries", w, t)
	}
	// ParseIndex bounds n by 8 rows a stream byte, so n*w and 6*n fit.
	packed := (n*w + 7) / 8
	if packed > len(buf)-off || 6*n > len(buf)-off-packed {
		return nil, fmt.Errorf("columnar: truncated float split block")
	}
	ids := buf[off : off+packed]
	off += packed
	low := buf[off : off+6*n]
	dst = slices.Grow(dst, n)
	vals := dst[len(dst) : len(dst)+n]
	mask := uint(1)<<w - 1
	for i := range vals {
		var id uint
		if w > 0 {
			b := i * w
			x := uint(ids[b>>3])
			if b>>3+1 < len(ids) {
				x |= uint(ids[b>>3+1]) << 8
			}
			if id = x >> (b & 7) & mask; id >= uint(t) {
				return nil, fmt.Errorf("columnar: float id %d of %d table entries", id, t)
			}
		}
		l := low[6*i : 6*i+6]
		lo := uint64(binary.LittleEndian.Uint32(l)) | uint64(binary.LittleEndian.Uint16(l[4:]))<<32
		vals[i] = math.Float64frombits(tops[id] | lo)
	}
	return dst[:len(dst)+n], nil
}

// string block ---------------------------------------------------------------

const (
	strPlain byte = 0
	strDict  byte = 1
	// strRuns is the light form: a dictionary, then runs of entry ids as
	// (id, run length) varint pairs; the value count is the chunk's.
	strRuns byte = 2
)

// stringDict is a string chunk's dictionary, built once by the writer for
// the chunk's plain form, its light form and its bloom filter; its map
// and slices are reused from chunk to chunk.
type stringDict struct {
	index map[string]uint32
	order []string // the entries, by first appearance
	ids   []uint32 // each value's entry
	// nonNullEmpty reports a non-null "": the entry "" is otherwise only
	// what a null row holds.
	nonNullEmpty bool
}

// build numbers the values of col, a string column.
func (d *stringDict) build(col *schema.Column) {
	if d.index == nil {
		d.index = make(map[string]uint32)
	}
	clear(d.index)
	d.order, d.ids, d.nonNullEmpty = d.order[:0], slices.Grow(d.ids[:0], col.Len()), false
	for i, v := range col.Strs() {
		id, ok := d.index[v]
		if !ok {
			id = uint32(len(d.order))
			d.index[v] = id
			d.order = append(d.order, v)
		}
		d.ids = append(d.ids, id)
		if v == "" && !col.IsNull(i) {
			d.nonNullEmpty = true
		}
	}
}

// bloom is a filter over the distinct non-null values d numbered.
func (d *stringDict) bloom() *Bloom {
	_, empty := d.index[""]
	n := len(d.order)
	if empty && !d.nonNullEmpty {
		n--
	}
	bl := NewBloom(n)
	for _, s := range d.order {
		if s != "" || d.nonNullEmpty {
			bl.Insert(BloomHash(s))
		}
	}
	return bl
}

// appendStringBlock encodes the values d numbered. The light form is
// runs of entry ids; otherwise it dictionary-encodes when the distinct
// count is at most half the value count (the telemetry case: few metric
// names, many rows) and stores the values plain when not.
func appendStringBlock(buf []byte, d *stringDict, light bool) []byte {
	appendEntries := func(mode byte) {
		buf = append(buf, mode)
		buf = binary.AppendUvarint(buf, uint64(len(d.order)))
		for _, s := range d.order {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	switch {
	case light:
		appendEntries(strRuns)
		for i := 0; i < len(d.ids); {
			j := i + 1
			for j < len(d.ids) && d.ids[j] == d.ids[i] {
				j++
			}
			buf = binary.AppendUvarint(buf, uint64(d.ids[i]))
			buf = binary.AppendUvarint(buf, uint64(j-i))
			i = j
		}
	case len(d.ids) >= 8 && len(d.order)*2 <= len(d.ids):
		appendEntries(strDict)
		buf = binary.AppendUvarint(buf, uint64(len(d.ids)))
		for _, id := range d.ids {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	default:
		buf = append(buf, strPlain)
		buf = binary.AppendUvarint(buf, uint64(len(d.ids)))
		for _, id := range d.ids {
			s := d.order[id]
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
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
	// ids holds, after a dictionary- or runs-mode block, each value's
	// index into dict; it is empty after a plain block or a chunk with a
	// null.
	ids []uint32
	// accept is Predicate.filter's table over dict: whether each entry
	// satisfies the predicate.
	accept []bool
}

// decodeStringBlock appends the values of one string block of a chunk of
// rows values to dst. Dictionary entries are interned through ds; plain
// values are copied. A runs-mode block must cover exactly rows values.
func decodeStringBlock(dst []string, buf []byte, rows int, ds *decodeScratch) ([]string, int, error) {
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
	readDict := func() (uint64, error) {
		dn, sz := binary.Uvarint(buf[off:])
		if sz <= 0 || dn > uint64(len(buf)-off-sz) {
			return 0, fmt.Errorf("columnar: bad dict size")
		}
		off += sz
		if ds.in == nil {
			ds.in = schema.NewInterner()
		}
		dict := ds.dict[:0]
		for i := uint64(0); i < dn; i++ {
			b, err := readStr()
			if err != nil {
				return 0, err
			}
			dict = append(dict, ds.in.Bytes(b))
		}
		ds.dict = dict
		return dn, nil
	}
	switch mode {
	case strDict:
		dn, err := readDict()
		if err != nil {
			return nil, 0, err
		}
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
			dst = append(dst, ds.dict[idx])
			ids = append(ids, uint32(idx))
		}
		ds.ids = ids
		return dst, off, nil
	case strRuns:
		dn, err := readDict()
		if err != nil {
			return nil, 0, err
		}
		dst = slices.Grow(dst, rows)
		ids := slices.Grow(ds.ids, rows)
		for len(ids) < rows {
			idx, sz := binary.Uvarint(buf[off:])
			if sz <= 0 || idx >= dn {
				return nil, 0, fmt.Errorf("columnar: bad dict index")
			}
			off += sz
			r, sz := binary.Uvarint(buf[off:])
			if sz <= 0 || r == 0 || r > uint64(rows-len(ids)) {
				return nil, 0, fmt.Errorf("columnar: bad string run length")
			}
			off += sz
			s := ds.dict[idx]
			for k := uint64(0); k < r; k++ {
				dst = append(dst, s)
				ids = append(ids, uint32(idx))
			}
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

// chunkEncoder is the writer's per-chunk scratch: a column's two forms,
// and the dictionary and float table they are built from, reused from
// one chunk to the next.
type chunkEncoder struct {
	plain, light []byte
	dict         stringDict
	tops         topTable
	mask, bm     []byte
}

// encode serializes one column of a frame into e.plain, its plain form —
// null mask, then the typed payload — and e.light, its light form, or
// empty when a float chunk has too many distinct tops for one. A string
// column's dictionary stays in e.dict until the next call.
func (e *chunkEncoder) encode(col *schema.Column) {
	n := col.Len()
	e.mask = slices.Grow(e.mask[:0], bitmapBytes(n))[:bitmapBytes(n)]
	clear(e.mask)
	hasNull := false
	for i := 0; i < n; i++ {
		if col.IsNull(i) {
			bitmapSet(e.mask, i)
			hasNull = true
		}
	}
	head := func(buf []byte) []byte {
		// Room for four bytes a value, as the plain form always had.
		buf = append(slices.Grow(buf[:0], 4*n+16), byte(col.Kind()))
		return binary.AppendUvarint(buf, uint64(n))
	}
	plain := append(head(e.plain), e.mask...)
	light := head(e.light)
	if hasNull {
		light = append(append(light, 1), e.mask...)
	} else {
		light = append(light, 0)
	}
	switch col.Kind() {
	case schema.KindInt, schema.KindTime:
		plain = appendIntBlock(plain, col.Ints())
		light = appendIntRuns(light, col.Ints())
	case schema.KindBool:
		e.bm = slices.Grow(e.bm[:0], bitmapBytes(n))[:bitmapBytes(n)]
		clear(e.bm)
		for i, v := range col.Ints() {
			if v != 0 {
				bitmapSet(e.bm, i)
			}
		}
		plain = append(plain, e.bm...)
		light = append(light, e.bm...)
	case schema.KindFloat:
		plain = appendFloatBlock(plain, col.Floats())
		if e.tops.number(col.Floats()) {
			light = appendFloatSplit(light, col.Floats(), &e.tops)
		} else {
			light = light[:0]
		}
	case schema.KindString:
		e.dict.build(col)
		plain = appendStringBlock(plain, &e.dict, false)
		light = appendStringBlock(light, &e.dict, true)
	}
	e.plain, e.light = plain, light
}

// decodeColumn decodes one serialized column chunk of want rows and
// kind v.Kind, in its plain form or, when light, its light form,
// appending its payload to v's slice of that kind and its null mask to
// v.Nulls. Payload under a null reads zero, as a column built by Append
// holds it. v keeps no reference to buf.
func decodeColumn(buf []byte, want int, light bool, v *Vector, ds *decodeScratch) error {
	if len(buf) < 2 {
		return fmt.Errorf("columnar: short column chunk")
	}
	if kind := schema.Kind(buf[0]); kind != v.Kind {
		return fmt.Errorf("columnar: chunk is %v, schema says %v", kind, v.Kind)
	}
	off := 1
	n64, sz := binary.Uvarint(buf[off:])
	if sz <= 0 {
		return fmt.Errorf("columnar: bad column length")
	}
	// want is the group's row count, which ParseIndex bounds by the
	// stream's length: what a chunk decodes to is sized by it, not by
	// the chunk's own claim, so a light chunk of a few runs cannot ask for
	// more.
	if n64 != uint64(want) {
		return fmt.Errorf("columnar: chunk has %d rows, group has %d", n64, want)
	}
	off += sz
	n := int(n64)
	mb := bitmapBytes(n)
	hasMask := true
	if light {
		if off >= len(buf) || buf[off] > 1 {
			return fmt.Errorf("columnar: bad null flag")
		}
		hasMask = buf[off] == 1
		off++
	}
	var mask []byte
	if hasMask {
		if off+mb > len(buf) {
			return fmt.Errorf("columnar: truncated null mask")
		}
		mask = buf[off : off+mb]
		off += mb
	}

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
		var vals []int64
		var err error
		if light {
			vals, err = decodeIntRuns(v.Ints, buf[off:], n)
		} else {
			vals, _, err = decodeIntBlock(v.Ints, buf[off:])
		}
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
		var vals []float64
		var err error
		if light {
			vals, err = decodeFloatSplit(v.Floats, buf[off:], n)
		} else {
			vals, _, err = decodeFloatBlock(v.Floats, buf[off:])
		}
		if err != nil {
			return err
		}
		v.Floats, got = vals, len(vals)-base
	case schema.KindString:
		vals, _, err := decodeStringBlock(v.Strs, buf[off:], n, ds)
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

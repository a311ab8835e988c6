package columnar

import (
	"bytes"
	"cmp"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"odakit/internal/schema"
)

// ColStats are per-row-group per-column statistics used for predicate
// pushdown: a reader can skip a whole row group when the queried range
// cannot intersect [Min, Max].
type ColStats struct {
	Count     int
	NullCount int
	// Min and Max are null when the chunk holds no non-null values.
	Min schema.Value
	Max schema.Value
}

func computeStats(col *schema.Column) ColStats {
	switch col.Kind() {
	case schema.KindInt:
		return typedStats(col, col.Ints(), schema.Int)
	case schema.KindTime:
		return typedStats(col, col.Ints(), schema.TimeNanos)
	case schema.KindBool:
		return typedStats(col, col.Ints(), func(v int64) schema.Value { return schema.Bool(v != 0) })
	case schema.KindFloat:
		return typedStats(col, col.Floats(), schema.Float)
	case schema.KindString:
		return typedStats(col, col.Strs(), schema.Str)
	}
	return ColStats{Count: col.Len(), NullCount: col.Len()}
}

// typedStats folds a column's raw payload into its zone map without
// boxing each value. cmp.Less is Value.Compare's order within a kind,
// NaN before every number included.
func typedStats[T cmp.Ordered](col *schema.Column, vals []T, box func(T) schema.Value) ColStats {
	s := ColStats{Count: len(vals)}
	var lo, hi T
	for i, v := range vals {
		switch {
		case col.IsNull(i):
			s.NullCount++
		case s.NullCount == i: // first non-null value
			lo, hi = v, v
		default:
			if cmp.Less(v, lo) {
				lo = v
			}
			if cmp.Less(hi, v) {
				hi = v
			}
		}
	}
	if s.NullCount < len(vals) {
		s.Min, s.Max = box(lo), box(hi)
	}
	return s
}

func appendStats(buf []byte, s ColStats) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.Count))
	buf = binary.AppendUvarint(buf, uint64(s.NullCount))
	return schema.AppendRow(buf, schema.Row{s.Min, s.Max})
}

// decodeStats parses the statistics of one column of kind kind; row is
// scratch for the min/max pair and in interns their strings, both shared
// across a footer. A non-null min or max of another kind is corrupt: the
// zone-map checks compare within a kind.
func decodeStats(buf []byte, kind schema.Kind, row *schema.Row, in *schema.Interner) (ColStats, int, error) {
	var s ColStats
	c, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return s, 0, fmt.Errorf("columnar: bad stats count")
	}
	off := sz
	nc, sz := binary.Uvarint(buf[off:])
	if sz <= 0 {
		return s, 0, fmt.Errorf("columnar: bad stats null count")
	}
	off += sz
	r, n, err := schema.DecodeRowTo(*row, buf[off:], in)
	if err != nil {
		return s, 0, fmt.Errorf("columnar: bad stats min/max: %w", err)
	}
	if len(r) != 2 {
		return s, 0, fmt.Errorf("columnar: bad stats min/max: %d values, want 2", len(r))
	}
	for _, v := range r {
		if !v.IsNull() && v.Kind() != kind {
			return s, 0, fmt.Errorf("columnar: %v zone map on a %v column", v.Kind(), kind)
		}
	}
	*row = r
	off += n
	s.Count, s.NullCount, s.Min, s.Max = int(c), int(nc), r[0], r[1]
	return s, off, nil
}

// RowGroup is one decoded-on-demand row group of an OCF stream.
type RowGroup struct {
	Rows  int
	Stats []ColStats // aligned with the schema fields
	// chunks locate the group's column chunks in the stream
	chunks []chunkRef
	// blooms are per-column split-block bloom filters from the group-ext
	// block, aligned with the schema; nil when the writer emitted none.
	blooms []Bloom
}

// chunkRef is where one column chunk sits in its stream: the payload is
// data[off:off+n], compressed with comp from rawLen bytes.
type chunkRef struct {
	comp   Compression
	rawLen int
	off, n int
}

// Index is the parsed, validated structure of an OCF stream: the schema
// and, per row group, the row count, zone maps, bloom filters and each
// chunk's codec, raw length and place. It holds no reference to the
// stream's bytes, so one parse serves every later read of them (Bind).
// Every group's statistics, chunks and blooms are cut from shared slabs.
type Index struct {
	sch    *schema.Schema
	groups []RowGroup
	stats  []ColStats
	chunks []chunkRef
	blooms []Bloom
	words  []uint32 // the bloom filters' words
	size   int      // the parsed stream's length
}

// FileReader provides random access over an in-memory OCF stream: its
// Index bound to its bytes, for per-group decode with predicate pushdown.
type FileReader struct {
	*Index
	data []byte
}

// NewFileReader parses the structure of an OCF stream without decoding
// column payloads and binds it to the stream. Concatenated streams with
// equal schemas are accepted.
func NewFileReader(data []byte) (*FileReader, error) {
	ix, err := ParseIndex(data)
	if err != nil {
		return nil, err
	}
	return ix.Bind(data)
}

// Bind joins the index to data, the bytes it was parsed from (or a copy of
// them); a stream of another length is refused.
func (ix *Index) Bind(data []byte) (*FileReader, error) {
	if len(data) != ix.size {
		return nil, fmt.Errorf("columnar: index of a %d-byte stream bound to %d bytes", ix.size, len(data))
	}
	return &FileReader{Index: ix, data: data}, nil
}

// ParseIndex parses and validates the structure of an OCF stream without
// decoding column payloads.
func ParseIndex(data []byte) (*Index, error) {
	ix := &Index{size: len(data)}
	var row schema.Row
	in := schema.NewInterner()
	off := 0
	for off < len(data) {
		if bytes.HasPrefix(data[off:], Magic) {
			off += len(Magic)
			sch, n, err := decodeSchema(data[off:])
			if err != nil {
				return nil, err
			}
			off += n
			if ix.sch == nil {
				ix.sch = sch
			} else if !ix.sch.Equal(sch) {
				return nil, fmt.Errorf("columnar: concatenated stream schema mismatch: %s vs %s", ix.sch, sch)
			}
			continue
		}
		if ix.sch == nil {
			return nil, fmt.Errorf("columnar: missing magic header")
		}
		if data[off] == markerGroupExt {
			n, err := ix.parseGroupExt(data[off+1:])
			if err != nil {
				return nil, err
			}
			off += 1 + n
			continue
		}
		if data[off] != markerRowGroup {
			return nil, fmt.Errorf("columnar: unknown block marker 0x%02x at offset %d", data[off], off)
		}
		off++
		rows, sz := binary.Uvarint(data[off:])
		// A row needs at least one null-mask bit per column; 8*len(data)
		// bounds any physically representable count and keeps int() positive.
		if sz <= 0 || rows > uint64(len(data))*8 {
			return nil, fmt.Errorf("columnar: bad row count")
		}
		off += sz
		ix.groups = append(ix.groups, RowGroup{Rows: int(rows)}) // settle cuts its stats and chunks
		ncols, sz := binary.Uvarint(data[off:])
		if sz <= 0 || int(ncols) != ix.sch.Len() {
			return nil, fmt.Errorf("columnar: row group has %d columns, schema has %d", ncols, ix.sch.Len())
		}
		off += sz
		for c := 0; c < int(ncols); c++ {
			st, n, err := decodeStats(data[off:], ix.sch.Field(c).Kind, &row, in)
			if err != nil {
				return nil, err
			}
			off += n
			ix.stats = append(ix.stats, st)
			if off >= len(data) {
				return nil, fmt.Errorf("columnar: truncated chunk header")
			}
			comp := Compression(data[off])
			if comp != CompressNone && comp != CompressFlate && comp != codecLight {
				return nil, fmt.Errorf("columnar: unknown chunk codec %d at offset %d", comp, off)
			}
			off++
			rawLen, sz := binary.Uvarint(data[off:])
			if sz <= 0 || rawLen > maxChunkRawLen {
				return nil, fmt.Errorf("columnar: bad raw length")
			}
			off += sz
			compLen, sz := binary.Uvarint(data[off:])
			// Check compLen before int(): a value past 2^63 converts to a
			// negative int and would slip through the bounds check below.
			if sz <= 0 || compLen > uint64(len(data)) || off+sz+int(compLen) > len(data) {
				return nil, fmt.Errorf("columnar: bad compressed length")
			}
			off += sz
			ix.chunks = append(ix.chunks, chunkRef{comp: comp, rawLen: int(rawLen), off: off, n: int(compLen)})
			off += int(compLen)
		}
	}
	if ix.sch == nil {
		return nil, fmt.Errorf("columnar: empty stream")
	}
	ix.settle()
	return ix, nil
}

// settle moves every slab into an array of exactly its length and cuts
// every group's statistics, chunks and blooms, and the blooms' words,
// from those, so neither the arrays appends outgrew while parsing nor
// their spare capacity stays resident: the index outlives the parse, and
// Bytes counts each slab once.
func (ix *Index) settle() {
	ix.groups, ix.stats, ix.chunks = exact(ix.groups), exact(ix.stats), exact(ix.chunks)
	ix.blooms, ix.words = exact(ix.blooms), exact(ix.words)
	w := 0
	for i := range ix.blooms {
		n := len(ix.blooms[i].words)
		ix.blooms[i].words = ix.words[w : w+n : w+n]
		w += n
	}
	ncols, b := ix.sch.Len(), 0
	for i := range ix.groups {
		g := &ix.groups[i]
		lo, hi := i*ncols, (i+1)*ncols
		g.Stats, g.chunks = ix.stats[lo:hi:hi], ix.chunks[lo:hi:hi]
		if g.blooms != nil {
			g.blooms = ix.blooms[b : b+ncols : b+ncols]
			b += ncols
		}
	}
}

// exact is a copy of s in an array of its length; nil when s is empty.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Bytes is the index's resident size: its slabs at capacity, plus the
// zone-map strings counted once per use (interning shares some).
func (ix *Index) Bytes() int {
	n := cap(ix.groups)*int(unsafe.Sizeof(RowGroup{})) + cap(ix.stats)*int(unsafe.Sizeof(ColStats{})) +
		cap(ix.chunks)*int(unsafe.Sizeof(chunkRef{})) + cap(ix.blooms)*int(unsafe.Sizeof(Bloom{})) +
		cap(ix.words)*4
	for i := range ix.stats {
		n += len(ix.stats[i].Min.StrVal()) + len(ix.stats[i].Max.StrVal())
	}
	return n
}

func decodeSchema(buf []byte) (*schema.Schema, int, error) {
	n, sz := binary.Uvarint(buf)
	// Each field costs at least two bytes (length varint + kind), so a
	// count past half the buffer is corrupt — and unsafe as an alloc cap.
	if sz <= 0 || n > uint64(len(buf))/2 {
		return nil, 0, fmt.Errorf("columnar: bad schema field count")
	}
	off := sz
	fields := make([]schema.Field, 0, n)
	seen := make(map[string]bool, n)
	for i := uint64(0); i < n; i++ {
		l, sz := binary.Uvarint(buf[off:])
		// The standalone l check stops uint64(off+sz)+l+1 wrapping around
		// for lengths near 2^64 and slicing with a negative int(l).
		if sz <= 0 || l > uint64(len(buf)) || uint64(off+sz)+l+1 > uint64(len(buf)) {
			return nil, 0, fmt.Errorf("columnar: truncated schema")
		}
		off += sz
		name := string(buf[off : off+int(l)])
		off += int(l)
		kind := schema.Kind(buf[off])
		off++
		// schema.New panics on these; a hostile stream must error instead.
		if name == "" {
			return nil, 0, fmt.Errorf("columnar: schema field %d has empty name", i)
		}
		if seen[name] {
			return nil, 0, fmt.Errorf("columnar: schema has duplicate field %q", name)
		}
		seen[name] = true
		fields = append(fields, schema.Field{Name: name, Kind: kind})
	}
	return schema.New(fields...), off, nil
}

// parseGroupExt parses a group-ext block body (bloom filters for the row
// group that precedes it) and returns the bytes consumed.
func (ix *Index) parseGroupExt(buf []byte) (int, error) {
	if len(ix.groups) == 0 {
		return 0, fmt.Errorf("columnar: group-ext block before any row group")
	}
	g := &ix.groups[len(ix.groups)-1]
	if g.blooms != nil {
		return 0, fmt.Errorf("columnar: duplicate group-ext block")
	}
	ncols, sz := binary.Uvarint(buf)
	if sz <= 0 || int(ncols) != ix.sch.Len() {
		return 0, fmt.Errorf("columnar: group-ext has %d columns, schema has %d", ncols, ix.sch.Len())
	}
	off := sz
	blooms := len(ix.blooms)
	for c := uint64(0); c < ncols; c++ {
		if off >= len(buf) {
			return 0, fmt.Errorf("columnar: truncated group-ext block")
		}
		flag := buf[off]
		off++
		var b Bloom
		switch flag {
		case extNone:
		case extBloom:
			words := len(ix.words)
			var n int
			var err error
			if ix.words, n, err = appendBloomWords(ix.words, buf[off:]); err != nil {
				return 0, err
			}
			off += n
			b.words = ix.words[words:] // settle re-cuts it
		default:
			return 0, fmt.Errorf("columnar: unknown group-ext flag 0x%02x", flag)
		}
		ix.blooms = append(ix.blooms, b)
	}
	g.blooms = ix.blooms[blooms:] // settle re-cuts it
	return off, nil
}

// Schema returns the stream's schema.
func (ix *Index) Schema() *schema.Schema { return ix.sch }

// NumRowGroups returns the number of row groups.
func (ix *Index) NumRowGroups() int { return len(ix.groups) }

// maxChunkRawLen caps a chunk's declared decompressed size (1 GiB). The
// declared length is attacker-controlled in a hostile stream; without a
// cap it becomes an arbitrary allocation in decodeChunk.
const maxChunkRawLen = 1 << 30

// chunkReader is the reusable state for reading column chunks: an
// inflater reset per chunk instead of built per chunk, and the scratch it
// inflates into and decodes with. Nothing decoded keeps a reference to
// the scratch. A scan keeps one per decoding goroutine in its Batch.
type chunkReader struct {
	src bytes.Reader
	zr  io.ReadCloser    // flate reader over &src, made on first use
	lim io.LimitedReader // the chunk's raw bytes, see open
	raw bytes.Buffer     // a whole inflated chunk
	ds  decodeScratch
}

// maxKeptScratch is the largest scratch buffer a chunkReader keeps past
// a chunk; one oversized chunk must not pin its buffer in a reused Batch.
const maxKeptScratch = 1 << 20

// open positions lim at the start of the chunk's raw bytes. lim ends one
// byte past the declared raw length: enough to tell a chunk that inflates
// past its declaration, and the stop for decompression bombs.
func (cr *chunkReader) open(ch chunkRef, payload []byte) {
	cr.src.Reset(payload)
	cr.lim.R = &cr.src
	if ch.comp == CompressFlate {
		if cr.zr == nil {
			cr.zr = flate.NewReader(&cr.src)
		} else {
			// Reset only fails on a bad dictionary; there is none.
			_ = cr.zr.(flate.Resetter).Reset(&cr.src, nil)
		}
		cr.lim.R = cr.zr
	}
	cr.lim.N = int64(ch.rawLen) + 1
}

// close drops the object's bytes and any oversized scratch.
func (cr *chunkReader) close() {
	cr.src.Reset(nil)
	if cr.raw.Cap() > maxKeptScratch {
		cr.raw = bytes.Buffer{}
	}
}

// decodeChunk inflates column chunk c of g if it is deflated and decodes
// it onto v, whose kind must be the schema's for c (see decodeColumn).
func (fr *FileReader) decodeChunk(g *RowGroup, c int, v *Vector, cr *chunkReader) error {
	ch := g.chunks[c]
	raw := fr.data[ch.off : ch.off+ch.n]
	if ch.comp == CompressFlate {
		cr.open(ch, raw)
		defer cr.close()
		cr.raw.Reset()
		// The declared raw length is only an allocation hint, capped so a
		// corrupt header cannot force a huge up-front make. MinRead spare
		// lets ReadFrom see EOF without regrowing an exactly-sized buffer.
		cr.raw.Grow(min(ch.rawLen, maxKeptScratch) + bytes.MinRead)
		n, err := cr.raw.ReadFrom(&cr.lim)
		if err != nil {
			return fmt.Errorf("columnar: inflate: %w", err)
		}
		if n > int64(ch.rawLen) {
			return fmt.Errorf("columnar: chunk inflates past declared %d bytes", ch.rawLen)
		}
		raw = cr.raw.Bytes()
	}
	if err := decodeColumn(raw, g.Rows, ch.comp == codecLight, v, &cr.ds); err != nil {
		return fmt.Errorf("columnar: column %d: %w", c, err)
	}
	return nil
}

// ReadGroup decodes row group i into a frame.
func (fr *FileReader) ReadGroup(i int) (*schema.Frame, error) {
	if i < 0 || i >= len(fr.groups) {
		return nil, fmt.Errorf("columnar: row group %d out of range", i)
	}
	g := &fr.groups[i]
	cols := make([]*schema.Column, len(g.chunks))
	var cr chunkReader
	for c := range g.chunks {
		v := Vector{Kind: fr.sch.Field(c).Kind}
		if err := fr.decodeChunk(g, c, &v, &cr); err != nil {
			return nil, err
		}
		col, err := v.column()
		if err != nil {
			return nil, err
		}
		cols[c] = col
	}
	return schema.FrameOfColumns(fr.sch, cols)
}

// Predicate restricts a scan to row groups whose statistics may match.
type Predicate struct {
	// Col is the column the range applies to.
	Col string
	// Min and Max bound the wanted values inclusively; a null bound is
	// unbounded on that side.
	Min schema.Value
	Max schema.Value
	// In, when non-empty, additionally requires the value to equal one of
	// the listed candidates. Equality is what the per-group bloom filters
	// accelerate — candidate sets that miss a group's filter skip the group
	// without inflating it — and, on a dictionary-encoded string chunk, a
	// candidate list is tested once per dictionary entry, not per row.
	In []schema.Value
}

// matches reports whether a row group may contain satisfying rows, using
// zone maps (column min/max) and, for equality candidates, bloom filters.
func (p Predicate) matches(sch *schema.Schema, g *RowGroup) bool {
	i, ok := sch.Index(p.Col)
	if !ok {
		return true // unknown column: cannot prune
	}
	st := g.Stats[i]
	if st.Min.IsNull() {
		// No non-null values: nothing can satisfy a bounded range or an
		// equality candidate list.
		return p.Min.IsNull() && p.Max.IsNull() && len(p.In) == 0
	}
	if !p.Min.IsNull() && st.Max.Compare(p.Min) < 0 {
		return false
	}
	if !p.Max.IsNull() && st.Min.Compare(p.Max) > 0 {
		return false
	}
	if len(p.In) == 0 {
		return true
	}
	var bl *Bloom
	if i < len(g.blooms) {
		bl = &g.blooms[i]
	}
	for _, v := range p.In {
		if v.IsNull() {
			continue
		}
		// Zone-map check per candidate; only same-kind comparisons are
		// meaningful (Compare orders mismatched kinds by kind).
		if v.Kind() == st.Min.Kind() &&
			(v.Compare(st.Min) < 0 || v.Compare(st.Max) > 0) {
			continue
		}
		if v.Kind() == schema.KindString && !bl.MayContain(BloomHash(v.StrVal())) {
			continue
		}
		return true // this candidate may be present
	}
	return false
}

// rowMatches reports whether one concrete value satisfies the predicate.
func (p Predicate) rowMatches(v schema.Value) bool {
	if v.IsNull() {
		return false
	}
	if !p.Min.IsNull() && v.Compare(p.Min) < 0 {
		return false
	}
	if !p.Max.IsNull() && v.Compare(p.Max) > 0 {
		return false
	}
	if len(p.In) > 0 {
		for _, w := range p.In {
			if v.Equal(w) {
				return true
			}
		}
		return false
	}
	return true
}

// filter narrows sel, ascending row indices into v, in place to the
// rows whose value satisfies the predicate; ds is the scratch v's chunk
// was just decoded with. A candidate list without bounds on a
// dictionary-mode string chunk is answered from the chunk's dictionary
// ids: rowMatches once per entry, then one table lookup per row. A pure
// range whose bounds are unbounded or of the column's kind compares the
// typed payload of int, time, bool and float columns directly
// (cmp.Compare orders floats as Value.Compare does, NaN first); every
// other shape — bounds of another kind, string ranges, plain strings —
// goes through rowMatches.
func (p Predicate) filter(v *Vector, sel []int32, ds *decodeScratch) []int32 {
	out := sel[:0]
	kind := v.Kind
	hasMin, hasMax := !p.Min.IsNull(), !p.Max.IsNull()
	typed := len(p.In) == 0 && (!hasMin || p.Min.Kind() == kind) && (!hasMax || p.Max.Kind() == kind)
	switch {
	case len(p.In) > 0 && !hasMin && !hasMax && kind == schema.KindString && len(ds.ids) == len(v.Strs):
		accept := ds.accept[:0]
		for _, s := range ds.dict {
			accept = append(accept, p.rowMatches(schema.Str(s)))
		}
		ds.accept = accept
		for _, r := range sel {
			if accept[ds.ids[r]] && !v.Nulls[r] {
				out = append(out, r)
			}
		}
	case typed && (kind == schema.KindInt || kind == schema.KindTime || kind == schema.KindBool):
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if hasMin {
			lo = p.Min.IntVal()
		}
		if hasMax {
			hi = p.Max.IntVal()
		}
		for _, r := range sel {
			if x := v.Ints[r]; x >= lo && x <= hi && !v.Nulls[r] {
				out = append(out, r)
			}
		}
	case typed && kind == schema.KindFloat:
		lo, hi := p.Min.FloatVal(), p.Max.FloatVal()
		for _, r := range sel {
			if x := v.Floats[r]; (!hasMin || cmp.Compare(x, lo) >= 0) && (!hasMax || cmp.Compare(x, hi) <= 0) && !v.Nulls[r] {
				out = append(out, r)
			}
		}
	default:
		for _, r := range sel {
			if p.rowMatches(v.value(int(r))) {
				out = append(out, r)
			}
		}
	}
	return out
}

// ScanStats reports what one scan did: how far pushdown pruned it and how
// much it decoded.
type ScanStats struct {
	GroupsTotal   int
	GroupsScanned int
	// GroupsEmptied counts groups that zone maps and blooms admitted but
	// whose predicate columns, decoded first, left no row: none of their
	// projection-only chunks was inflated.
	GroupsEmptied int
	// ColumnsDecoded / ColumnsTotal report projection pushdown: how many
	// column chunks were actually inflated vs what a full scan decodes.
	ColumnsDecoded int
	ColumnsTotal   int
	// RowsDecoded counts the rows of every scanned group that was not
	// emptied; len(Batch.Sel) of them survived the predicates.
	RowsDecoded int
	// Workers is how many goroutines decoded row groups, the caller's
	// included.
	Workers int
}

// ScanResult is ScanColumns' answer: the surviving rows as a frame, and
// the scan's counters.
type ScanResult struct {
	Frame *schema.Frame
	ScanStats
}

// Vector is one decoded column: the payload slice of its kind (int, time
// and bool share Ints; a null position holds zero) and its null mask.
type Vector struct {
	Kind   schema.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool
	// Codes numbers the values of a string vector ScanInto filled, one
	// code per row in [0, rows): rows with equal codes hold equal values.
	// The rows of one dictionary-mode chunk share their entry's code, so a
	// consumer that memoizes by code does per-entry, not per-row, string
	// work; the rows of a plain chunk, or of a chunk with a null, each get
	// a code of their own. ScanColumns' vectors carry none.
	Codes []uint32
}

// value boxes row r.
func (v *Vector) value(r int) schema.Value {
	if v.Nulls[r] {
		return schema.Null
	}
	switch v.Kind {
	case schema.KindBool:
		return schema.Bool(v.Ints[r] != 0)
	case schema.KindInt:
		return schema.Int(v.Ints[r])
	case schema.KindTime:
		return schema.TimeNanos(v.Ints[r])
	case schema.KindFloat:
		return schema.Float(v.Floats[r])
	case schema.KindString:
		return schema.Str(v.Strs[r])
	}
	return schema.Null
}

// reset empties v for a column of kind, keeping every slice's storage.
func (v *Vector) reset(kind schema.Kind) {
	*v = Vector{Kind: kind, Ints: v.Ints[:0], Floats: v.Floats[:0], Strs: v.Strs[:0], Nulls: v.Nulls[:0], Codes: v.Codes[:0]}
}

// slice returns v with rows [lo:hi] of its kind's payload and of its
// mask, capacity max.
func (v *Vector) slice(lo, hi, max int) Vector {
	out := *v
	out.Nulls = cut(v.Nulls, lo, hi, max)
	switch v.Kind {
	case schema.KindInt, schema.KindTime, schema.KindBool:
		out.Ints = cut(v.Ints, lo, hi, max)
	case schema.KindFloat:
		out.Floats = cut(v.Floats, lo, hi, max)
	case schema.KindString:
		out.Strs = cut(v.Strs, lo, hi, max)
		if v.Codes != nil {
			out.Codes = cut(v.Codes, lo, hi, max)
		}
	}
	return out
}

func cut[T any](s []T, lo, hi, max int) []T { return s[lo:hi:max] }

// code numbers the rows of the string chunk just decoded onto v with ds,
// whose first row is row base of the scan: a dictionary-mode chunk's row
// takes base plus its entry's index, a code of that chunk's rows alone
// when the dictionary is no longer than the chunk; any other chunk's row
// takes base plus its own index.
func (v *Vector) code(base int, ds *decodeScratch) {
	codes := v.Codes[:len(v.Strs)]
	if len(ds.ids) == len(codes) && len(ds.dict) <= len(codes) {
		for i, id := range ds.ids {
			codes[i] = uint32(base) + id
		}
		return
	}
	for i := range codes {
		codes[i] = uint32(base + i)
	}
}

// zeroNulls zeroes the payload under every null from row lo on.
func (v *Vector) zeroNulls(lo int) {
	for r := lo; r < len(v.Nulls); r++ {
		if v.Nulls[r] {
			switch v.Kind {
			case schema.KindInt, schema.KindTime, schema.KindBool:
				v.Ints[r] = 0
			case schema.KindFloat:
				v.Floats[r] = 0
			case schema.KindString:
				v.Strs[r] = ""
			}
		}
	}
}

// grow extends v to n rows, keeping its storage where it is large enough;
// the new rows' contents are unspecified.
func (v *Vector) grow(n int) {
	v.Nulls = resized(v.Nulls, n)
	switch v.Kind {
	case schema.KindInt, schema.KindTime, schema.KindBool:
		v.Ints = resized(v.Ints, n)
	case schema.KindFloat:
		v.Floats = resized(v.Floats, n)
	case schema.KindString:
		v.Strs = resized(v.Strs, n)
	}
}

// resized returns s with length n, reusing its storage if it can.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// column adopts v as a schema column; v must not be used afterwards.
func (v *Vector) column() (*schema.Column, error) {
	switch v.Kind {
	case schema.KindInt, schema.KindTime, schema.KindBool:
		return schema.IntColumn(v.Kind, v.Ints, v.Nulls)
	case schema.KindFloat:
		return schema.FloatColumn(v.Floats, v.Nulls)
	case schema.KindString:
		return schema.StringColumn(v.Strs, v.Nulls)
	}
	// No chunk of this kind decodes, so the scan that got here is empty.
	return schema.NewColumn(v.Kind), nil
}

// compact moves rows sel[0], sel[1], … of v to its front and cuts it
// there. sel ascends, so no row is overwritten before it has moved.
func (v *Vector) compact(sel []int32) {
	v.Nulls = compact(v.Nulls, sel)
	switch v.Kind {
	case schema.KindInt, schema.KindTime, schema.KindBool:
		v.Ints = compact(v.Ints, sel)
	case schema.KindFloat:
		v.Floats = compact(v.Floats, sel)
	case schema.KindString:
		v.Strs = compact(v.Strs, sel)
	}
}

func compact[T any](s []T, sel []int32) []T {
	for k, r := range sel {
		s[k] = s[r]
	}
	return s[:len(sel):len(sel)]
}

// Batch is the caller-owned target of ScanInto: the projected columns of
// the row groups a scan decoded, back to back in file order, and the rows
// of them that satisfy every predicate. A scan overwrites the Batch but
// keeps its storage, so a Batch reused across scans — a pooled one per
// query — stops allocating per row group once its vectors have grown to
// the largest object it reads.
type Batch struct {
	// Cols are the projected columns, in the order ScanInto was given
	// them. Only the rows Sel names are defined.
	Cols []Vector
	// Sel lists the rows of Cols that satisfy every predicate, ascending.
	Sel []int32
	// Slots, when set, is the semaphore extra decode goroutines are won
	// from, one slot each, by try-acquire: with none free every row group
	// is decoded on the caller's goroutine. Nil allows up to
	// min(GOMAXPROCS, 8) goroutines unconditionally.
	Slots chan struct{}

	// uncoded is set by ScanColumns, which compacts the rows: its scan
	// gives them no Codes.
	uncoded bool
	spans   []groupSpan
	scratch []*groupScratch // one per decoding goroutine
}

// groupSpan is one row group a scan decodes: its rows occupy
// [base, base+g.Rows) of the batch's vectors.
type groupSpan struct {
	g       *RowGroup
	base    int
	sel     int  // surviving rows
	decoded int  // chunks inflated
	emptied bool // its predicate columns left no row
	err     error
}

// groupScratch is one decoding goroutine's reusable state.
type groupScratch struct {
	cr    chunkReader
	sel   []int32  // the group's surviving rows, group-relative
	local []Vector // by file column: the group's columns only a predicate reads
}

// worker returns the scratch of decoding goroutine w.
func (b *Batch) worker(w int) *groupScratch {
	for len(b.scratch) <= w {
		b.scratch = append(b.scratch, new(groupScratch))
	}
	return b.scratch[w]
}

// helpers wins up to want extra decode goroutines.
func (b *Batch) helpers(want int) int {
	if b.Slots == nil {
		return want
	}
	for n := 0; n < want; n++ {
		select {
		case b.Slots <- struct{}{}:
		default:
			return n
		}
	}
	return want
}

// scanWorkerCap bounds the row-group decode pool; inflate is CPU-bound,
// so more workers than cores only adds scheduling overhead.
const scanWorkerCap = 8

// scanWorkers picks the decode fan-out for n selected row groups.
func scanWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), scanWorkerCap, n))
}

// scanPlan is what every row group of one scan shares: where the
// projection and the predicates sit in the file's schema.
type scanPlan struct {
	outIdx  []int // by projected column: its file column
	predIdx []int // by predicate: its file column, -1 for none
	preds   []Predicate
	// proj maps a file column to its projected position, -1 for a column
	// only predicates read.
	proj []int
	// order lists the columns a group decodes, in decode order: the
	// predicate columns, then the projection-only ones, each ascending, so
	// the first corrupt chunk in that order is the one reported. The first
	// npred are the predicate columns.
	order []int
	npred int
}

// scanGroup evaluates one row group. Its predicate columns decode first,
// each column's predicates narrowing sc.sel, the group's selection
// vector, as soon as it lands; once the selection is empty the group
// stops there. Then the projection-only columns decode. A projected chunk
// decodes onto cols at sp.base, a predicate-only one into sc; cols are
// presized and the group fills its span in place, so groups decode
// concurrently. Each chunk is inflated at most once.
func (fr *FileReader) scanGroup(sp *groupSpan, pl *scanPlan, cols []Vector, sc *groupScratch) {
	g := sp.g
	sc.local = resized(sc.local, fr.sch.Len())
	// The selection vector narrows in place and stays ascending, so
	// surviving rows keep their file order; sp.sel says how many survive.
	sel := resized(sc.sel, g.Rows)
	sc.sel = sel
	for r := range sel {
		sel[r] = int32(r)
	}
	for k, c := range pl.order {
		v := &sc.local[c]
		if j := pl.proj[c]; j >= 0 {
			w := cols[j].slice(sp.base, sp.base, sp.base+g.Rows)
			v = &w
		} else {
			v.reset(fr.sch.Field(c).Kind)
		}
		if sp.err = fr.decodeChunk(g, c, v, &sc.cr); sp.err != nil {
			return
		}
		if v.Kind == schema.KindString && v.Codes != nil && pl.proj[c] >= 0 {
			v.code(sp.base, &sc.cr.ds)
		}
		sp.decoded++
		if k >= pl.npred {
			continue
		}
		for i, p := range pl.preds {
			if pl.predIdx[i] == c {
				sel = p.filter(v, sel, &sc.cr.ds)
			}
		}
		if len(sel) == 0 {
			sp.emptied = true
			return
		}
	}
	sp.sel = len(sel)
}

// ScanInto is the one row-group scan: it selects the row groups whose
// statistics may satisfy every predicate (conjunctive), decodes the
// predicate columns of each, then — unless they left no row — the named
// columns, onto b.Cols in file order (see scanGroup), and leaves the
// rows that satisfy every predicate in b.Sel. Nothing is gathered or
// concatenated: a caller reads the selected rows through b.Sel. Row
// groups are decoded on the calling goroutine, concurrently on helpers
// b.Slots lends (see Batch).
func (fr *FileReader) ScanInto(b *Batch, columns []string, preds ...Predicate) (ScanStats, error) {
	st := ScanStats{GroupsTotal: len(fr.groups)}
	pl := scanPlan{
		outIdx:  make([]int, len(columns)),
		predIdx: make([]int, len(preds)),
		preds:   preds,
		proj:    make([]int, fr.sch.Len()),
	}
	for c := range pl.proj {
		pl.proj[c] = -1
	}
	for j, name := range columns {
		c, ok := fr.sch.Index(name)
		if !ok {
			return st, fmt.Errorf("columnar: scan: no column named %q", name)
		}
		if pl.proj[c] >= 0 {
			return st, fmt.Errorf("columnar: scan: column %q named twice", name)
		}
		pl.outIdx[j], pl.proj[c] = c, j
	}
	for i, p := range preds {
		c, ok := fr.sch.Index(p.Col)
		if !ok {
			pl.predIdx[i] = -1
			continue
		}
		pl.predIdx[i] = c
	}
	for c := range pl.proj {
		if slices.Contains(pl.predIdx, c) {
			pl.order = append(pl.order, c)
		}
	}
	pl.npred = len(pl.order)
	for c := range pl.proj {
		if pl.proj[c] >= 0 && !slices.Contains(pl.predIdx, c) {
			pl.order = append(pl.order, c)
		}
	}

	b.Cols = resized(b.Cols, len(columns))
	for j, c := range pl.outIdx {
		b.Cols[j].reset(fr.sch.Field(c).Kind)
	}
	b.Sel = b.Sel[:0]
	b.spans = b.spans[:0]
	total := 0
groups:
	for i := range fr.groups {
		g := &fr.groups[i]
		st.ColumnsTotal += len(g.chunks)
		for _, p := range preds {
			if !p.matches(fr.sch, g) {
				continue groups
			}
		}
		b.spans = append(b.spans, groupSpan{g: g, base: total})
		total += g.Rows
	}
	st.GroupsScanned = len(b.spans)
	// Sel indexes the spans' rows as int32.
	if total > math.MaxInt32 {
		return st, fmt.Errorf("columnar: %d rows are too many to scan at once", total)
	}

	// Every span gets its rows presized, whether or not its predicates
	// then empty it, so groups fill disjoint spans, concurrently when
	// helpers are won; each group's selection lands at its span's start.
	for j := range b.Cols {
		v := &b.Cols[j]
		v.grow(total)
		if v.Kind == schema.KindString && !b.uncoded {
			v.Codes = resized(v.Codes, total)
		}
	}
	b.Sel = resized(b.Sel, total)
	helpers := b.helpers(scanWorkers(len(b.spans)) - 1)
	st.Workers = helpers + 1
	var next atomic.Int32
	var wg sync.WaitGroup
	work := func(sc *groupScratch) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(b.spans) {
				return
			}
			sp := &b.spans[i]
			fr.scanGroup(sp, &pl, b.Cols, sc)
			for k, r := range sc.sel[:sp.sel] {
				b.Sel[sp.base+k] = int32(sp.base) + r
			}
		}
	}
	wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		go func(sc *groupScratch) {
			defer wg.Done()
			if b.Slots != nil {
				defer func() { <-b.Slots }()
			}
			work(sc)
		}(b.worker(w))
	}
	work(b.worker(0))
	wg.Wait()
	n := 0
	for i := range b.spans {
		sp := &b.spans[i]
		if sp.err != nil {
			return st, sp.err
		}
		n += copy(b.Sel[n:], b.Sel[sp.base:sp.base+sp.sel])
	}
	b.Sel = b.Sel[:n]
	for i := range b.spans {
		sp := &b.spans[i]
		st.ColumnsDecoded += sp.decoded
		if sp.emptied {
			st.GroupsEmptied++
		} else {
			st.RowsDecoded += sp.g.Rows
		}
	}
	return st, nil
}

// ScanColumns is ScanInto materialised: the selected rows of the named
// columns as a frame, in that column order; nil names every column. Only
// the named columns (plus any columns the predicates reference) are
// decoded, so on wide Silver frames this skips most of the inflate work.
func (fr *FileReader) ScanColumns(columns []string, preds ...Predicate) (*ScanResult, error) {
	if columns == nil {
		for _, f := range fr.sch.Fields() {
			columns = append(columns, f.Name)
		}
	}
	outSchema, err := fr.sch.Project(columns...)
	if err != nil {
		return nil, err
	}
	b := Batch{uncoded: true}
	st, err := fr.ScanInto(&b, columns, preds...)
	if err != nil {
		return nil, err
	}
	cols := make([]*schema.Column, len(b.Cols))
	for j := range b.Cols {
		b.Cols[j].compact(b.Sel)
		if cols[j], err = b.Cols[j].column(); err != nil {
			return nil, err
		}
	}
	f, err := schema.FrameOfColumns(outSchema, cols)
	if err != nil {
		return nil, err
	}
	return &ScanResult{Frame: f, ScanStats: st}, nil
}

// ReadAll decodes the entire stream into one frame.
func ReadAll(data []byte) (*schema.Frame, error) {
	fr, err := NewFileReader(data)
	if err != nil {
		return nil, err
	}
	out := schema.NewFrame(fr.sch)
	for i := 0; i < fr.NumRowGroups(); i++ {
		f, err := fr.ReadGroup(i)
		if err != nil {
			return nil, err
		}
		if err := out.AppendFrame(f); err != nil {
			return nil, err
		}
	}
	return out, nil
}

package columnar

import (
	"bufio"
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

func decodeStats(buf []byte) (ColStats, int, error) {
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
	row, n, err := schema.DecodeRow(buf[off:])
	if err != nil || len(row) != 2 {
		return s, 0, fmt.Errorf("columnar: bad stats min/max: %v", err)
	}
	off += n
	s.Count, s.NullCount, s.Min, s.Max = int(c), int(nc), row[0], row[1]
	return s, off, nil
}

// RowGroup is one decoded-on-demand row group of an OCF stream.
type RowGroup struct {
	Rows  int
	Stats []ColStats // aligned with the schema fields
	// chunk payload slices (compression flag, raw length, payload)
	chunks []chunkRef
	sch    *schema.Schema
	// blooms are per-column split-block bloom filters from the group-ext
	// block, aligned with the schema; nil when the writer emitted none.
	blooms []*Bloom
}

type chunkRef struct {
	comp    Compression
	rawLen  int
	payload []byte
}

// FileReader provides random access over an in-memory OCF stream: schema,
// row-group statistics, and per-group decode, with predicate pushdown.
type FileReader struct {
	sch    *schema.Schema
	groups []*RowGroup
}

// NewFileReader parses the structure of an OCF stream without decoding
// column payloads. Concatenated streams with equal schemas are accepted.
func NewFileReader(data []byte) (*FileReader, error) {
	fr := &FileReader{}
	off := 0
	for off < len(data) {
		if bytes.HasPrefix(data[off:], Magic) {
			off += len(Magic)
			sch, n, err := decodeSchema(data[off:])
			if err != nil {
				return nil, err
			}
			off += n
			if fr.sch == nil {
				fr.sch = sch
			} else if !fr.sch.Equal(sch) {
				return nil, fmt.Errorf("columnar: concatenated stream schema mismatch: %s vs %s", fr.sch, sch)
			}
			continue
		}
		if fr.sch == nil {
			return nil, fmt.Errorf("columnar: missing magic header")
		}
		if data[off] == markerGroupExt {
			n, err := fr.parseGroupExt(data[off+1:])
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
		g := &RowGroup{sch: fr.sch}
		rows, sz := binary.Uvarint(data[off:])
		// A row needs at least one null-mask bit per column; 8*len(data)
		// bounds any physically representable count and keeps int() positive.
		if sz <= 0 || rows > uint64(len(data))*8 {
			return nil, fmt.Errorf("columnar: bad row count")
		}
		off += sz
		g.Rows = int(rows)
		ncols, sz := binary.Uvarint(data[off:])
		if sz <= 0 || int(ncols) != fr.sch.Len() {
			return nil, fmt.Errorf("columnar: row group has %d columns, schema has %d", ncols, fr.sch.Len())
		}
		off += sz
		for c := 0; c < int(ncols); c++ {
			st, n, err := decodeStats(data[off:])
			if err != nil {
				return nil, err
			}
			off += n
			g.Stats = append(g.Stats, st)
			if off >= len(data) {
				return nil, fmt.Errorf("columnar: truncated chunk header")
			}
			comp := Compression(data[off])
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
			g.chunks = append(g.chunks, chunkRef{
				comp: comp, rawLen: int(rawLen), payload: data[off : off+int(compLen)],
			})
			off += int(compLen)
		}
		fr.groups = append(fr.groups, g)
	}
	if fr.sch == nil {
		return nil, fmt.Errorf("columnar: empty stream")
	}
	return fr, nil
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
func (fr *FileReader) parseGroupExt(buf []byte) (int, error) {
	if len(fr.groups) == 0 {
		return 0, fmt.Errorf("columnar: group-ext block before any row group")
	}
	g := fr.groups[len(fr.groups)-1]
	if g.blooms != nil {
		return 0, fmt.Errorf("columnar: duplicate group-ext block")
	}
	ncols, sz := binary.Uvarint(buf)
	if sz <= 0 || int(ncols) != fr.sch.Len() {
		return 0, fmt.Errorf("columnar: group-ext has %d columns, schema has %d", ncols, fr.sch.Len())
	}
	off := sz
	blooms := make([]*Bloom, ncols)
	for c := range blooms {
		if off >= len(buf) {
			return 0, fmt.Errorf("columnar: truncated group-ext block")
		}
		flag := buf[off]
		off++
		switch flag {
		case extNone:
		case extBloom:
			b, n, err := decodeBloom(buf[off:])
			if err != nil {
				return 0, err
			}
			off += n
			blooms[c] = b
		default:
			return 0, fmt.Errorf("columnar: unknown group-ext flag 0x%02x", flag)
		}
	}
	g.blooms = blooms
	return off, nil
}

// Schema returns the stream's schema.
func (fr *FileReader) Schema() *schema.Schema { return fr.sch }

// NumRowGroups returns the number of row groups.
func (fr *FileReader) NumRowGroups() int { return len(fr.groups) }

// maxChunkRawLen caps a chunk's declared decompressed size (1 GiB). The
// declared length is attacker-controlled in a hostile stream; without a
// cap it becomes an arbitrary allocation in decodeChunk.
const maxChunkRawLen = 1 << 30

// chunkReader is the pooled state for reading one column chunk: an
// inflater reused through flate.Resetter instead of built per chunk, the
// buffered reader the streaming dictionary pre-pass parses through, and
// the scratch both paths fill. Nothing decoded keeps a reference to the
// scratch, so it goes back to the pool with the reader.
type chunkReader struct {
	src bytes.Reader
	zr  io.ReadCloser    // flate reader over &src
	lim io.LimitedReader // the chunk's raw bytes, see openChunk
	br  *bufio.Reader    // over &lim
	raw bytes.Buffer     // a whole inflated chunk (decodeChunk)
	str []byte           // one string (stringEqKeep)
}

// maxPooledScratch is the largest scratch buffer a pooled chunkReader
// keeps; one oversized chunk must not pin its buffer for the process.
const maxPooledScratch = 1 << 20

var chunkReaders = sync.Pool{New: func() any {
	cr := &chunkReader{}
	cr.zr = flate.NewReader(&cr.src)
	cr.br = bufio.NewReader(&cr.lim)
	return cr
}}

// openChunk returns a pooled reader with lim positioned at the start of
// the chunk's raw bytes. lim ends one byte past the declared raw length:
// enough to tell a chunk that inflates past its declaration, and the stop
// for decompression bombs.
func openChunk(ch chunkRef) *chunkReader {
	cr := chunkReaders.Get().(*chunkReader)
	cr.src.Reset(ch.payload)
	cr.lim.R = &cr.src
	if ch.comp == CompressFlate {
		// Reset only fails on a bad dictionary; there is none.
		_ = cr.zr.(flate.Resetter).Reset(&cr.src, nil)
		cr.lim.R = cr.zr
	}
	cr.lim.N = int64(ch.rawLen) + 1
	return cr
}

func (cr *chunkReader) release() {
	cr.src.Reset(nil) // drop the object's bytes
	if cr.raw.Cap() > maxPooledScratch {
		cr.raw = bytes.Buffer{}
	}
	if cap(cr.str) > maxPooledScratch {
		cr.str = nil
	}
	chunkReaders.Put(cr)
}

// decodeChunk inflates and decodes one column chunk of a group.
func (fr *FileReader) decodeChunk(g *RowGroup, c int) (*schema.Column, error) {
	ch := g.chunks[c]
	raw := ch.payload
	if ch.comp == CompressFlate {
		cr := openChunk(ch)
		defer cr.release()
		cr.raw.Reset()
		// The declared raw length is only an allocation hint, capped so a
		// corrupt header cannot force a huge up-front make. MinRead spare
		// lets ReadFrom see EOF without regrowing an exactly-sized buffer.
		cr.raw.Grow(min(ch.rawLen, maxPooledScratch) + bytes.MinRead)
		n, err := cr.raw.ReadFrom(&cr.lim)
		if err != nil {
			return nil, fmt.Errorf("columnar: inflate: %w", err)
		}
		if n > int64(ch.rawLen) {
			return nil, fmt.Errorf("columnar: chunk inflates past declared %d bytes", ch.rawLen)
		}
		raw = cr.raw.Bytes()
	}
	col, _, err := decodeColumn(raw)
	if err != nil {
		return nil, fmt.Errorf("columnar: column %d: %w", c, err)
	}
	if want := fr.sch.Field(c).Kind; col.Kind() != want {
		return nil, fmt.Errorf("columnar: column %d is %v, schema says %v", c, col.Kind(), want)
	}
	if col.Len() != g.Rows {
		return nil, fmt.Errorf("columnar: column %d has %d rows, group has %d", c, col.Len(), g.Rows)
	}
	return col, nil
}

// ReadGroup decodes row group i into a frame.
func (fr *FileReader) ReadGroup(i int) (*schema.Frame, error) {
	if i < 0 || i >= len(fr.groups) {
		return nil, fmt.Errorf("columnar: row group %d out of range", i)
	}
	g := fr.groups[i]
	cols := make([]*schema.Column, len(g.chunks))
	for c := range g.chunks {
		col, err := fr.decodeChunk(g, c)
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
	// and the dictionary-id pre-pass accelerate: candidate sets that miss
	// a group's filter or dictionary skip the group without inflating it.
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
		bl = g.blooms[i]
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

// filter narrows sel, ascending row indices into col, in place to the
// rows whose value satisfies the predicate. A pure range whose bounds are
// unbounded or of the column's kind compares the typed payload of int,
// time, bool and float columns directly (cmp.Compare orders floats as
// Value.Compare does, NaN first); every other shape — candidate lists,
// bounds of another kind, strings — goes through rowMatches.
func (p Predicate) filter(col *schema.Column, sel []int32) []int32 {
	out := sel[:0]
	kind := col.Kind()
	hasMin, hasMax := !p.Min.IsNull(), !p.Max.IsNull()
	typed := len(p.In) == 0 && (!hasMin || p.Min.Kind() == kind) && (!hasMax || p.Max.Kind() == kind)
	switch {
	case typed && (kind == schema.KindInt || kind == schema.KindTime || kind == schema.KindBool):
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if hasMin {
			lo = p.Min.IntVal()
		}
		if hasMax {
			hi = p.Max.IntVal()
		}
		vals := col.Ints()
		for _, r := range sel {
			if v := vals[r]; v >= lo && v <= hi && !col.IsNull(int(r)) {
				out = append(out, r)
			}
		}
	case typed && kind == schema.KindFloat:
		lo, hi := p.Min.FloatVal(), p.Max.FloatVal()
		vals := col.Floats()
		for _, r := range sel {
			if v := vals[r]; (!hasMin || cmp.Compare(v, lo) >= 0) && (!hasMax || cmp.Compare(v, hi) <= 0) && !col.IsNull(int(r)) {
				out = append(out, r)
			}
		}
	default:
		for _, r := range sel {
			if p.rowMatches(col.Value(int(r))) {
				out = append(out, r)
			}
		}
	}
	return out
}

// ScanResult reports pushdown effectiveness alongside the data.
type ScanResult struct {
	Frame         *schema.Frame
	GroupsTotal   int
	GroupsScanned int
	// GroupsDictSkipped counts groups that survived zone-map + bloom
	// selection but were then eliminated by the dictionary-id pre-pass —
	// the equality candidates missed the group's string dictionary, so
	// nothing past the dictionary was inflated.
	GroupsDictSkipped int
	// ColumnsDecoded / ColumnsTotal report projection pushdown: how many
	// column chunks were actually inflated vs what a full scan decodes.
	ColumnsDecoded int
	ColumnsTotal   int
	// RowsDecoded counts the rows of every row group that had a chunk
	// inflated (scanned and not dictionary-skipped); Frame.Len() of them
	// survived the predicates.
	RowsDecoded int
}

// scanWorkerCap bounds the row-group decode pool; inflate is CPU-bound,
// so more workers than cores only adds scheduling overhead.
const scanWorkerCap = 8

// scanWorkers picks the decode fan-out for n selected row groups.
func scanWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > scanWorkerCap {
		w = scanWorkerCap
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// scanCtx is the per-ScanColumns plan shared by every row group: the
// output projection, the columns that must be decoded, and the predicate
// column mapping.
type scanCtx struct {
	outSchema *schema.Schema
	need      []int  // projection ∪ predicate columns, ascending
	proj      []bool // by column index: part of the projection
	outIdx    []int
	predIdx   []int
	preds     []Predicate
}

// scanGroup evaluates one row group: a dictionary-id pre-pass handles
// string-equality predicates against the encoded chunk (possibly skipping
// the whole group), the surviving needed chunks are decoded in ascending
// column order, the remaining predicates narrow a selection vector of row
// indices, and each projected column is gathered through it once. Returns
// the surviving rows, how many column chunks were inflated, and whether
// the dictionary pre-pass eliminated the group. Row groups are
// independent, so this is the unit of parallelism in ScanColumns.
func (fr *FileReader) scanGroup(g *RowGroup, sc *scanCtx) (*schema.Frame, int, bool, error) {
	if g.Rows > math.MaxInt32 {
		return nil, 0, false, fmt.Errorf("columnar: row group of %d rows is too large to scan", g.Rows)
	}
	var masks [][]byte
	handled := make([]bool, len(sc.preds))
	for i, p := range sc.preds {
		c := sc.predIdx[i]
		if c < 0 || len(p.In) == 0 || !p.Min.IsNull() || !p.Max.IsNull() ||
			g.sch.Field(c).Kind != schema.KindString {
			continue
		}
		mask, matched, err := fr.stringEqKeep(g, c, p.In)
		if err != nil || mask == nil {
			// Not evaluable this way (corrupt chunk, unexpected layout):
			// fall back to exact row evaluation below, which surfaces any
			// real decode error.
			continue
		}
		if matched == 0 {
			return nil, 0, true, nil
		}
		masks = append(masks, mask)
		handled[i] = true
	}
	// A predicate-only column the pre-pass fully answered is not inflated.
	answered := func(c int) bool {
		for i, pc := range sc.predIdx {
			if pc == c && !handled[i] {
				return false
			}
		}
		return true
	}
	decoded := make([]*schema.Column, fr.sch.Len())
	decodedN := 0
	for _, c := range sc.need {
		if !sc.proj[c] && answered(c) {
			continue
		}
		col, err := fr.decodeChunk(g, c)
		if err != nil {
			return nil, decodedN, false, err
		}
		decoded[c] = col
		decodedN++
	}
	// The selection vector stays ascending through every narrowing step,
	// so surviving rows keep their file order.
	sel := make([]int32, 0, g.Rows)
rows:
	for r := 0; r < g.Rows; r++ {
		for _, m := range masks {
			if !bitmapGet(m, r) {
				continue rows
			}
		}
		sel = append(sel, int32(r))
	}
	for i, p := range sc.preds {
		if !handled[i] && sc.predIdx[i] >= 0 {
			sel = p.filter(decoded[sc.predIdx[i]], sel)
		}
	}
	cols := make([]*schema.Column, len(sc.outIdx))
	for i, c := range sc.outIdx {
		cols[i] = decoded[c]
		if len(sel) < g.Rows {
			cols[i] = decoded[c].Gather(sel)
		}
	}
	f, err := schema.FrameOfColumns(sc.outSchema, cols)
	return f, decodedN, false, err
}

// stringEqKeep evaluates a string-equality candidate set against column
// c's encoded chunk without materializing it. In dictionary mode the
// candidates are resolved to dictionary ids first, so a dictionary miss
// rejects the whole group after inflating only the dictionary prefix; a
// hit streams the ids into a keep bitmap. Plain mode streams the strings.
// A nil mask with a nil error means the chunk isn't evaluable this way
// and the caller must fall back to exact evaluation.
func (fr *FileReader) stringEqKeep(g *RowGroup, c int, in []schema.Value) ([]byte, int, error) {
	ch := g.chunks[c]
	cr := openChunk(ch)
	defer cr.release()
	br := cr.br
	br.Reset(&cr.lim)
	kind, err := br.ReadByte()
	if err != nil || schema.Kind(kind) != schema.KindString {
		return nil, 0, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil || n != uint64(g.Rows) {
		return nil, 0, err
	}
	nulls := make([]byte, bitmapBytes(g.Rows))
	if _, err := io.ReadFull(br, nulls); err != nil {
		return nil, 0, err
	}
	want := make(map[string]bool, len(in))
	for _, v := range in {
		if !v.IsNull() && v.Kind() == schema.KindString {
			want[v.StrVal()] = true
		}
	}
	// wanted reads the next string into the reader's scratch and reports
	// whether it is a candidate; the map lookup does not copy the bytes.
	wanted := func() (bool, error) {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return false, err
		}
		if l > uint64(ch.rawLen) {
			return false, fmt.Errorf("columnar: oversized string in chunk")
		}
		cr.str = slices.Grow(cr.str[:0], int(l))[:l]
		if _, err := io.ReadFull(br, cr.str); err != nil {
			return false, err
		}
		return want[string(cr.str)], nil
	}
	mode, err := br.ReadByte()
	if err != nil {
		return nil, 0, err
	}
	mask := make([]byte, bitmapBytes(g.Rows))
	matched := 0
	switch mode {
	case strDict:
		dn, err := binary.ReadUvarint(br)
		if err != nil || dn > uint64(ch.rawLen) {
			return nil, 0, err
		}
		// accept[id] says dictionary entry id is a candidate. It grows
		// with the entries actually read, not with the declared dn.
		var accept []bool
		hit := false
		for i := uint64(0); i < dn; i++ {
			ok, err := wanted()
			if err != nil {
				return nil, 0, err
			}
			accept = append(accept, ok)
			hit = hit || ok
		}
		if !hit {
			// Dictionary miss: the group cannot contain any candidate.
			// The id section is never inflated.
			return mask, 0, nil
		}
		cnt, err := binary.ReadUvarint(br)
		if err != nil || cnt != uint64(g.Rows) {
			return nil, 0, err
		}
		for i := 0; i < g.Rows; i++ {
			id, err := binary.ReadUvarint(br)
			if err != nil || id >= dn {
				return nil, 0, err
			}
			if accept[id] && !bitmapGet(nulls, i) {
				bitmapSet(mask, i)
				matched++
			}
		}
	case strPlain:
		cnt, err := binary.ReadUvarint(br)
		if err != nil || cnt != uint64(g.Rows) {
			return nil, 0, err
		}
		for i := 0; i < g.Rows; i++ {
			ok, err := wanted()
			if err != nil {
				return nil, 0, err
			}
			if ok && !bitmapGet(nulls, i) {
				bitmapSet(mask, i)
				matched++
			}
		}
	default:
		return nil, 0, nil
	}
	return mask, matched, nil
}

// ScanColumns is Scan with projection pushdown: only the named columns
// (plus any columns the predicates reference) are decoded, and the result
// frame contains exactly the named columns in the given order. On wide
// Silver frames this skips most of the inflate work. Row groups that
// survive predicate pushdown are decoded concurrently by a bounded worker
// pool; output row order is preserved (groups are appended in file order).
func (fr *FileReader) ScanColumns(columns []string, preds ...Predicate) (*ScanResult, error) {
	outSchema, err := fr.sch.Project(columns...)
	if err != nil {
		return nil, err
	}
	// Columns that must be decoded: projection plus predicate columns.
	sc := &scanCtx{
		outSchema: outSchema,
		proj:      make([]bool, fr.sch.Len()),
		outIdx:    make([]int, len(columns)),
		predIdx:   make([]int, len(preds)),
		preds:     preds,
	}
	need := make([]bool, fr.sch.Len())
	for i, c := range columns {
		j := fr.sch.MustIndex(c)
		sc.outIdx[i] = j
		need[j] = true
		sc.proj[j] = true
	}
	for i, p := range preds {
		j, ok := fr.sch.Index(p.Col)
		if !ok {
			sc.predIdx[i] = -1
			continue
		}
		sc.predIdx[i] = j
		need[j] = true
	}
	for c, n := range need {
		if n {
			sc.need = append(sc.need, c)
		}
	}

	res := &ScanResult{Frame: schema.NewFrame(outSchema), GroupsTotal: len(fr.groups)}
	selected := make([]*RowGroup, 0, len(fr.groups))
	for _, g := range fr.groups {
		res.ColumnsTotal += len(g.chunks)
		skip := false
		for _, p := range preds {
			if !p.matches(fr.sch, g) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		selected = append(selected, g)
	}
	res.GroupsScanned = len(selected)

	frames := make([]*schema.Frame, len(selected))
	decodedN := make([]int, len(selected))
	dictSkip := make([]bool, len(selected))
	errs := make([]error, len(selected))
	workers := scanWorkers(len(selected))
	if workers <= 1 {
		for i, g := range selected {
			frames[i], decodedN[i], dictSkip[i], errs[i] = fr.scanGroup(g, sc)
		}
	} else {
		var next atomic.Int32
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(selected) {
						return
					}
					frames[i], decodedN[i], dictSkip[i], errs[i] = fr.scanGroup(selected[i], sc)
				}
			}()
		}
		wg.Wait()
	}
	var parts []*schema.Frame
	rows := 0
	for i := range selected {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.ColumnsDecoded += decodedN[i]
		if dictSkip[i] {
			res.GroupsDictSkipped++
			continue
		}
		res.RowsDecoded += selected[i].Rows
		if n := frames[i].Len(); n > 0 {
			parts = append(parts, frames[i])
			rows += n
		}
	}
	if len(parts) == 1 {
		res.Frame = parts[0] // nothing to concatenate: hand the group through
		return res, nil
	}
	res.Frame.Grow(rows)
	for _, f := range parts {
		if err := res.Frame.AppendFrame(f); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Scan is ScanColumns over every column: it decodes all row groups that
// survive every predicate, filters the decoded rows exactly, and returns
// the matching rows plus pushdown counters. Predicates are conjunctive.
func (fr *FileReader) Scan(preds ...Predicate) (*ScanResult, error) {
	cols := make([]string, fr.sch.Len())
	for i := range cols {
		cols[i] = fr.sch.Field(i).Name
	}
	return fr.ScanColumns(cols, preds...)
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

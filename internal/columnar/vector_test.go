package columnar

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"odakit/internal/schema"
)

// vectorSchema covers every kind, with one string column that
// dictionary-encodes (few distinct values) and one that stays plain.
var vectorSchema = schema.New(
	schema.Field{Name: "ts", Kind: schema.KindTime},
	schema.Field{Name: "i", Kind: schema.KindInt},
	schema.Field{Name: "f", Kind: schema.KindFloat},
	schema.Field{Name: "dict", Kind: schema.KindString},
	schema.Field{Name: "plain", Kind: schema.KindString},
	schema.Field{Name: "ok", Kind: schema.KindBool},
)

// vectorValue draws a value for column c; about one in eight is null and
// floats include NaN and both infinities.
func vectorValue(rng *rand.Rand, c int) schema.Value {
	if rng.Intn(8) == 0 {
		return schema.Null
	}
	switch vectorSchema.Field(c).Kind {
	case schema.KindTime:
		return schema.TimeNanos(int64(rng.Intn(40)) * int64(time.Second))
	case schema.KindInt:
		return schema.Int(int64(rng.Intn(41) - 20))
	case schema.KindFloat:
		switch rng.Intn(12) {
		case 0:
			return schema.Float(math.NaN())
		case 1:
			return schema.Float(math.Inf(1 - 2*rng.Intn(2)))
		}
		return schema.Float(float64(rng.Intn(41)-20) / 2)
	case schema.KindBool:
		return schema.Bool(rng.Intn(2) == 0)
	}
	if vectorSchema.Field(c).Name == "dict" {
		return schema.Str(fmt.Sprintf("m%d", rng.Intn(4)))
	}
	return schema.Str(fmt.Sprintf("p%d", rng.Intn(1000)))
}

func vectorFrame(t testing.TB, rng *rand.Rand, rows int) *schema.Frame {
	t.Helper()
	f := schema.NewFrame(vectorSchema)
	for r := 0; r < rows; r++ {
		row := make(schema.Row, vectorSchema.Len())
		for c := range row {
			row[c] = vectorValue(rng, c)
		}
		if err := f.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// vectorPredicate draws a predicate: a range, a candidate list or both,
// over a real column or an unknown one, with bounds that may be null, of
// another kind, NaN, or the empty string a null string row stores.
func vectorPredicate(rng *rand.Rand) Predicate {
	if rng.Intn(10) == 0 {
		return Predicate{Col: "nope", Min: schema.Int(3)}
	}
	c := rng.Intn(vectorSchema.Len())
	p := Predicate{Col: vectorSchema.Field(c).Name}
	bound := func() schema.Value {
		switch rng.Intn(12) {
		case 0:
			return schema.Int(int64(rng.Intn(10))) // often not the column's kind
		case 1:
			return schema.Float(math.NaN())
		case 2:
			return schema.Str("") // what a null string row stores
		}
		return vectorValue(rng, c) // null one time in eight: unbounded
	}
	shape := rng.Intn(3)
	if shape != 1 {
		p.Min, p.Max = bound(), bound()
		if rng.Intn(2) == 0 && !p.Min.IsNull() && !p.Max.IsNull() && p.Min.Compare(p.Max) > 0 {
			p.Min, p.Max = p.Max, p.Min
		}
	}
	if shape != 0 {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			p.In = append(p.In, bound())
		}
	}
	return p
}

// refScanColumns is the reference the scan is held to. It shares group
// selection (Predicate.matches) and chunk decode with ScanColumns and
// nothing else: groups are visited serially, every needed chunk is
// decoded into a column of its own in the scan's order — the predicate
// columns ascending, each filtering the group's rows by boxed rowMatches
// as soon as it lands, then the projection-only columns ascending — a
// group left with no row stops after the predicate column that emptied
// it, and each surviving row is one AppendRow.
func refScanColumns(fr *FileReader, columns []string, preds ...Predicate) (*ScanResult, error) {
	if columns == nil {
		for _, f := range fr.sch.Fields() {
			columns = append(columns, f.Name)
		}
	}
	outSchema, err := fr.sch.Project(columns...)
	if err != nil {
		return nil, err
	}
	isPred, isProj := map[int]bool{}, map[int]bool{}
	outIdx, predIdx := make([]int, len(columns)), make([]int, len(preds))
	for i, c := range columns {
		outIdx[i] = fr.sch.MustIndex(c)
		isProj[outIdx[i]] = true
	}
	for i, p := range preds {
		j, ok := fr.sch.Index(p.Col)
		if !ok {
			predIdx[i] = -1
			continue
		}
		predIdx[i] = j
		isPred[j] = true
	}
	var order []int
	for c := 0; c < fr.sch.Len(); c++ {
		if isPred[c] {
			order = append(order, c)
		}
	}
	npred := len(order)
	for c := 0; c < fr.sch.Len(); c++ {
		if isProj[c] && !isPred[c] {
			order = append(order, c)
		}
	}
	res := &ScanResult{Frame: schema.NewFrame(outSchema), ScanStats: ScanStats{GroupsTotal: len(fr.groups)}}
groups:
	for gi := range fr.groups {
		g := &fr.groups[gi]
		res.ColumnsTotal += len(g.chunks)
		for _, p := range preds {
			if !p.matches(fr.sch, g) {
				continue groups
			}
		}
		res.GroupsScanned++
		keep := make([]bool, g.Rows)
		for r := range keep {
			keep[r] = true
		}
		decoded := map[int]*schema.Column{}
		for k, c := range order {
			v := Vector{Kind: fr.sch.Field(c).Kind}
			if err := fr.decodeChunk(g, c, &v, new(chunkReader)); err != nil {
				return nil, err
			}
			col, err := v.column()
			if err != nil {
				return nil, err
			}
			decoded[c] = col
			res.ColumnsDecoded++
			if k >= npred {
				continue
			}
			left := false
			for r := range keep {
				for i, p := range preds {
					if predIdx[i] == c && keep[r] && !p.rowMatches(col.Value(r)) {
						keep[r] = false
					}
				}
				left = left || keep[r]
			}
			if !left {
				res.GroupsEmptied++
				continue groups
			}
		}
		res.RowsDecoded += g.Rows
		row := make(schema.Row, len(outIdx))
		for r, ok := range keep {
			if !ok {
				continue
			}
			for i, c := range outIdx {
				row[i] = decoded[c].Value(r)
			}
			if err := res.Frame.AppendRow(row); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// TestScanColumnsMatchesRowReference is the property behind the
// vectorized scan: over random frames (every kind, nulls, NaN, 1–5 row
// groups, dictionary and plain strings, both codecs, with and without
// blooms), random projections (nil, every column, included) and random
// predicates, ScanColumns returns the frame and every counter of the
// row-at-a-time reference — serially and with the parallel row-group pool.
func TestScanColumnsMatchesRowReference(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 400; iter++ {
		rows := 1 + rng.Intn(200)
		opts := WriterOptions{
			RowGroupRows: (rows + rng.Intn(5)) / (1 + rng.Intn(5)),
			Compression:  Compression(rng.Intn(2)),
		}
		if rng.Intn(2) == 0 {
			opts.BloomColumns = []string{"dict", "plain"}
		}
		f := vectorFrame(t, rng, rows)
		data, err := Encode(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := NewFileReader(data)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 8; q++ {
			perm := rng.Perm(vectorSchema.Len())[:1+rng.Intn(vectorSchema.Len())]
			cols := make([]string, len(perm))
			for i, c := range perm {
				cols[i] = vectorSchema.Field(c).Name
			}
			if rng.Intn(8) == 0 {
				cols = nil
			}
			preds := make([]Predicate, rng.Intn(4))
			for i := range preds {
				preds[i] = vectorPredicate(rng)
			}
			want, err := refScanColumns(fr, cols, preds...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fr.ScanColumns(cols, preds...)
			if err != nil {
				t.Fatalf("iter %d: cols %v preds %+v: %v", iter, cols, preds, err)
			}
			if !got.Frame.Equal(want.Frame) {
				t.Fatalf("iter %d: cols %v preds %+v: %d rows, reference has %d",
					iter, cols, preds, got.Frame.Len(), want.Frame.Len())
			}
			// The reference decodes on one goroutine; the pool may not.
			got.Frame, want.Frame, got.Workers = nil, nil, 0
			if *got != *want {
				t.Fatalf("iter %d: cols %v preds %+v: counters %+v, reference %+v", iter, cols, preds, *got, *want)
			}
		}
	}
}

// TestScanTwoPredicatesOneColumn: a candidate list the dictionary ids
// answer and a range they do not, both on one unprojected string column,
// narrow the selection from the column's one decode.
func TestScanTwoPredicatesOneColumn(t *testing.T) {
	f := vectorFrame(t, rand.New(rand.NewSource(19)), 128)
	data, err := Encode(f, WriterOptions{RowGroupRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{
		{Col: "dict", In: []schema.Value{schema.Str("m0"), schema.Str("m1")}},
		{Col: "dict", Min: schema.Str("m1"), Max: schema.Str("m1")},
	}
	want, err := refScanColumns(fr, []string{"i"}, preds...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fr.ScanColumns([]string{"i"}, preds...)
	if err != nil {
		t.Fatal(err)
	}
	if want.Frame.Len() == 0 || !got.Frame.Equal(want.Frame) {
		t.Fatalf("rows = %d, reference %d (want > 0)", got.Frame.Len(), want.Frame.Len())
	}
	if got.GroupsEmptied != 0 || got.ColumnsDecoded != 2*got.GroupsScanned {
		t.Fatalf("decoded %d chunks over %d groups (%d emptied), want dict and i once a group",
			got.ColumnsDecoded, got.GroupsScanned, got.GroupsEmptied)
	}
}

// TestScanInflatesEachChunkOnce: a candidate list on a projected
// dictionary string column, with blooms and without, both codecs. Every
// group the predicate leaves rows in decodes each needed chunk once —
// the predicate column straight into the batch, not into scratch and
// then again — and a group it empties decodes the predicate column alone.
func TestScanInflatesEachChunkOnce(t *testing.T) {
	f := extFrame(t, 8, 64)
	// node00003 lives in group 0, node00019 in group 2; each "x" candidate
	// sits inside its group's zone map and matches no row.
	in := []schema.Value{schema.Str("node00003"), schema.Str("node00019")}
	for g := 0; g < 8; g++ {
		in = append(in, schema.Str(fmt.Sprintf("node%05dx", g*8+2)))
	}
	for _, blooms := range [][]string{nil, {"node"}} {
		for _, comp := range []Compression{CompressNone, CompressFlate} {
			data, err := Encode(f, WriterOptions{RowGroupRows: 64, Compression: comp, BloomColumns: blooms})
			if err != nil {
				t.Fatal(err)
			}
			fr, err := NewFileReader(data)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fr.ScanColumns([]string{"node", "value"}, Predicate{Col: "node", In: in})
			if err != nil {
				t.Fatal(err)
			}
			if res.Frame.Len() != 16 {
				t.Fatalf("blooms %v comp %d: %d rows, want 16", blooms, comp, res.Frame.Len())
			}
			kept := res.GroupsScanned - res.GroupsEmptied
			if kept != 2 || (blooms == nil && res.GroupsEmptied != 6) {
				t.Fatalf("blooms %v comp %d: %d groups scanned, %d emptied", blooms, comp, res.GroupsScanned, res.GroupsEmptied)
			}
			if want := 2*kept + res.GroupsEmptied; res.ColumnsDecoded != want {
				t.Fatalf("blooms %v comp %d: %d chunks decoded, want %d", blooms, comp, res.ColumnsDecoded, want)
			}
		}
	}
}

// rawChunk builds an uncompressed int column chunk by hand: kind, row
// count, null mask, then the delta block of vals.
func rawChunk(kind schema.Kind, mask byte, vals ...int64) []byte {
	b := []byte{byte(kind)}
	b = binary.AppendUvarint(b, uint64(len(vals)))
	b = append(b, mask)
	return appendIntBlock(b, vals)
}

// rawGroup wraps uncompressed chunks into a row-group block whose every
// column claims the zone map [lo, hi].
func rawGroup(rows int, lo, hi int64, chunks ...[]byte) []byte {
	return codecGroup(CompressNone, rows, schema.Int(lo), schema.Int(hi), chunks...)
}

// codecGroup is rawGroup with every chunk marked by codec comp and the
// zone map [lo, hi] of any kind (null for none).
func codecGroup(comp Compression, rows int, lo, hi schema.Value, chunks ...[]byte) []byte {
	b := []byte{markerRowGroup}
	b = binary.AppendUvarint(b, uint64(rows))
	b = binary.AppendUvarint(b, uint64(len(chunks)))
	for _, ch := range chunks {
		b = appendStats(b, ColStats{Count: rows, Min: lo, Max: hi})
		b = append(b, byte(comp))
		b = binary.AppendUvarint(b, uint64(len(ch)))
		b = binary.AppendUvarint(b, uint64(len(ch)))
		b = append(b, ch...)
	}
	return b
}

func rawHeader(fields ...schema.Field) []byte {
	var b bytes.Buffer
	w := NewWriter(&b, schema.New(fields...), WriterOptions{})
	if err := w.Close(); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// hostileNullStream is a stream no Writer emits: row 1 of its one int
// column is null, yet the payload under the null bit is 99. The same
// bytes sit in the FuzzFileReader corpus.
func hostileNullStream() []byte {
	return append(rawHeader(schema.Field{Name: "v", Kind: schema.KindInt}),
		rawGroup(3, 7, 99, rawChunk(schema.KindInt, 0b010, 7, 99, 8))...)
}

// TestHostileNullPayloadIsZeroed: adopting a decoded block must not let a
// chunk smuggle a value through a null — neither into Value nor into the
// raw slices the cold fold reads.
func TestHostileNullPayloadIsZeroed(t *testing.T) {
	data := hostileNullStream()
	for name, read := range map[string]func() (*schema.Frame, error){
		"ReadAll": func() (*schema.Frame, error) { return ReadAll(data) },
		"ScanColumns": func() (*schema.Frame, error) {
			fr, err := NewFileReader(data)
			if err != nil {
				return nil, err
			}
			res, err := fr.ScanColumns([]string{"v"})
			if err != nil {
				return nil, err
			}
			return res.Frame, nil
		},
	} {
		f, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		col := f.Col(0)
		if f.Len() != 3 || !col.IsNull(1) || !col.Value(1).IsNull() {
			t.Fatalf("%s: row 1 = %v (null %v) of %d rows, want null", name, col.Value(1), col.IsNull(1), f.Len())
		}
		if got := col.Ints(); got[0] != 7 || got[1] != 0 || got[2] != 8 {
			t.Fatalf("%s: Ints() = %v, want [7 0 8]", name, got)
		}
	}
	// A range the smuggled 99 would satisfy finds nothing.
	fr, err := NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fr.ScanColumns([]string{"v"}, Predicate{Col: "v", Min: schema.Int(50)})
	if err != nil || res.Frame.Len() != 0 {
		t.Fatalf("range over the hidden payload: %d rows, %v", res.Frame.Len(), err)
	}
}

// TestChunkKindMustMatchSchema: a chunk that declares another kind than
// its schema field is corrupt however many of its values are null.
func TestChunkKindMustMatchSchema(t *testing.T) {
	data := append(rawHeader(schema.Field{Name: "v", Kind: schema.KindInt}),
		rawGroup(2, 0, 0, rawChunk(schema.KindTime, 0b11, 0, 0))...)
	if _, err := ReadAll(data); err == nil {
		t.Fatal("time chunk under an int field accepted")
	}
}

// wrongKindZoneMapStream is a stream no Writer emits: the time column of
// its one row carries a string zone map. The same bytes sit in the
// FuzzFileReader corpus.
func wrongKindZoneMapStream() []byte {
	b := append(rawHeader(schema.Field{Name: "time", Kind: schema.KindTime}), markerRowGroup, 1, 1)
	b = appendStats(b, ColStats{Count: 1, Min: schema.Str("a"), Max: schema.Str("z")})
	ch := rawChunk(schema.KindTime, 0, 5)
	b = append(b, byte(CompressNone))
	b = binary.AppendUvarint(b, uint64(len(ch)))
	b = binary.AppendUvarint(b, uint64(len(ch)))
	return append(b, ch...)
}

// TestZoneMapKindMustMatchSchema: a non-null zone-map bound of another
// kind than its column is corrupt. Accepted, it let a range predicate
// that covers the row prune it, since Compare orders mixed kinds by kind
// alone. A stats row of the wrong width is refused with its width, not
// with a nil error.
func TestZoneMapKindMustMatchSchema(t *testing.T) {
	data := wrongKindZoneMapStream()
	if _, err := NewFileReader(data); err == nil || !strings.Contains(err.Error(), "zone map") {
		t.Fatalf("string zone map on a time column: %v, want it refused", err)
	}
	if _, err := ReadAll(data); err == nil {
		t.Fatal("ReadAll accepted the string zone map")
	}
	b := append(rawHeader(schema.Field{Name: "v", Kind: schema.KindInt}), markerRowGroup, 1, 1, 1, 0)
	b = schema.AppendRow(b, schema.Row{schema.Int(5)})
	if _, err := NewFileReader(b); err == nil || strings.Contains(err.Error(), "<nil>") {
		t.Fatalf("one-value stats row: %v, want an error naming the width", err)
	}
}

// TestScanErrorIsLowestCorruptColumn: with corrupt chunks in one row
// group, every call reports the first in decode order — the predicate
// columns ascending, then the projection-only ones ascending — not map
// order, and not the lowest column when that one is projection-only.
func TestScanErrorIsLowestCorruptColumn(t *testing.T) {
	fields := make([]schema.Field, 6)
	chunks := make([][]byte, len(fields))
	for c := range fields {
		fields[c] = schema.Field{Name: fmt.Sprintf("c%d", c), Kind: schema.KindInt}
		chunks[c] = rawChunk(schema.KindInt, 0, 1, 2)
	}
	for _, c := range []int{1, 2, 4} {
		chunks[c] = chunks[c][:len(chunks[c])-1] // truncated int block
	}
	fr, err := NewFileReader(append(rawHeader(fields...), rawGroup(2, 1, 2, chunks...)...))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cols []string
		pred string
		want string
	}{
		{[]string{"c5", "c4", "c0"}, "c2", "column 2:"},
		{[]string{"c5", "c1", "c0"}, "c2", "column 2:"}, // predicate column first
		{[]string{"c4", "c1"}, "c5", "column 1:"},       // then projection ascending
	} {
		for i := 0; i < 50; i++ {
			_, err := fr.ScanColumns(tc.cols, Predicate{Col: tc.pred, Min: schema.Int(0)})
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("cols %v pred %s, call %d: error %v, want %q", tc.cols, tc.pred, i, err, tc.want)
			}
		}
	}
}

// writeRows is the row-at-a-time writer loop bulk WriteFrame replaced.
func writeRows(t testing.TB, f *schema.Frame, opts WriterOptions) []byte {
	t.Helper()
	var b bytes.Buffer
	w := NewWriter(&b, f.Schema(), opts)
	for i := 0; i < f.Len(); i++ {
		if err := w.WriteRow(f.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWriteFrameMatchesWriteRowBytes: bulk WriteFrame emits exactly the
// bytes of a WriteRow loop — every kind, nulls, zone maps and blooms —
// with frames cut so that row-group boundaries fall before, inside and
// at the end of a WriteFrame call, and with rows interleaved.
func TestWriteFrameMatchesWriteRowBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := vectorFrame(t, rng, 257)
	for _, opts := range []WriterOptions{
		{RowGroupRows: 64, Compression: CompressFlate, BloomColumns: []string{"dict", "plain"}},
		{RowGroupRows: 50},
		{RowGroupRows: 257, Compression: CompressFlate},
		{RowGroupRows: 1, Compression: CompressFlate},
		{},
	} {
		want := writeRows(t, f, opts)
		for _, cut := range []int{1, 7, 50, 64, 100, 128, 257} {
			var b bytes.Buffer
			w := NewWriter(&b, f.Schema(), opts)
			for lo := 0; lo < f.Len(); lo += cut {
				part := schema.NewFrame(f.Schema())
				if err := part.AppendRange(f, lo, min(lo+cut, f.Len())); err != nil {
					t.Fatal(err)
				}
				if lo == cut { // one row by WriteRow in the middle of the bulk calls
					if err := w.WriteRow(part.Row(0)); err != nil {
						t.Fatal(err)
					}
					part = part.Gather(seq32(1, part.Len()))
				}
				if err := w.WriteFrame(part); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b.Bytes(), want) {
				t.Fatalf("opts %+v, frames of %d rows: bulk stream differs from the WriteRow stream", opts, cut)
			}
		}
	}
	other := schema.NewFrame(schema.New(schema.Field{Name: "x", Kind: schema.KindInt}))
	if err := other.AppendRow(schema.Row{schema.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := NewWriter(&bytes.Buffer{}, f.Schema(), WriterOptions{}).WriteFrame(other); err == nil {
		t.Fatal("frame of another schema accepted")
	}
}

func seq32(lo, hi int) []int32 {
	sel := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		sel = append(sel, int32(i))
	}
	return sel
}

// TestEncodeBytesUnchanged pins the stream for a fixed frame to the
// digest the writer produced before it reused one flate.Writer and
// buffered by column range: the on-disk format did not move, so objects
// written on either side of that change are interchangeable.
func TestEncodeBytesUnchanged(t *testing.T) {
	f := vectorFrame(t, rand.New(rand.NewSource(29)), 1000)
	data, err := Encode(f, WriterOptions{RowGroupRows: 300, Compression: CompressFlate, BloomColumns: []string{"dict"}})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const want = "7bd245dfef5bbad8700b614b0cb19ca98e1e5408f9a54e62c9f86e2895a97704"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("stream digest %s, want %s (%d bytes)", got, want, len(data))
	}
}

// coldShapedFile is an offload-shaped object: tsdb.ColdSchema's layout,
// 8 deflated row groups of 4096 cells sorted by (metric, component,
// bucket), the dimensions bloomed.
func coldShapedFile(b *testing.B) []byte {
	sch := schema.New(
		schema.Field{Name: "stripe", Kind: schema.KindInt},
		schema.Field{Name: "seq", Kind: schema.KindInt},
		schema.Field{Name: "bucket", Kind: schema.KindTime},
		schema.Field{Name: "system", Kind: schema.KindString},
		schema.Field{Name: "source", Kind: schema.KindString},
		schema.Field{Name: "component", Kind: schema.KindString},
		schema.Field{Name: "metric", Kind: schema.KindString},
		schema.Field{Name: "count", Kind: schema.KindInt},
		schema.Field{Name: "sum", Kind: schema.KindFloat},
		schema.Field{Name: "min", Kind: schema.KindFloat},
		schema.Field{Name: "max", Kind: schema.KindFloat},
		schema.Field{Name: "last", Kind: schema.KindFloat},
		schema.Field{Name: "last_ts", Kind: schema.KindTime},
	)
	const metrics, components, buckets = 8, 16, 256 // 32768 cells
	f := schema.NewFrame(sch)
	seq := make([]int64, 16)
	for m := 0; m < metrics; m++ {
		for c := 0; c < components; c++ {
			for k := 0; k < buckets; k++ {
				stripe := int64((m*31 + c*7 + k) % 16)
				ts := int64(k) * 15 * int64(time.Second)
				v := float64(700 + (m*c+k)%100)
				err := f.AppendRow(schema.Row{
					schema.Int(stripe), schema.Int(seq[stripe]), schema.TimeNanos(ts),
					schema.Str("compass"), schema.Str("power_temp"),
					schema.Str(fmt.Sprintf("node%05d", c)), schema.Str(fmt.Sprintf("metric_%d", m)),
					schema.Int(15), schema.Float(v * 15), schema.Float(v - 3), schema.Float(v + 3),
					schema.Float(v), schema.TimeNanos(ts + 14*int64(time.Second)),
				})
				if err != nil {
					b.Fatal(err)
				}
				seq[stripe]++
			}
		}
	}
	data, err := Encode(f, WriterOptions{
		RowGroupRows: 4096,
		Compression:  CompressFlate,
		BloomColumns: []string{"system", "source", "component", "metric"},
	})
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkScanColumnsCold is the cold read path of one federated query
// in isolation: the projection tsdb's coldPlan asks for (fold
// coordinates, count, one grouped dimension, one aggregate), a bucket
// range and a metric candidate list, over an offload-shaped file.
func BenchmarkScanColumnsCold(b *testing.B) {
	fr, err := NewFileReader(coldShapedFile(b))
	if err != nil {
		b.Fatal(err)
	}
	cols := []string{"stripe", "seq", "bucket", "count", "component", "sum"}
	preds := []Predicate{
		{Col: "bucket", Min: schema.TimeNanos(0), Max: schema.TimeNanos(200*15*int64(time.Second) - 1)},
		{Col: "metric", In: []schema.Value{schema.Str("metric_2"), schema.Str("metric_3"), schema.Str("metric_5")}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		res, err := fr.ScanColumns(cols, preds...)
		if err != nil {
			b.Fatal(err)
		}
		rows += res.RowsDecoded
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}

// TestScanCodesNameEqualValues: rows a scan gives one code hold one value,
// across row groups whose dictionaries code values afresh, in plain
// chunks, and through a null that a hostile dictionary chunk writes over
// an entry other rows share; a dictionary chunk's rows do share codes.
func TestScanCodesNameEqualValues(t *testing.T) {
	check := func(name string, data []byte, col string, wantShared bool) {
		t.Helper()
		fr, err := NewFileReader(data)
		if err != nil {
			t.Fatal(err)
		}
		var b Batch
		if _, err := fr.ScanInto(&b, []string{col}); err != nil {
			t.Fatal(err)
		}
		v := &b.Cols[0]
		valueOf := map[uint32]string{}
		for _, r := range b.Sel {
			c := v.Codes[r]
			if int(c) >= len(v.Strs) {
				t.Fatalf("%s: row %d has code %d of %d rows", name, r, c, len(v.Strs))
			}
			if s, ok := valueOf[c]; ok && s != v.Strs[r] {
				t.Fatalf("%s: code %d names %q and %q", name, c, s, v.Strs[r])
			}
			valueOf[c] = v.Strs[r]
		}
		if shared := len(valueOf) < len(b.Sel); shared != wantShared {
			t.Fatalf("%s: %d codes over %d rows, want shared codes %v", name, len(valueOf), len(b.Sel), wantShared)
		}
	}
	rng := rand.New(rand.NewSource(40))
	f := schema.NewFrame(schema.New(schema.Field{Name: "dict", Kind: schema.KindString}, schema.Field{Name: "plain", Kind: schema.KindString}))
	for r := 0; r < 700; r++ {
		if err := f.AppendRow(schema.Row{schema.Str(fmt.Sprintf("m%d", rng.Intn(4))), schema.Str(fmt.Sprintf("p%d", rng.Intn(1000)))}); err != nil {
			t.Fatal(err)
		}
	}
	data := writeRows(t, f, WriterOptions{RowGroupRows: 64, Compression: CompressFlate})
	check("dict", data, "dict", true)
	check("plain", data, "plain", false)
	// A null in a chunk costs its rows their shared codes, not their values.
	check("dict with nulls", writeRows(t, vectorFrame(t, rng, 700), WriterOptions{RowGroupRows: 64}), "dict", false)

	// Row 1 is null over "m1", an entry rows 0, 3, 5 and 7 read as "m1".
	vals := []string{"m1", "m1", "m2", "m1", "m2", "m1", "m2", "m1"}
	chunk := binary.AppendUvarint([]byte{byte(schema.KindString)}, uint64(len(vals)))
	chunk = append(append(chunk, 0b10), stringBlock(vals, false)...)
	hostile := append(rawHeader(schema.Field{Name: "s", Kind: schema.KindString}), markerRowGroup, byte(len(vals)), 1)
	hostile = appendStats(hostile, ColStats{Count: len(vals), NullCount: 1, Min: schema.Str("m1"), Max: schema.Str("m2")})
	hostile = append(hostile, byte(CompressNone), byte(len(chunk)), byte(len(chunk)))
	check("null over a shared entry", append(hostile, chunk...), "s", false)
}

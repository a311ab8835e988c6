package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"odakit/internal/schema"
)

// lightSchema has a column of every kind; lightFrame fills each with one
// of the shapes the writer chooses between.
var lightSchema = schema.New(
	schema.Field{Name: "ts", Kind: schema.KindTime},
	schema.Field{Name: "i", Kind: schema.KindInt},
	schema.Field{Name: "f", Kind: schema.KindFloat},
	schema.Field{Name: "s", Kind: schema.KindString},
	schema.Field{Name: "ok", Kind: schema.KindBool},
)

// lightShapes names how lightFrame fills a column: constant, in runs,
// climbing by a fixed step, or noise.
var lightShapes = []string{"constant", "runs", "step", "noise"}

// lightFloat draws a float: NaNs with their payload bits, both zeros,
// infinities, and values that share their top bits or do not.
func lightFloat(rng *rand.Rand, shape string, r int) float64 {
	switch rng.Intn(16) {
	case 0:
		return math.Float64frombits(0x7ff8000000000000 | uint64(rng.Int63n(1<<51)))
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1 - 2*rng.Intn(2))
	}
	switch shape {
	case "constant":
		return 712.25
	case "runs":
		return float64(700 + r/50)
	case "step":
		return 700 + float64(r)*0.001
	}
	return math.Float64frombits(rng.Uint64())
}

// lightFrame is rows rows whose columns each take one shape and, for
// some columns, nulls.
func lightFrame(t testing.TB, rng *rand.Rand, rows int) *schema.Frame {
	t.Helper()
	shapes := make([]string, lightSchema.Len())
	nullEvery := make([]int, lightSchema.Len())
	for c := range shapes {
		shapes[c] = lightShapes[rng.Intn(len(lightShapes))]
		nullEvery[c] = []int{0, 0, 5, 40}[rng.Intn(4)]
	}
	f := schema.NewFrame(lightSchema)
	for r := 0; r < rows; r++ {
		row := make(schema.Row, lightSchema.Len())
		for c := range row {
			if nullEvery[c] > 0 && rng.Intn(nullEvery[c]) == 0 {
				row[c] = schema.Null
				continue
			}
			shape := shapes[c]
			var n int64
			switch shape {
			case "constant":
				n = 7
			case "runs":
				n = int64(r / 37)
			case "step":
				n = int64(r) * 15_000_000_000
			default:
				n = rng.Int63() - rng.Int63()
			}
			switch lightSchema.Field(c).Kind {
			case schema.KindTime:
				row[c] = schema.TimeNanos(n)
			case schema.KindInt:
				if rng.Intn(30) == 0 {
					n = []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
				}
				row[c] = schema.Int(n)
			case schema.KindFloat:
				row[c] = schema.Float(lightFloat(rng, shape, r))
			case schema.KindString:
				row[c] = schema.Str(fmt.Sprintf("node%05d", n%1000))
			case schema.KindBool:
				row[c] = schema.Bool(n%2 == 0)
			}
		}
		if err := f.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// sameBits reports whether two decoded columns hold the same nulls and
// the same payload, floats bit for bit.
func sameBits(a, b *schema.Column) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.IsNull(i) != b.IsNull(i) {
			return false
		}
	}
	switch a.Kind() {
	case schema.KindFloat:
		for i, v := range a.Floats() {
			if math.Float64bits(v) != math.Float64bits(b.Floats()[i]) {
				return false
			}
		}
		return true
	case schema.KindString:
		return fmt.Sprint(a.Strs()) == fmt.Sprint(b.Strs())
	}
	return fmt.Sprint(a.Ints()) == fmt.Sprint(b.Ints())
}

// flateLen is the length of data deflated as the writer deflates it.
func flateLen(t *testing.T, w *Writer, data []byte) int {
	z, err := w.deflate(data)
	if err != nil {
		t.Fatal(err)
	}
	return len(z)
}

// TestLightFormsRoundTrip: random columns of every kind — nulls, NaN
// payload bits, ±0, constant runs, steps and noise — come back bit for bit
// through ReadAll, ScanColumns and ScanInto, under either option. Every
// chunk is the smallest of the forms the option allows — its plain form,
// under flate its plain form deflated, its light form — and a tie goes
// to the light form. Each kind is stored light somewhere, and flate still
// wins somewhere.
func TestLightFormsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	light := map[schema.Kind]int{}
	deflated := 0
	var zw Writer
	for iter := 0; iter < 80; iter++ {
		f := lightFrame(t, rng, 1+rng.Intn(500))
		opts := WriterOptions{RowGroupRows: []int{1, 7, 64, 256, 1024}[rng.Intn(5)]}
		if rng.Intn(2) == 0 {
			opts.Compression = CompressFlate
		}
		data, err := Encode(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		all, err := ReadAll(data)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := NewFileReader(data)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fr.ScanColumns(nil)
		if err != nil {
			t.Fatal(err)
		}
		var b Batch
		if _, err := fr.ScanInto(&b, []string{"ok", "s", "f", "i", "ts"}); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < lightSchema.Len(); c++ {
			want := f.Col(c)
			if !sameBits(all.Col(c), want) || !sameBits(res.Frame.Col(c), want) {
				t.Fatalf("iteration %d: column %s does not round-trip (opts %+v)", iter, lightSchema.Field(c).Name, opts)
			}
			v := &b.Cols[lightSchema.Len()-1-c]
			v.compact(b.Sel)
			got, err := v.column()
			if err != nil || !sameBits(got, want) {
				t.Fatalf("iteration %d: column %s does not round-trip through ScanInto: %v", iter, lightSchema.Field(c).Name, err)
			}
		}

		var enc chunkEncoder
		for gi := range fr.groups {
			g := &fr.groups[gi]
			part, err := fr.ReadGroup(gi)
			if err != nil {
				t.Fatal(err)
			}
			for c, ch := range g.chunks {
				enc.encode(part.Col(c))
				want, wantComp := len(enc.plain), CompressNone
				if opts.Compression == CompressFlate {
					if z := flateLen(t, &zw, enc.plain); z < want {
						want, wantComp = z, CompressFlate
					}
				}
				if l := len(enc.light); l > 0 && l <= want {
					want, wantComp = l, codecLight
				}
				if ch.n != want || ch.comp != wantComp {
					t.Fatalf("iteration %d, group %d, column %d: codec %d chunk of %d bytes, want codec %d of %d",
						iter, gi, c, ch.comp, ch.n, wantComp, want)
				}
				switch ch.comp {
				case codecLight:
					light[lightSchema.Field(c).Kind]++
				case CompressFlate:
					deflated++
				}
			}
		}
	}
	for _, f := range lightSchema.Fields() {
		if light[f.Kind] == 0 {
			t.Errorf("no %v chunk was stored light", f.Kind)
		}
	}
	if deflated == 0 {
		t.Error("no chunk was stored deflated")
	}
	t.Logf("light chunks by kind %v, %d deflated", light, deflated)
}

// lightChunk is a light-form chunk of n rows of kind: the null flag (and
// the mask after it when mask is not nil), then payload.
func lightChunk(kind schema.Kind, n int, mask []byte, payload ...byte) []byte {
	b := binary.AppendUvarint([]byte{byte(kind)}, uint64(n))
	if mask == nil {
		b = append(b, 0)
	} else {
		b = append(append(b, 1), mask...)
	}
	return append(b, payload...)
}

// TestLightFormHostile: light chunks no writer emits are refused by name
// through every read path, and none makes a reader allocate past its
// group's row count.
func TestLightFormHostile(t *testing.T) {
	uv := func(vals ...uint64) (b []byte) {
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	floatBlock := func(entries, width int, ids []byte, low []byte) []byte {
		b := uv(uint64(entries))
		for k := 0; k < entries; k++ {
			b = binary.LittleEndian.AppendUint16(b, uint16(0x4080+k))
		}
		return append(append(append(b, byte(width)), ids...), low...)
	}
	low := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6}, 3)
	for _, tc := range []struct {
		name  string
		kind  schema.Kind
		chunk []byte
		want  string
	}{
		{"int zero run", schema.KindInt, lightChunk(schema.KindInt, 3, nil, append(uv(10, 0), uv(2, 3)...)...), "run length"},
		{"int overlong run", schema.KindInt, lightChunk(schema.KindInt, 3, nil, uv(10, 4)...), "run length"},
		{"int run past 2^40", schema.KindInt, lightChunk(schema.KindInt, 3, nil, uv(10, 1<<40)...), "run length"},
		{"int runs short", schema.KindInt, lightChunk(schema.KindInt, 3, nil, uv(10, 2)...), "truncated int run"},
		{"null flag", schema.KindInt, append(uv(uint64(schema.KindInt), 3), 2, 20, 3), "null flag"},
		{"string id past entries", schema.KindString, lightChunk(schema.KindString, 3, nil, append([]byte{strRuns}, uv(1, 1, 'a', 1, 3)...)...), "dict index"},
		{"string zero run", schema.KindString, lightChunk(schema.KindString, 3, nil, append([]byte{strRuns}, uv(1, 1, 'a', 0, 0, 0, 3)...)...), "run length"},
		{"string overlong run", schema.KindString, lightChunk(schema.KindString, 3, nil, append([]byte{strRuns}, uv(1, 1, 'a', 0, 4)...)...), "run length"},
		{"float id past entries", schema.KindFloat, lightChunk(schema.KindFloat, 3, nil, floatBlock(3, 2, []byte{0b110100}, low)...), "float id 3"},
		{"float width for another table", schema.KindFloat, lightChunk(schema.KindFloat, 3, nil, floatBlock(3, 1, []byte{0b010}, low)...), "table entries"},
		{"float empty table", schema.KindFloat, lightChunk(schema.KindFloat, 3, nil, floatBlock(0, 0, nil, low)...), "table size"},
		{"float table past 256", schema.KindFloat, lightChunk(schema.KindFloat, 3, nil, floatBlock(257, 9, []byte{0, 0, 0, 0}, low)...), "table size"},
		{"float low bytes truncated", schema.KindFloat, lightChunk(schema.KindFloat, 3, nil, floatBlock(2, 1, []byte{0b010}, low[:17])...), "truncated float"},
	} {
		data := append(rawHeader(schema.Field{Name: "v", Kind: tc.kind}), codecGroup(codecLight, 3, schema.Null, schema.Null, tc.chunk)...)
		if _, err := ReadAll(data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadAll: %v, want %q", tc.name, err, tc.want)
		}
		fr, err := NewFileReader(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := fr.ScanColumns(nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ScanColumns: %v, want %q", tc.name, err, tc.want)
		}
		allocs := testing.AllocsPerRun(5, func() { _, _ = fr.ReadGroup(0) })
		if allocs > 20 {
			t.Errorf("%s: a 3-row group allocates %.0f objects", tc.name, allocs)
		}
	}

	// The same chunks, well formed, decode.
	good := append(rawHeader(schema.Field{Name: "f", Kind: schema.KindFloat}),
		codecGroup(codecLight, 3, schema.Null, schema.Null, lightChunk(schema.KindFloat, 3, []byte{0b100}, floatBlock(3, 2, []byte{0b100100}, low)...))...)
	f, err := ReadAll(good)
	if err != nil {
		t.Fatal(err)
	}
	wantBits := []uint64{0x4080060504030201, 0x4081060504030201, 0}
	for i, v := range f.Col(0).Floats() {
		if math.Float64bits(v) != wantBits[i] || f.Col(0).IsNull(i) != (i == 2) {
			t.Fatalf("row %d: %x (null %v), want %x", i, math.Float64bits(v), f.Col(0).IsNull(i), wantBits[i])
		}
	}
}

// TestUnknownChunkCodecRefused: a chunk codec byte no writer emits is
// refused when the index is parsed, not read as raw bytes.
func TestUnknownChunkCodecRefused(t *testing.T) {
	for _, comp := range []Compression{3, 0x7f, 0xff} {
		data := append(rawHeader(schema.Field{Name: "v", Kind: schema.KindInt}), codecGroup(comp, 2, schema.Int(1), schema.Int(2), rawChunk(schema.KindInt, 0, 1, 2))...)
		if _, err := NewFileReader(data); err == nil || !strings.Contains(err.Error(), "unknown chunk codec") {
			t.Errorf("codec %d: %v, want it refused", comp, err)
		}
	}
	for _, comp := range []Compression{CompressNone, codecLight} {
		chunk := rawChunk(schema.KindInt, 0, 1, 2)
		if comp == codecLight {
			chunk = lightChunk(schema.KindInt, 2, nil, 2, 1, 2, 1)
		}
		f, err := ReadAll(append(rawHeader(schema.Field{Name: "v", Kind: schema.KindInt}), codecGroup(comp, 2, schema.Int(1), schema.Int(2), chunk)...))
		if err != nil || fmt.Sprint(f.Col(0).Ints()) != "[1 2]" {
			t.Fatalf("codec %d: %v, %v", comp, f, err)
		}
	}
}

// TestIndexSlabsAreExact: a parsed index keeps no spare capacity from the
// appends that built it, so Bytes is what it holds.
func TestIndexSlabsAreExact(t *testing.T) {
	data, err := Encode(lightFrame(t, rand.New(rand.NewSource(44)), 999), WriterOptions{RowGroupRows: 37, BloomColumns: []string{"s"}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ParseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, lc := range map[string][2]int{
		"groups": {len(ix.groups), cap(ix.groups)}, "stats": {len(ix.stats), cap(ix.stats)},
		"chunks": {len(ix.chunks), cap(ix.chunks)}, "blooms": {len(ix.blooms), cap(ix.blooms)},
		"words": {len(ix.words), cap(ix.words)},
	} {
		if lc[0] == 0 || lc[0] != lc[1] {
			t.Errorf("%s: length %d, capacity %d", name, lc[0], lc[1])
		}
	}
}

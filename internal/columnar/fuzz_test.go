package columnar

import (
	"testing"
	"time"

	"odakit/internal/schema"
)

// fuzzSeedStreams builds a spread of well-formed OCF streams covering
// every column kind, every chunk form (plain, flate and light), nulls,
// dictionary and plain strings, and stream concatenation — the shapes the
// mutator starts from.
func fuzzSeedStreams(f *testing.F) [][]byte {
	f.Helper()
	sch := schema.New(
		schema.Field{Name: "ts", Kind: schema.KindTime},
		schema.Field{Name: "node", Kind: schema.KindString},
		schema.Field{Name: "value", Kind: schema.KindFloat},
		schema.Field{Name: "seq", Kind: schema.KindInt},
		schema.Field{Name: "ok", Kind: schema.KindBool},
	)
	fr := schema.NewFrame(sch)
	t0 := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 24; i++ {
		row := schema.Row{
			schema.Time(t0.Add(time.Duration(i) * time.Second)),
			schema.Str([]string{"node-1", "node-2", "node-3"}[i%3]),
			schema.Float(float64(i) * 1.5),
			schema.Int(int64(i)),
			schema.Bool(i%2 == 0),
		}
		if i%7 == 0 {
			row[2] = schema.Null
		}
		if err := fr.AppendRow(row); err != nil {
			f.Fatal(err)
		}
	}
	var streams [][]byte
	for _, comp := range []Compression{CompressNone, CompressFlate} {
		b, err := Encode(fr, WriterOptions{Compression: comp, RowGroupRows: 8})
		if err != nil {
			f.Fatal(err)
		}
		streams = append(streams, b)
	}
	// Concatenated streams with equal schemas are a valid stream.
	streams = append(streams, append(append([]byte{}, streams[0]...), streams[1]...))

	// Every column of this frame is stored in its light form, floats with
	// nulls and without: runs of deltas, runs of ids, split floats, a
	// bitmap with no null mask.
	light := schema.NewFrame(sch)
	for i := 0; i < 48; i++ {
		row := schema.Row{
			schema.Time(t0.Add(time.Duration(i) * 15 * time.Second)),
			schema.Str([]string{"node-1", "node-2"}[i/24]),
			schema.Float(700 + float64(i)*0.25),
			schema.Int(int64(i) * 3),
			schema.Bool(i%2 == 0),
		}
		if i >= 32 && i%5 == 0 {
			row[2] = schema.Null
		}
		if err := light.AppendRow(row); err != nil {
			f.Fatal(err)
		}
	}
	b, err := Encode(light, WriterOptions{RowGroupRows: 16})
	if err != nil {
		f.Fatal(err)
	}
	ix, err := ParseIndex(b)
	if err != nil {
		f.Fatal(err)
	}
	for c := 0; c < sch.Len(); c++ {
		for _, g := range ix.groups {
			if g.chunks[c].comp != codecLight {
				f.Fatalf("seed column %s is not stored light (codec %d)", sch.Field(c).Name, g.chunks[c].comp)
			}
		}
	}
	return append(streams, b)
}

// FuzzFileReader fuzzes the OCF row-group reader end to end: structural
// parse, chunk inflate, and column decode. Arbitrary bytes must produce
// an error or a frame — never a panic, hang, or outsized allocation.
func FuzzFileReader(f *testing.F) {
	streams := fuzzSeedStreams(f)
	for _, s := range streams {
		f.Add(s)
		// Truncations and single-byte corruptions of a valid stream seed
		// the mutator close to the interesting decode paths.
		f.Add(s[:len(s)/2])
		for _, i := range []int{4, len(s) / 3, len(s) - 2} {
			mut := append([]byte{}, s...)
			mut[i] ^= 0xff
			f.Add(mut)
		}
	}
	f.Add([]byte("OCF1"))
	f.Add([]byte{})
	f.Add(hostileNullStream())
	f.Add(wrongKindZoneMapStream())

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound per-exec cost; structure, not size, is under test
		}
		fr, err := NewFileReader(data)
		if err != nil {
			return
		}
		total := 0
		for i := 0; i < fr.NumRowGroups(); i++ {
			g, err := fr.ReadGroup(i)
			if err != nil {
				return
			}
			total += g.Len()
		}
		// A stream whose groups all decode must also survive the scan and
		// bulk-read paths, and they must agree on the row count.
		all, err := ReadAll(data)
		if err != nil {
			t.Fatalf("groups decoded but ReadAll failed: %v", err)
		}
		if all.Len() != total {
			t.Fatalf("ReadAll rows %d != sum of groups %d", all.Len(), total)
		}
		// Decoded blocks are adopted, not re-appended: whatever a chunk
		// hid under a null bit must be gone from the raw payload.
		for c := 0; c < all.Schema().Len(); c++ {
			col := all.Col(c)
			for i := 0; i < col.Len(); i++ {
				if !col.IsNull(i) {
					continue
				}
				if (col.Ints() != nil && col.Ints()[i] != 0) || (col.Floats() != nil && col.Floats()[i] != 0) ||
					(col.Strs() != nil && col.Strs()[i] != "") {
					t.Fatalf("column %d row %d: null with a non-zero payload", c, i)
				}
			}
		}
		res, err := fr.ScanColumns(nil)
		if err != nil {
			t.Fatalf("groups decoded but Scan failed: %v", err)
		}
		if res.Frame.Len() != total {
			t.Fatalf("unfiltered Scan rows %d != %d", res.Frame.Len(), total)
		}
	})
}

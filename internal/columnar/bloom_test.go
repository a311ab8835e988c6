package columnar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"odakit/internal/schema"
)

func TestBloomBasics(t *testing.T) {
	b := NewBloom(1000)
	for i := 0; i < 1000; i++ {
		b.Insert(BloomHash(fmt.Sprintf("node%05d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.MayContain(BloomHash(fmt.Sprintf("node%05d", i))) {
			t.Fatalf("inserted value node%05d reported absent", i)
		}
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.MayContain(BloomHash(fmt.Sprintf("ghost%05d", i))) {
			fp++
		}
	}
	// ~1% expected at 10 bits/value; 5% is a loose sanity ceiling.
	if fp > probes/20 {
		t.Fatalf("false-positive rate too high: %d/%d", fp, probes)
	}
	var nilBloom *Bloom
	if !nilBloom.MayContain(42) {
		t.Fatal("nil bloom must not prune")
	}
}

func TestBloomEncodeDecodeRoundTrip(t *testing.T) {
	b := NewBloom(64)
	rng := rand.New(rand.NewSource(7))
	hashes := make([]uint64, 64)
	for i := range hashes {
		hashes[i] = rng.Uint64()
		b.Insert(hashes[i])
	}
	enc := EncodeBloom(b)
	dec, err := DecodeBloom(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hashes {
		if !dec.MayContain(h) {
			t.Fatalf("decoded bloom lost hash %x", h)
		}
	}
	// nil round trip
	dec, err = DecodeBloom(EncodeBloom(nil))
	if err != nil || dec != nil {
		t.Fatalf("nil bloom round trip: %v %v", dec, err)
	}
}

func TestDecodeBloomHostile(t *testing.T) {
	cases := [][]byte{
		{},     // empty
		{0x81}, // truncated uvarint
		{0x07}, // not a multiple of block words
		{0x08}, // declared words, no payload
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge count
	}
	for i, c := range cases {
		if _, err := DecodeBloom(c); err == nil {
			t.Fatalf("case %d: hostile bloom accepted", i)
		}
	}
	// trailing bytes after a valid filter must be rejected
	enc := EncodeBloom(NewBloom(4))
	if _, err := DecodeBloom(append(enc, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// extFrame builds a frame whose "node" column clusters into per-group
// distinct sets, so bloom and dictionary pruning have something to skip.
func extFrame(t testing.TB, groups, rowsPerGroup int) *schema.Frame {
	t.Helper()
	sch := schema.New(
		schema.Field{Name: "ts", Kind: schema.KindTime},
		schema.Field{Name: "node", Kind: schema.KindString},
		schema.Field{Name: "value", Kind: schema.KindFloat},
	)
	f := schema.NewFrame(sch)
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	for g := 0; g < groups; g++ {
		for r := 0; r < rowsPerGroup; r++ {
			row := schema.Row{
				schema.Time(base.Add(time.Duration(g*rowsPerGroup+r) * time.Second)),
				schema.Str(fmt.Sprintf("node%05d", g*8+r%8)),
				schema.Float(float64(g*rowsPerGroup + r)),
			}
			if err := f.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

func TestBloomPruningSkipsGroups(t *testing.T) {
	f := extFrame(t, 8, 64)
	for _, comp := range []Compression{CompressNone, CompressFlate} {
		data, err := Encode(f, WriterOptions{
			RowGroupRows: 64, Compression: comp, BloomColumns: []string{"node"},
		})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := NewFileReader(data)
		if err != nil {
			t.Fatal(err)
		}
		if fr.NumRowGroups() != 8 {
			t.Fatalf("got %d row groups, want 8", fr.NumRowGroups())
		}
		// node00003 lives only in group 0.
		res, err := fr.ScanColumns([]string{"ts", "value"}, Predicate{
			Col: "node", In: []schema.Value{schema.Str("node00003")},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Frame.Len() != 8 {
			t.Fatalf("comp %d: got %d rows, want 8", comp, res.Frame.Len())
		}
		pruned := res.GroupsTotal - res.GroupsScanned + res.GroupsEmptied
		if pruned < 7 {
			t.Fatalf("comp %d: pruned %d groups (scanned=%d emptied=%d), want >= 7",
				comp, pruned, res.GroupsScanned, res.GroupsEmptied)
		}
		// A value that exists nowhere prunes everything.
		res, err = fr.ScanColumns([]string{"ts"}, Predicate{
			Col: "node", In: []schema.Value{schema.Str("nosuchnode")},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Frame.Len() != 0 {
			t.Fatalf("comp %d: ghost value matched %d rows", comp, res.Frame.Len())
		}
		if res.GroupsScanned-res.GroupsEmptied > 0 && res.GroupsScanned == res.GroupsTotal {
			t.Fatalf("comp %d: no pruning for absent value", comp)
		}
	}
}

func TestInPredicateMatchesExactFilter(t *testing.T) {
	f := extFrame(t, 6, 48)
	for _, blooms := range [][]string{nil, {"node"}} {
		data, err := Encode(f, WriterOptions{RowGroupRows: 48, BloomColumns: blooms})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := NewFileReader(data)
		if err != nil {
			t.Fatal(err)
		}
		in := []schema.Value{schema.Str("node00001"), schema.Str("node00019"), schema.Str("ghost")}
		res, err := fr.ScanColumns([]string{"ts", "node", "value"}, Predicate{Col: "node", In: in})
		if err != nil {
			t.Fatal(err)
		}
		// Reference: full decode + manual filter.
		want := schema.NewFrame(f.Schema())
		nodeIdx := f.Schema().MustIndex("node")
		for r := 0; r < f.Len(); r++ {
			row := f.Row(r)
			for _, v := range in {
				if row[nodeIdx].Equal(v) {
					if err := want.AppendRow(row); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
		if !res.Frame.Equal(want) {
			t.Fatalf("blooms=%v: In-predicate scan diverges from exact filter (%d vs %d rows)",
				blooms, res.Frame.Len(), want.Len())
		}
	}
}

// TestDictSkipAvoidsDecode: a group its predicates empty decodes no
// projection-only chunk, whichever predicate emptied it — a candidate
// list inside every group's zone map that matches no row, a range inside
// one group's zone map that falls between two rows (the shape of a
// bucket range over a cold segment), or the second of two predicates.
func TestDictSkipAvoidsDecode(t *testing.T) {
	const groups = 4
	f := extFrame(t, groups, 64)
	// No bloom filters: only the decoded predicate columns can tell.
	data, err := Encode(f, WriterOptions{RowGroupRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var ghosts []schema.Value
	for g := 0; g < groups; g++ {
		ghosts = append(ghosts, schema.Str(fmt.Sprintf("node%05dx", g*8+3)))
	}
	t0 := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	between := Predicate{Col: "ts", Min: schema.Time(t0.Add(100*time.Second + 1)), Max: schema.Time(t0.Add(101*time.Second - 1))}
	for _, tc := range []struct {
		name  string
		preds []Predicate
		cols  int // predicate columns an emptied group decodes
	}{
		{"candidates", []Predicate{{Col: "node", In: ghosts}}, 1},
		{"range", []Predicate{between}, 1},
		{"second predicate", []Predicate{{Col: "node", In: ghosts}, {Col: "ts", Min: schema.Time(t0)}}, 2},
	} {
		res, err := fr.ScanColumns([]string{"value"}, tc.preds...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frame.Len() != 0 || res.GroupsScanned == 0 {
			t.Fatalf("%s: %d rows from %d groups, want 0 rows from > 0 groups", tc.name, res.Frame.Len(), res.GroupsScanned)
		}
		if res.GroupsEmptied != res.GroupsScanned || res.RowsDecoded != 0 {
			t.Fatalf("%s: emptied %d of %d scanned groups, %d rows decoded; want all, 0",
				tc.name, res.GroupsEmptied, res.GroupsScanned, res.RowsDecoded)
		}
		if res.ColumnsDecoded != tc.cols*res.GroupsScanned {
			t.Fatalf("%s: decoded %d chunks over %d emptied groups, want their predicate columns alone",
				tc.name, res.ColumnsDecoded, res.GroupsScanned)
		}
	}
}

func TestGroupExtRoundTripConcat(t *testing.T) {
	f := extFrame(t, 4, 32)
	a, err := Encode(f, WriterOptions{RowGroupRows: 32, BloomColumns: []string{"node"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(f, WriterOptions{RowGroupRows: 32}) // no ext blocks
	if err != nil {
		t.Fatal(err)
	}
	// Mixed concatenation: ext and non-ext streams interleave cleanly.
	got, err := ReadAll(append(append([]byte{}, a...), b...))
	if err != nil {
		t.Fatal(err)
	}
	want := schema.NewFrame(f.Schema())
	if err := want.AppendFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := want.AppendFrame(f); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("concatenated ext+plain streams round trip mismatch")
	}
}

func TestGroupExtHostile(t *testing.T) {
	f := extFrame(t, 1, 16)
	data, err := Encode(f, WriterOptions{RowGroupRows: 16, BloomColumns: []string{"node"}})
	if err != nil {
		t.Fatal(err)
	}
	// An ext block before any row group must be rejected.
	fr, _ := NewFileReader(data)
	hdrLen := len(data)
	for i := range data {
		if data[i] == markerRowGroup {
			hdrLen = i
			break
		}
	}
	_ = fr
	bad := append(append([]byte{}, data[:hdrLen]...), markerGroupExt, 0x03, extNone, extNone, extNone)
	if _, err := NewFileReader(bad); err == nil {
		t.Fatal("ext block before any row group accepted")
	}
	// Truncations anywhere must error or parse, never panic.
	for cut := 0; cut < len(data); cut++ {
		_, _ = NewFileReader(data[:cut])
	}
}

// TestBloomIsOverDistinctNonNullValues: a group's filter is exactly the
// one built from the distinct non-null values of its column — a non-null
// "" included, the "" a null row holds not — however the writer numbers
// them, and an equality scan for "" finds the rows that hold it.
func TestBloomIsOverDistinctNonNullValues(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sch := schema.New(schema.Field{Name: "s", Kind: schema.KindString})
	f := schema.NewFrame(sch)
	empties := 0
	for r := 0; r < 900; r++ {
		v := schema.Str(fmt.Sprintf("v%d", rng.Intn(1+r/30)))
		switch rng.Intn(6) {
		case 0:
			v = schema.Null
		case 1:
			if r < 600 { // the last groups hold "" only under nulls
				v = schema.Str("")
				empties++
			}
		}
		if err := f.AppendRow(schema.Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := Encode(f, WriterOptions{RowGroupRows: 100, BloomColumns: []string{"s"}})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range fr.groups {
		part, err := fr.ReadGroup(gi)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[string]bool{}
		for r := 0; r < part.Len(); r++ {
			if !part.Col(0).IsNull(r) {
				distinct[part.Col(0).Strs()[r]] = true
			}
		}
		want := NewBloom(len(distinct))
		for s := range distinct {
			want.Insert(BloomHash(s))
		}
		if !slices.Equal(fr.groups[gi].blooms[0].words, want.words) {
			t.Fatalf("group %d: bloom differs from the one over its %d distinct non-null values", gi, len(distinct))
		}
	}
	res, err := fr.ScanColumns(nil, Predicate{Col: "s", In: []schema.Value{schema.Str("")}})
	if err != nil || res.Frame.Len() != empties {
		t.Fatalf("scan for \"\": %d rows, want %d (%v)", res.Frame.Len(), empties, err)
	}
}

package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"odakit/internal/schema"
)

func obsFrame(t testing.TB, n int) *schema.Frame {
	t.Helper()
	f := schema.NewFrame(schema.ObservationSchema)
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	metrics := []string{"node_power_w", "cpu_temp_c", "gpu_temp_c"}
	for i := 0; i < n; i++ {
		o := schema.Observation{
			Ts: base.Add(time.Duration(i) * time.Second), System: "compass",
			Source: "power_temp", Component: "node00001",
			Metric: metrics[i%len(metrics)], Value: 700 + float64(i%100),
		}
		if err := f.AppendRow(o.Row()); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := obsFrame(t, 500)
	for _, comp := range []Compression{CompressNone, CompressFlate} {
		data, err := Encode(f, WriterOptions{RowGroupRows: 128, Compression: comp})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(data)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(f) {
			t.Fatalf("compression %d: round trip mismatch", comp)
		}
	}
}

func TestEmptyStream(t *testing.T) {
	f := schema.NewFrame(schema.ObservationSchema)
	data, err := Encode(f, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if fr.NumRowGroups() != 0 {
		t.Fatalf("empty stream has %d row groups", fr.NumRowGroups())
	}
	if !fr.Schema().Equal(schema.ObservationSchema) {
		t.Fatal("schema not recovered from empty stream")
	}
}

func TestRowGroupBoundaries(t *testing.T) {
	f := obsFrame(t, 100)
	data, err := Encode(f, WriterOptions{RowGroupRows: 30})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if fr.NumRowGroups() != 4 { // 30+30+30+10
		t.Fatalf("row groups = %d, want 4", fr.NumRowGroups())
	}
	g3, err := fr.ReadGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	if g3.Len() != 10 {
		t.Fatalf("last group rows = %d, want 10", g3.Len())
	}
	if _, err := fr.ReadGroup(4); err == nil {
		t.Fatal("out-of-range group should error")
	}
}

func TestConcatenatedStreams(t *testing.T) {
	f1, f2 := obsFrame(t, 40), obsFrame(t, 25)
	d1, _ := Encode(f1, WriterOptions{})
	d2, _ := Encode(f2, WriterOptions{})
	got, err := ReadAll(append(append([]byte(nil), d1...), d2...))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 65 {
		t.Fatalf("concatenated rows = %d, want 65", got.Len())
	}
	// Mismatched schemas must be rejected.
	other := schema.NewFrame(schema.EventSchema)
	d3, _ := Encode(other, WriterOptions{})
	if _, err := ReadAll(append(append([]byte(nil), d1...), d3...)); err == nil {
		t.Fatal("schema mismatch in concatenation should error")
	}
}

func TestCompressionShrinksTelemetry(t *testing.T) {
	f := obsFrame(t, 4000)
	raw, err := Encode(f, WriterOptions{Compression: CompressNone})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Encode(f, WriterOptions{Compression: CompressFlate})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(raw) {
		t.Fatalf("flate (%d B) not smaller than raw (%d B)", len(comp), len(raw))
	}
	// Telemetry with dictionary strings + delta timestamps should shrink a lot.
	ratio := float64(len(raw)) / float64(len(comp))
	if ratio < 2 {
		t.Fatalf("compression ratio %.2f, want >= 2 on repetitive telemetry", ratio)
	}
}

func TestStatsAndPushdown(t *testing.T) {
	f := obsFrame(t, 300)
	data, err := Encode(f, WriterOptions{RowGroupRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	tsIdx := fr.Schema().MustIndex("ts")
	st := fr.groups[0].Stats[tsIdx]
	if st.Count != 100 || st.NullCount != 0 {
		t.Fatalf("stats = %+v", st)
	}
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	if !st.Min.Equal(schema.Time(base)) {
		t.Fatalf("min ts = %v", st.Min)
	}
	if !st.Max.Equal(schema.Time(base.Add(99 * time.Second))) {
		t.Fatalf("max ts = %v", st.Max)
	}

	// A time-range predicate covering only the middle group scans 1 of 3.
	res, err := fr.ScanColumns(nil, Predicate{
		Col: "ts",
		Min: schema.Time(base.Add(120 * time.Second)),
		Max: schema.Time(base.Add(150 * time.Second)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupsTotal != 3 || res.GroupsScanned != 1 {
		t.Fatalf("scanned %d of %d groups, want 1 of 3", res.GroupsScanned, res.GroupsTotal)
	}
	if res.Frame.Len() != 31 { // seconds 120..150 inclusive
		t.Fatalf("matched rows = %d, want 31", res.Frame.Len())
	}
	for i := 0; i < res.Frame.Len(); i++ {
		ts := res.Frame.Row(i)[tsIdx].TimeVal()
		if ts.Before(base.Add(120*time.Second)) || ts.After(base.Add(150*time.Second)) {
			t.Fatalf("row %d ts %v outside range", i, ts)
		}
	}
}

func TestScanStringPredicate(t *testing.T) {
	f := obsFrame(t, 90)
	data, _ := Encode(f, WriterOptions{RowGroupRows: 30})
	fr, err := NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fr.ScanColumns(nil, Predicate{Col: "metric", Min: schema.Str("node_power_w"), Max: schema.Str("node_power_w")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame.Len() != 30 {
		t.Fatalf("matched %d rows, want 30", res.Frame.Len())
	}
	// Every group contains the metric, so pushdown cannot prune here.
	if res.GroupsScanned != 3 {
		t.Fatalf("scanned %d groups, want 3", res.GroupsScanned)
	}
}

func TestScanUnknownColumnPredicate(t *testing.T) {
	f := obsFrame(t, 10)
	data, _ := Encode(f, WriterOptions{})
	fr, _ := NewFileReader(data)
	res, err := fr.ScanColumns(nil, Predicate{Col: "ghost", Min: schema.Int(1), Max: schema.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame.Len() != 10 {
		t.Fatalf("unknown-column predicate should not filter, got %d rows", res.Frame.Len())
	}
}

func TestNullHandling(t *testing.T) {
	s := schema.New(
		schema.Field{Name: "a", Kind: schema.KindInt},
		schema.Field{Name: "b", Kind: schema.KindString},
		schema.Field{Name: "c", Kind: schema.KindFloat},
		schema.Field{Name: "d", Kind: schema.KindBool},
		schema.Field{Name: "e", Kind: schema.KindTime},
	)
	f := schema.NewFrame(s)
	rows := []schema.Row{
		{schema.Int(1), schema.Str("x"), schema.Float(1.5), schema.Bool(true), schema.TimeNanos(10)},
		{schema.Null, schema.Null, schema.Null, schema.Null, schema.Null},
		{schema.Int(-5), schema.Str(""), schema.Float(math.NaN()), schema.Bool(false), schema.TimeNanos(-10)},
	}
	for _, r := range rows {
		if err := f.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	data, err := Encode(f, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(f) {
		t.Fatalf("null round trip failed:\n%v\nvs\n%v", got.Rows(), f.Rows())
	}
	fr, _ := NewFileReader(data)
	st := fr.groups[0].Stats[0]
	if st.NullCount != 1 || st.Count != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if !st.Min.Equal(schema.Int(-5)) || !st.Max.Equal(schema.Int(1)) {
		t.Fatalf("min/max = %v/%v", st.Min, st.Max)
	}
}

func TestAllNullChunkPushdown(t *testing.T) {
	s := schema.New(schema.Field{Name: "v", Kind: schema.KindFloat})
	f := schema.NewFrame(s)
	for i := 0; i < 5; i++ {
		_ = f.AppendRow(schema.Row{schema.Null})
	}
	data, _ := Encode(f, WriterOptions{})
	fr, _ := NewFileReader(data)
	res, err := fr.ScanColumns(nil, Predicate{Col: "v", Min: schema.Float(0), Max: schema.Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupsScanned != 0 || res.Frame.Len() != 0 {
		t.Fatalf("all-null group should be pruned, scanned=%d rows=%d", res.GroupsScanned, res.Frame.Len())
	}
}

func TestGarbageRejected(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("nonsense"),
		[]byte("OCF1"),
		append(append([]byte{}, Magic...), 0xff, 0xff),
	}
	for i, c := range cases {
		if _, err := NewFileReader(c); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
	// Truncations of a valid stream must error, not panic.
	f := obsFrame(t, 50)
	data, _ := Encode(f, WriterOptions{})
	for cut := 1; cut < len(data); cut += 7 {
		if _, err := ReadAll(data[:cut]); err == nil {
			// Cutting exactly at a block boundary can still be a valid
			// shorter stream; that is acceptable.
			fr, _ := NewFileReader(data[:cut])
			if fr == nil {
				t.Fatalf("cut %d: no error and no reader", cut)
			}
		}
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	var b bytes.Buffer
	w := NewWriter(&b, schema.ObservationSchema, WriterOptions{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow(schema.Observation{}.Row()); err == nil {
		t.Fatal("write after close should fail")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestDictionaryVsPlainStrings(t *testing.T) {
	// Low-cardinality strings must dictionary-encode smaller than plain.
	repetitive := make([]string, 1000)
	for i := range repetitive {
		repetitive[i] = []string{"alpha", "beta", "gamma"}[i%3]
	}
	unique := make([]string, 1000)
	for i := range unique {
		unique[i] = strings.Repeat("u", 3) + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i%7)) + string(rune('0'+i%10))
	}
	encRep := stringBlock(repetitive, false)
	encUniq := stringBlock(unique, false)
	if encRep[0] != strDict {
		t.Fatal("repetitive strings should use dictionary encoding")
	}
	if len(encRep) >= len(encUniq)/4 {
		t.Fatalf("dict block %d B not much smaller than plain-ish %d B", len(encRep), len(encUniq))
	}
	for _, vals := range [][]string{repetitive, unique, nil, {"solo"}} {
		enc := stringBlock(vals, false)
		dec, n, err := decodeStringBlock(nil, enc, len(vals), &decodeScratch{})
		if err != nil || n != len(enc) || len(dec) != len(vals) {
			t.Fatalf("string block round trip: err=%v n=%d len=%d", err, n, len(dec))
		}
		for i := range vals {
			if dec[i] != vals[i] {
				t.Fatalf("string %d mismatch", i)
			}
		}
	}
}

// stringBlock is the string block of vals, none of them null, in the
// plain form or the light one.
func stringBlock(vals []string, light bool) []byte {
	col, err := schema.StringColumn(slices.Clone(vals), nil)
	if err != nil {
		panic(err)
	}
	var d stringDict
	d.build(col)
	return appendStringBlock(nil, &d, light)
}

// varintIntBlock is decodeIntBlock as it was before its one-byte fast
// path: one binary.Varint call per value. The reference the fast path is
// held to.
func varintIntBlock(buf []byte) ([]int64, int, error) {
	n, sz := binary.Uvarint(buf)
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

// TestIntBlockMatchesVarintReference: on random blocks mixing one-byte
// and multi-byte deltas, jumps to and from MinInt64 / MaxInt64, bytes no
// encoder writes, and every truncation of each, decodeIntBlock returns
// the reference's values, consumed count and error, and appends after
// whatever dst already held.
func TestIntBlockMatchesVarintReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 63, -64, 64, -65}
	var blocks [][]byte
	for iter := 0; iter < 300; iter++ {
		vals := make([]int64, rng.Intn(40))
		prev := int64(0)
		for i := range vals {
			switch rng.Intn(4) {
			case 0, 1: // a one-byte delta
				prev += int64(rng.Intn(128)) - 64
			case 2:
				prev += rng.Int63n(1<<40) - 1<<39
			default:
				prev = extremes[rng.Intn(len(extremes))]
			}
			vals[i] = prev
		}
		blocks = append(blocks, appendIntBlock(nil, vals))
		garbage := binary.AppendUvarint(nil, uint64(rng.Intn(20)))
		for i := rng.Intn(30); i > 0; i-- {
			garbage = append(garbage, byte(rng.Intn(256)))
		}
		blocks = append(blocks, garbage)
	}
	// Ten continuation bytes overflow a varint.
	blocks = append(blocks, append([]byte{2, 5}, bytes.Repeat([]byte{0xff}, 10)...))
	prefix := []int64{7, 8}
	cases := 0
	for _, block := range blocks {
		for cut := 0; cut <= len(block); cut++ {
			buf := block[:cut]
			want, wantN, wantErr := varintIntBlock(buf)
			got, gotN, gotErr := decodeIntBlock(slices.Clip(prefix), buf)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotN != wantN {
				t.Fatalf("% x: got (%d, %v), reference (%d, %v)", buf, gotN, gotErr, wantN, wantErr)
			}
			cases++
			if wantErr != nil {
				continue
			}
			if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
				t.Fatalf("% x: values %v, reference %v after %v", buf, got, want, prefix)
			}
		}
	}
	t.Logf("%d blocks and truncations", cases)
}

func TestIntBlockRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		vals := make([]int64, int(n))
		for i := range vals {
			vals[i] = r.Int63() - r.Int63()
		}
		enc := appendIntBlock(nil, vals)
		dec, consumed, err := decodeIntBlock(nil, enc)
		if err != nil || consumed != len(enc) || len(dec) != len(vals) {
			return false
		}
		for i := range vals {
			if dec[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	s := schema.New(
		schema.Field{Name: "i", Kind: schema.KindInt},
		schema.Field{Name: "f", Kind: schema.KindFloat},
		schema.Field{Name: "s", Kind: schema.KindString},
	)
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		f := schema.NewFrame(s)
		for i := 0; i < int(n); i++ {
			row := schema.Row{schema.Int(r.Int63n(1000)), schema.Float(r.NormFloat64()), schema.Str(string(rune('a' + r.Intn(26))))}
			if r.Intn(10) == 0 {
				row[r.Intn(3)] = schema.Null
			}
			if f.AppendRow(row) != nil {
				return false
			}
		}
		data, err := Encode(f, WriterOptions{RowGroupRows: 16})
		if err != nil {
			return false
		}
		got, err := ReadAll(data)
		return err == nil && got.Equal(f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkWriteTelemetry's MB/s is input bytes — the frame's rows as the
// STREAM carries them (EncodeRow) — so a format that writes fewer bytes
// does not read as slower.
func BenchmarkWriteTelemetry(b *testing.B) {
	f := obsFrame(b, 8192)
	var in int64
	for i := 0; i < f.Len(); i++ {
		in += int64(len(schema.EncodeRow(f.Row(i))))
	}
	b.SetBytes(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(f, WriterOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanWithPushdown(b *testing.B) {
	f := obsFrame(b, 50000)
	data, err := Encode(f, WriterOptions{RowGroupRows: 4096})
	if err != nil {
		b.Fatal(err)
	}
	fr, err := NewFileReader(data)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	pred := Predicate{Col: "ts", Min: schema.Time(base.Add(10 * time.Second)), Max: schema.Time(base.Add(60 * time.Second))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fr.ScanColumns(nil, pred); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScanColumnsProjectionPushdown(t *testing.T) {
	f := obsFrame(t, 300)
	data, err := Encode(f, WriterOptions{RowGroupRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	pred := Predicate{
		Col: "ts",
		Min: schema.Time(base.Add(120 * time.Second)),
		Max: schema.Time(base.Add(150 * time.Second)),
	}
	res, err := fr.ScanColumns([]string{"component", "value"}, pred)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame.Schema().Len() != 2 {
		t.Fatalf("projected schema = %s", res.Frame.Schema())
	}
	if res.Frame.Len() != 31 {
		t.Fatalf("rows = %d, want 31", res.Frame.Len())
	}
	// Only 1 of 3 groups scanned, and only 3 of its 6 columns decoded
	// (component, value, and the ts predicate column).
	if res.GroupsScanned != 1 {
		t.Fatalf("groups scanned = %d", res.GroupsScanned)
	}
	if res.ColumnsDecoded != 3 || res.ColumnsTotal != 18 {
		t.Fatalf("columns decoded = %d of %d, want 3 of 18", res.ColumnsDecoded, res.ColumnsTotal)
	}
	// Values must match the full-scan path.
	full, err := fr.ScanColumns(nil, pred)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := full.Frame.Select("component", "value")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Frame.Equal(sel) {
		t.Fatal("projected scan differs from full scan projection")
	}
	// Unknown projected column fails.
	if _, err := fr.ScanColumns([]string{"ghost"}); err == nil {
		t.Fatal("ghost projection accepted")
	}
	// Predicate on an unknown column cannot prune but must not crash.
	res, err = fr.ScanColumns([]string{"value"}, Predicate{Col: "ghost", Min: schema.Int(1)})
	if err != nil || res.Frame.Len() != 300 {
		t.Fatalf("ghost predicate scan = %d rows, %v", res.Frame.Len(), err)
	}
}

func BenchmarkScanColumnsVsFull(b *testing.B) {
	f := obsFrame(b, 50000)
	data, _ := Encode(f, WriterOptions{RowGroupRows: 4096})
	fr, _ := NewFileReader(data)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fr.ScanColumns(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("projected", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fr.ScanColumns([]string{"value"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

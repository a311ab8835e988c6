package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"odakit/internal/schema"
)

// frameBytes flattens a frame — schema, null masks and raw payloads,
// floats by bit pattern — so two frames compare byte for byte: NaN
// payloads and the sign of zero count, which Frame.Equal forgives.
func frameBytes(f *schema.Frame) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s|%d\n", f.Schema(), f.Len())
	for i := 0; i < f.Schema().Len(); i++ {
		c := f.Col(i)
		for r := 0; r < f.Len(); r++ {
			null := byte(0)
			if c.IsNull(r) {
				null = 1
			}
			buf.WriteByte(null)
			switch c.Kind() {
			case schema.KindString:
				fmt.Fprintf(&buf, "%d:%s", len(c.Strs()[r]), c.Strs()[r])
			case schema.KindFloat:
				binary.Write(&buf, binary.LittleEndian, math.Float64bits(c.Floats()[r]))
			default:
				binary.Write(&buf, binary.LittleEndian, c.Ints()[r])
			}
		}
	}
	return buf.Bytes()
}

// oddFloats are the values a serializer is most likely to bend.
var oddFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64, -1.5,
}

// fidelityStores builds each case's store with interleaved InsertBatch
// calls: every batch revisits earlier series, so a cell's insertion
// position and its first batch are unrelated.
var fidelityStores = []struct {
	name                string
	components, chunks  int
	oddValues, oddNames bool
	preEpoch, paged     bool
}{
	{name: "plain", components: 12, chunks: 2},
	{name: "odd floats", components: 12, chunks: 3, oddValues: true},
	{name: "empty dimensions before the epoch", components: 9, chunks: 3, oddNames: true, preEpoch: true},
	// 1400 series over 16 stripes, a dozen cells each over three chunks:
	// some 350 cells in every (stripe, chunk) table.
	{name: "past one page", components: 700, chunks: 3, oddValues: true, oddNames: true, preEpoch: true, paged: true},
}

func TestStripeFrameFidelity(t *testing.T) {
	forceParallel(t)
	for ci, tc := range fidelityStores {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20240601 + int64(ci)))
			origin := base
			if tc.preEpoch {
				origin = time.Unix(0, 0).UTC().Add(-17 * time.Minute) // chunks on both sides of 1970
			}
			opts := tierOptions()
			span := time.Duration(tc.chunks) * opts.SegmentDuration
			src := New(opts)
			for b := 0; b < 12; b++ {
				var batch []schema.Observation
				for c := 0; c < tc.components; c++ {
					for m, metric := range []string{"node_power_w", "cpu_temp_c"} {
						o := schema.Observation{
							Ts:     origin.Add(time.Duration(rng.Int63n(int64(span)))),
							System: fmt.Sprintf("sys%d", c%2), Source: fmt.Sprintf("src%d", m),
							Component: fmt.Sprintf("node%05d", c), Metric: metric,
							Value: float64(rng.Intn(4000)) / 7,
						}
						if tc.oddValues && rng.Intn(3) == 0 {
							o.Value = oddFloats[rng.Intn(len(oddFloats))]
						}
						if tc.oddNames {
							switch c % 9 {
							case 0:
								o.System, o.Source = "", ""
							case 1:
								o.Component = ""
							case 2:
								o.Metric = ""
							case 3:
								o.System, o.Source, o.Component, o.Metric = "", "", "", ""
							}
						}
						batch = append(batch, o)
					}
				}
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				if err := src.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			if tc.paged {
				paged := 0
				for si := range src.shards {
					for _, seg := range src.shards[si].segments {
						if seg.cells.Pages() > 1 {
							paged++
						}
					}
				}
				if paged < NumStripes {
					t.Fatalf("only %d tables run past one page", paged)
				}
			}
			if st := src.Stats(); st.Segments < tc.chunks {
				t.Fatalf("store spans %d chunks, want %d", st.Segments, tc.chunks)
			}

			frame := exportAll(t, src)
			if !frame.Schema().Equal(ColdSchema) {
				t.Fatalf("export schema = %s", frame.Schema())
			}
			re := New(opts)
			if err := re.ImportStripes(frame); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frameBytes(exportAll(t, re)), frameBytes(frame)) {
				t.Fatal("re-export of the rebuilt store is not the frame it was built from")
			}
			if a, b := src.Stats(), re.Stats(); a != b {
				t.Fatalf("stats: source %+v, rebuilt %+v", a, b)
			}
			sameAnswers(t, src, re, origin, span)

			// One stripe dropped and re-imported comes back whole; the other
			// fifteen are not touched.
			s := StripeFor("node00004", "node_power_w")
			one, err := src.ExportStripes([]int{s})
			if err != nil || one.Len() == 0 {
				t.Fatalf("stripe %d export: %d rows, %v", s, one.Len(), err)
			}
			if err := re.DropStripes([]int{s}); err != nil {
				t.Fatal(err)
			}
			if got := re.Stats().RollupCells; got != src.Stats().RollupCells-int64(one.Len()) {
				t.Fatalf("drop left %d cells", got)
			}
			before := re.versionVector()
			if err := re.ImportStripes(one); err != nil {
				t.Fatal(err)
			}
			before[s]++
			if after := re.versionVector(); after != before {
				t.Fatalf("versions after a one-stripe import = %v, want %v", after, before)
			}
			if !bytes.Equal(frameBytes(exportAll(t, re)), frameBytes(frame)) {
				t.Fatal("store differs after one stripe was dropped and re-imported")
			}
			if a, b := src.Stats(), re.Stats(); a != b {
				t.Fatalf("stats after restore: source %+v, rebuilt %+v", a, b)
			}
		})
	}
}

// sameAnswers runs every AggKind x group-by shape x granularity against
// both stores through Run, RunSerial and each stripe's StripePartial and
// requires identical bytes (and identical stripe scan counters).
func sameAnswers(t *testing.T, a, b *DB, origin time.Time, span time.Duration) {
	t.Helper()
	shapes := [][]string{nil, {DimSystem}, {DimSource}, {DimComponent}, {DimMetric},
		{DimMetric, DimComponent}, {DimSystem, DimSource, DimComponent, DimMetric}}
	for _, agg := range allAggs {
		for _, groupBy := range shapes {
			for _, gran := range []time.Duration{0, 4 * time.Minute} {
				q := Query{From: origin, To: origin.Add(span), GroupBy: groupBy, Granularity: gran, Agg: agg}
				label := fmt.Sprintf("agg %d by [%s] every %v", agg, strings.Join(groupBy, ","), gran)
				for name, run := range map[string][2]func(Query) (*schema.Frame, error){
					"Run": {a.Run, b.Run}, "RunSerial": {a.RunSerial, b.RunSerial},
				} {
					want, err := run[0](q)
					if err != nil {
						t.Fatalf("%s: %s: %v", label, name, err)
					}
					got, err := run[1](q)
					if err != nil {
						t.Fatalf("%s: %s on the rebuilt store: %v", label, name, err)
					}
					if want.Len() == 0 || !bytes.Equal(frameBytes(got), frameBytes(want)) {
						t.Fatalf("%s: %s diverges (%d vs %d rows)", label, name, got.Len(), want.Len())
					}
				}
				for s := 0; s < NumStripes; s++ {
					var out [2][]byte
					var stats [2]StripeScanStats
					for i, db := range []*DB{a, b} {
						sp, err := db.StripePartial(q, s)
						if err != nil {
							t.Fatalf("%s: stripe %d: %v", label, s, err)
						}
						stats[i] = sp.Stats
						f, err := MergeStripePartials(q, []*StripePartial{sp})
						if err != nil {
							t.Fatalf("%s: stripe %d: %v", label, s, err)
						}
						out[i] = frameBytes(f)
					}
					if !bytes.Equal(out[0], out[1]) || stats[0] != stats[1] {
						t.Fatalf("%s: stripe %d partial diverges", label, s)
					}
				}
			}
		}
	}
}

// TestImportStripesRejectsBadFrames: a stripe frame crosses the transport,
// so it is checked whole — and a frame with one bad row, even its last,
// lands no cell at all.
func TestImportStripesRejectsBadFrames(t *testing.T) {
	src := seededDB(t)
	good := exportAll(t, src)
	idx := func(name string) int { return ColdSchema.MustIndex(name) }
	// edit returns a copy of good with row r's field replaced.
	edit := func(r int, name string, v schema.Value) *schema.Frame {
		f := schema.NewFrame(ColdSchema)
		for i := 0; i < good.Len(); i++ {
			row := good.Row(i)
			if i == r {
				row[idx(name)] = v
			}
			if err := f.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	last := good.Len() - 1
	stripe, metric := good.Row(last)[idx("stripe")].IntVal(), good.Row(last)[idx("metric")].StrVal()
	bucket := good.Row(last)[idx("bucket")].UnixNanos()
	elsewhere := "" // a component that puts the last row's metric on another stripe
	for i := 0; elsewhere == "" || StripeFor(elsewhere, metric) == int(stripe); i++ {
		elsewhere = fmt.Sprintf("node9%04d", i)
	}
	for name, bad := range map[string]*schema.Frame{
		"another schema":             schema.NewFrame(schema.ObservationSchema),
		"a ColdSchema projection":    withoutSeq(t, good),
		"null float":                 edit(last, "sum", schema.Null),
		"null dimension":             edit(last, "component", schema.Null),
		"null stripe":                edit(0, "stripe", schema.Null),
		"stripe past the end":        edit(last, "stripe", schema.Int(NumStripes)),
		"negative stripe":            edit(last, "stripe", schema.Int(-1)),
		"another series' stripe":     edit(last, "stripe", schema.Int((stripe+1)%NumStripes)),
		"renamed series":             edit(last, "component", schema.Str(elsewhere)),
		"bucket off the rollup grid": edit(last, "bucket", schema.TimeNanos(bucket+int64(time.Second))),
	} {
		t.Run(name, func(t *testing.T) {
			db := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second})
			insert(db, ob(0, "node00000", "node_power_w", 1))
			before, vv := frameBytes(exportAll(t, db)), db.versionVector()
			if err := db.ImportStripes(bad); err == nil {
				t.Fatal("import accepted the frame")
			}
			if !bytes.Equal(frameBytes(exportAll(t, db)), before) || db.versionVector() != vv || db.Stats().RawIngested != 1 {
				t.Fatal("a rejected frame changed the store")
			}
		})
	}
	db := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second})
	if err := db.ImportStripes(good); err != nil {
		t.Fatalf("the unedited frame: %v", err)
	}
}

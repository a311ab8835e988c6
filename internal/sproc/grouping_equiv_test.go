package sproc

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// A job's windows are a CQ view's chunks, and GroupBy and Pivot fold into
// the same tsdb cell the view keeps. These tests hold the three to one
// another over random inputs, so "one kernel" is an equality the suite
// checks.

// randomDim draws a dimension value, null now and then.
func randomDim(rng *rand.Rand, vals ...string) schema.Value {
	if rng.Intn(12) == 0 {
		return schema.Null
	}
	return schema.Str(vals[rng.Intn(len(vals))])
}

// randomMeasure draws a value whose sums are exact in any fold order
// (multiples of 0.25), or null, NaN, +Inf or -Inf.
func randomMeasure(rng *rand.Rand) schema.Value {
	switch rng.Intn(16) {
	case 0:
		return schema.Null
	case 1:
		return schema.Float(math.NaN())
	case 2:
		return schema.Float(math.Inf(1))
	case 3:
		return schema.Float(math.Inf(-1))
	}
	return schema.Float(float64(rng.Intn(4000)-2000) / 4)
}

// TestWindowMatchesGroupBy runs a job through phases of records, some
// late, some poison, some without a timestamp, steps it after each and
// drains it, then holds what it sank to GroupBy over the rows each window
// should have accepted, and its counters to those counted from the rows.
func TestWindowMatchesGroupBy(t *testing.T) {
	// Sum, avg and count are exact in any fold order over these values:
	// quarters, and NaN and ±Inf poison a sum in any order alike. Min and
	// max keep a NaN only when it comes first, so they hold only where
	// one partition defines the order.
	orderFree := []tsdb.AggKind{tsdb.AggAvg, tsdb.AggSum, tsdb.AggCount}
	ordered := append(orderFree[:len(orderFree):len(orderFree)], tsdb.AggMin, tsdb.AggMax)
	// The names keep the hop these cases were written with beside sliding
	// ones: a slide of 0 or of the window itself, both tumbling.
	for _, tc := range []struct {
		name             string
		parts            int
		window, lateness time.Duration
		aggs             []tsdb.AggKind
		filter           bool
	}{
		{"parts=1/window=15s/slide=0s", 1, 15 * time.Second, 5 * time.Second, ordered, false},
		{"parts=2/window=15s/slide=0s", 2, 15 * time.Second, 0, orderFree, true},
		{"parts=4/window=10s/slide=10s", 4, 10 * time.Second, 3 * time.Second, orderFree, false},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, agg := range tc.aggs {
				windowsMatchGroupBy(t, tc.parts, tc.window, tc.lateness, agg, tc.filter)
			}
		})
	}
}

func windowsMatchGroupBy(t *testing.T, parts int, window, lateness time.Duration, agg tsdb.AggKind, filter bool) {
	const sec = int64(time.Second)
	keys := []string{tsdb.DimSource, tsdb.DimComponent, tsdb.DimMetric}
	rng := rand.New(rand.NewSource(int64(parts)*1000 + int64(window/time.Second)))
	b := stream.NewBroker()
	t.Cleanup(b.Close)
	if err := b.CreateTopic("bronze", stream.TopicConfig{Partitions: parts}); err != nil {
		t.Fatal(err)
	}
	var filters map[string][]string
	if filter {
		filters = map[string][]string{tsdb.DimSource: {"power_temp", ""}} // "" is a null source
	}
	var sink collectSink
	j := viewJob(t, b, JobConfig{Name: "w", Topic: "bronze", Lateness: lateness}, tumblingView(t, window, agg, filters, keys...), sink.sink)
	if err := j.start(); err != nil {
		t.Fatal(err)
	}

	// The oracle: every row the job should accept, as one frame with its
	// window beside it and its dimensions and value as a cell sees them (a
	// null dimension is "", a null value NaN), and the counters, each
	// worked out from the published rows alone.
	oracleSchema, err := schema.ObservationSchema.Extend(schema.Field{Name: "window", Kind: schema.KindTime})
	if err != nil {
		t.Fatal(err)
	}
	oracle := schema.NewFrame(oracleSchema)
	srcIdx := schema.ObservationSchema.MustIndex("source")
	var want Metrics
	partMax := make([]int64, parts) // per-partition watermark
	emitted := int64(math.MinInt64)
	openWindows := map[int64]bool{}
	clock := 0 // seconds: each phase moves event time on
	for phase := 0; phase < 4; phase++ {
		n := 120 + rng.Intn(80)
		for i := 0; i < n; i++ {
			// The first rows give every partition a timestamp, so the
			// watermark never waits on a wall clock.
			part, seeding := rng.Intn(parts), phase == 0 && i < parts
			if seeding {
				part = i
			}
			want.RecordsIn++
			if rng.Intn(25) == 0 && !seeding {
				if _, err := b.PublishBatchTo("bronze", part, []stream.Message{{Value: []byte{0xff, 0x01}}}); err != nil {
					t.Fatal(err)
				}
				want.RecordsInvalid++
				want.RecordsDeadLettered++
				continue
			}
			// Mostly the phase's own minute, sometimes far enough
			// back to find its windows closed.
			at := clock + rng.Intn(60)
			if rng.Intn(6) == 0 {
				at -= rng.Intn(90)
			}
			ts := schema.Time(tbase.Add(time.Duration(at) * time.Second))
			if rng.Intn(15) == 0 && !seeding {
				ts = schema.Null
			}
			row := schema.Row{
				ts, schema.Str("compass"), randomDim(rng, "power_temp", "drop"),
				randomDim(rng, "node0", "node1", "node2"), randomDim(rng, "power", "temp"), randomMeasure(rng),
			}
			if _, err := b.PublishBatchTo("bronze", part, []stream.Message{{Value: schema.EncodeRow(row)}}); err != nil {
				t.Fatal(err)
			}
			if ts.IsNull() {
				want.RecordsInvalid++
				continue
			}
			if ts.UnixNanos() > partMax[part] {
				partMax[part] = ts.UnixNanos()
			}
			if filter && row[srcIdx].StrVal() == "drop" {
				continue
			}
			w := ts.UnixNanos() - tsdb.FloorMod(ts.UnixNanos(), int64(window))
			if w <= emitted {
				want.RecordsLate++
				continue
			}
			for c := 1; c < len(row)-1; c++ {
				if row[c].IsNull() {
					row[c] = schema.Str("")
				}
			}
			if row[len(row)-1].IsNull() {
				row[len(row)-1] = schema.Float(math.NaN())
			}
			if err := oracle.AppendRow(append(slices.Clone(row), schema.TimeNanos(w))); err != nil {
				t.Fatal(err)
			}
			openWindows[w] = true
		}
		clock += 60
		// One micro-batch takes the whole phase (BatchSize 4096 a
		// partition), then closes what the watermark has passed.
		if err := j.step(context.Background()); err != nil {
			t.Fatal(err)
		}
		wm := slices.Min(partMax)
		for w := range openWindows {
			if w+int64(window) <= wm-int64(lateness) {
				delete(openWindows, w)
				want.WindowsEmitted++
				emitted = max(emitted, w)
			}
		}
	}
	if want.RecordsLate == 0 || want.WindowsEmitted == 0 || len(openWindows) == 0 {
		t.Fatalf("degenerate schedule: %d late rows, %d windows closed by the watermark, %d left open", want.RecordsLate, want.WindowsEmitted, len(openWindows))
	}
	if err := j.closeWindows(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	want.WindowsEmitted += int64(len(openWindows))

	kind := map[tsdb.AggKind]AggKind{tsdb.AggAvg: AggAvg, tsdb.AggSum: AggSum, tsdb.AggCount: AggCount, tsdb.AggMin: AggMin, tsdb.AggMax: AggMax}[agg]
	long, err := GroupBy(oracle, append([]string{"window"}, keys...), []Agg{{Col: "value", Kind: kind, As: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	wantFrame := schema.NewFrame(j.outSch)
	for _, r := range long.Rows() {
		if v := r[len(r)-1]; v.Kind() == schema.KindInt {
			r[len(r)-1] = schema.Float(float64(v.IntVal()))
		}
		if err := wantFrame.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	want.RowsOut = int64(wantFrame.Len())
	got := schema.NewFrame(j.outSch)
	lastWindow := int64(math.MinInt64)
	for _, f := range sink.frames {
		if w := f.Col(0).Ints()[0]; w <= lastWindow {
			t.Fatalf("window %d emitted after window %d", w/sec, lastWindow/sec)
		} else {
			lastWindow = w
		}
		if err := got.AppendFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if !got.Equal(wantFrame) {
		t.Fatalf("%v: windowed job and GroupBy over the same rows differ:\njob:\n%v\nGroupBy:\n%v", agg, got.Rows(), wantFrame.Rows())
	}
	m := j.Metrics()
	want.Batches = m.Batches
	if m != want {
		t.Fatalf("%v: metrics = %+v\nwant counted from the rows = %+v", agg, m, want)
	}
}

func TestPivotMatchesGroupBy(t *testing.T) {
	keys := []string{"system", "component"}
	pivots := []string{"fan", "power", "temp"}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := schema.NewFrame(schema.ObservationSchema)
		for i, n := 0, 50+rng.Intn(300); i < n; i++ {
			err := f.AppendRow(schema.Row{
				schema.Time(tbase), randomDim(rng, "compass", "summit"), schema.Str("power_temp"),
				randomDim(rng, "node0", "node1", "node2", "node3"), randomDim(rng, pivots...), randomMeasure(rng),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for agg := AggAvg; agg <= AggLast; agg++ {
			got, err := Pivot(f, keys, "metric", "value", agg)
			if err != nil {
				t.Fatal(err)
			}
			long, err := GroupBy(f, append(keys[:2:2], "metric"), []Agg{{Col: "value", Kind: agg, As: "x"}})
			if err != nil {
				t.Fatal(err)
			}
			// Spread the long result by pivot value: one row per key tuple
			// (long is sorted by keys, then pivot), absent cells empty. A
			// null pivot feeds no cell but its key tuple still has a row.
			var empty tsdb.Cell
			fields := []schema.Field{got.Schema().Field(0), got.Schema().Field(1)}
			for _, p := range pivots {
				fields = append(fields, schema.Field{Name: p, Kind: Agg{Kind: agg}.outKind()})
			}
			want := schema.NewFrame(schema.New(fields...))
			var wide schema.Row
			flush := func() {
				if wide != nil {
					if err := want.AppendRow(wide); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, r := range long.Rows() {
				if wide == nil || !wide[:2].Equal(r[:2]) {
					flush()
					null := value(&empty, agg, true)
					wide = schema.Row{r[0], r[1], null, null, null}
				}
				if !r[2].IsNull() {
					wide[2+sort.SearchStrings(pivots, r[2].StrVal())] = r[3]
				}
			}
			flush()
			if !got.Equal(want) {
				t.Fatalf("seed %d, %v: Pivot differs from GroupBy spread by the pivot:\nPivot:\n%v\nGroupBy:\n%v", seed, agg, got.Rows(), want.Rows())
			}
		}
	}
}

// orderFrame is 400 rows of a string, a nullable int and a float column
// whose values tie often, plus a unique id that makes tie order visible.
func orderFrame(t *testing.T, rng *rand.Rand) *schema.Frame {
	t.Helper()
	f := schema.NewFrame(schema.New(
		schema.Field{Name: "a", Kind: schema.KindString},
		schema.Field{Name: "b", Kind: schema.KindInt},
		schema.Field{Name: "c", Kind: schema.KindFloat},
		schema.Field{Name: "id", Kind: schema.KindInt},
	))
	for i := 0; i < 400; i++ {
		b, c := schema.Int(int64(rng.Intn(5))), randomMeasure(rng)
		if rng.Intn(10) == 0 {
			b = schema.Null
		}
		if err := f.AppendRow(schema.Row{randomDim(rng, "x", "y", "zz"), b, c, schema.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestOrderByOnePath(t *testing.T) {
	f := orderFrame(t, rand.New(rand.NewSource(11)))
	for _, tc := range []struct {
		clause string
		cols   []int
		desc   []bool
	}{
		{"a, b", []int{0, 1}, []bool{false, false}},
		{"a DESC, b", []int{0, 1}, []bool{true, false}},
		{"b ASC, c DESC", []int{1, 2}, []bool{false, true}},
		{"c DESC", []int{2}, []bool{true}},
		{"b DESC, a DESC, c DESC", []int{1, 0, 2}, []bool{true, true, true}},
	} {
		got, err := Query(f, "SELECT a, b, c, id FROM t ORDER BY "+tc.clause)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: a stable sort over boxed rows. Ties keep input order,
		// which the unique id column makes visible.
		want := f.Rows()
		sort.SliceStable(want, func(i, k int) bool {
			for n, c := range tc.cols {
				if cmp := want[i][c].Compare(want[k][c]); cmp != 0 {
					return (cmp < 0) != tc.desc[n]
				}
			}
			return false
		})
		for i, r := range got.Rows() {
			if !r.Equal(want[i]) {
				t.Fatalf("ORDER BY %s: row %d = %v, reference %v", tc.clause, i, r, want[i])
			}
		}
		if got.Len() != len(want) {
			t.Fatalf("ORDER BY %s: %d rows, want %d", tc.clause, got.Len(), len(want))
		}
	}
}

// TestOrderByLeavesInputUntouched: ORDER BY returns sorted rows and the
// frame the query ran against keeps its own row order, whichever way each
// key runs.
func TestOrderByLeavesInputUntouched(t *testing.T) {
	f := orderFrame(t, rand.New(rand.NewSource(12)))
	before := f.Rows()
	got, err := Query(f, "SELECT id, a, b, c FROM t ORDER BY a DESC, b ASC, c DESC")
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i := 0; i < got.Len(); i++ {
		moved = moved || !got.Row(i)[0].Equal(before[i][3])
	}
	if got.Len() != len(before) || !moved {
		t.Fatalf("ORDER BY returned %d of %d rows, reordered: %v", got.Len(), len(before), moved)
	}
	for i, r := range f.Rows() {
		if !r.Equal(before[i]) {
			t.Fatalf("input row %d = %v after ORDER BY, was %v", i, r, before[i])
		}
	}
}

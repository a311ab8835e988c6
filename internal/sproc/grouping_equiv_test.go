package sproc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
)

// GroupBy, Pivot and a job's windows share one grouping table. These
// tests hold the three to one another over random inputs, so "shared" is
// an equality the suite checks.

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

func TestWindowMatchesGroupBy(t *testing.T) {
	const sec = int64(time.Second)
	keys := []string{"component", "metric"}
	orderFree := []Agg{
		{Col: "value", Kind: AggAvg}, {Col: "value", Kind: AggSum}, {Col: "value", Kind: AggMin},
		{Col: "value", Kind: AggMax}, {Col: "value", Kind: AggCount}, {Col: "source", Kind: AggCount},
	}
	// First and last depend on arrival order, which only one partition defines.
	ordered := append(orderFree[:len(orderFree):len(orderFree)], Agg{Col: "value", Kind: AggFirst}, Agg{Col: "value", Kind: AggLast})
	for _, tc := range []struct {
		parts                   int
		window, slide, lateness time.Duration
		aggs                    []Agg
		filter                  bool
	}{
		{1, 15 * time.Second, 0, 5 * time.Second, ordered, false},
		{1, 20 * time.Second, 5 * time.Second, 0, ordered, true},
		{2, 15 * time.Second, 0, 0, orderFree, true},
		{3, 30 * time.Second, 10 * time.Second, 10 * time.Second, orderFree, false},
		{4, 10 * time.Second, 10 * time.Second, 3 * time.Second, orderFree, false},
		{4, 12 * time.Second, 4 * time.Second, 0, orderFree, true},
	} {
		tc := tc
		t.Run(fmt.Sprintf("parts=%d/window=%s/slide=%s", tc.parts, tc.window, tc.slide), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(tc.parts)*1000 + int64(tc.window/time.Second)))
			b := stream.NewBroker()
			t.Cleanup(b.Close)
			if err := b.CreateTopic("bronze", stream.TopicConfig{Partitions: tc.parts}); err != nil {
				t.Fatal(err)
			}
			var sink collectSink
			j, err := NewJob(b, JobConfig{Name: "w", Topic: "bronze", InputSchema: schema.ObservationSchema})
			if err != nil {
				t.Fatal(err)
			}
			j.Window(WindowSpec{TimeCol: "ts", Window: tc.window, Slide: tc.slide, Lateness: tc.lateness, Keys: keys, Aggs: tc.aggs}).To(sink.sink)
			srcIdx := schema.ObservationSchema.MustIndex("source")
			if tc.filter {
				j.Where(func(r schema.Row) bool { return r[srcIdx].StrVal() != "drop" })
			}
			if err := j.start(); err != nil {
				t.Fatal(err)
			}

			// The oracle: every (row, window) membership the job should
			// accept, as one frame with the window beside the row, and the
			// counters, each worked out from the published rows alone.
			oracleSchema, err := schema.ObservationSchema.Extend(schema.Field{Name: "window", Kind: schema.KindTime})
			if err != nil {
				t.Fatal(err)
			}
			oracle := schema.NewFrame(oracleSchema)
			slide := tc.slide
			if slide == 0 {
				slide = tc.window
			}
			var want Metrics
			partMax := make([]int64, tc.parts) // per-partition watermark
			emitted := int64(math.MinInt64)
			openWindows := map[int64]bool{}
			clock := 0 // seconds: each phase moves event time on
			for phase := 0; phase < 4; phase++ {
				n := 120 + rng.Intn(80)
				for i := 0; i < n; i++ {
					// The first rows give every partition a timestamp, so the
					// watermark never waits on a wall clock.
					part, seeding := rng.Intn(tc.parts), phase == 0 && i < tc.parts
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
					if !ts.IsNull() && ts.UnixNanos() > partMax[part] {
						partMax[part] = ts.UnixNanos()
					}
					if tc.filter && row[srcIdx].StrVal() == "drop" {
						continue
					}
					if ts.IsNull() {
						want.RecordsInvalid++
						continue
					}
					latest := TumbleTime(ts.TimeVal(), slide).UnixNano()
					if latest <= emitted {
						want.RecordsLate++
						continue
					}
					for w := latest; w > ts.UnixNanos()-int64(tc.window) && w > emitted; w -= int64(slide) {
						if err := oracle.AppendRow(append(slices.Clone(row), schema.TimeNanos(w))); err != nil {
							t.Fatal(err)
						}
						openWindows[w] = true
					}
				}
				clock += 60
				// One micro-batch takes the whole phase (BatchSize 4096 a
				// partition), then closes what the watermark has passed.
				if err := j.step(context.Background()); err != nil {
					t.Fatal(err)
				}
				wm := partMax[0]
				for _, m := range partMax {
					wm = min(wm, m)
				}
				for w := range openWindows {
					if w+int64(tc.window) <= wm-int64(tc.lateness) {
						delete(openWindows, w)
						want.WindowsEmitted++
						emitted = max(emitted, w)
					}
				}
			}
			if want.RecordsLate == 0 || want.WindowsEmitted == 0 || len(openWindows) == 0 {
				t.Fatalf("degenerate schedule: %d late rows, %d windows closed by the watermark, %d left open", want.RecordsLate, want.WindowsEmitted, len(openWindows))
			}
			if err := j.flushWindows(context.Background(), true); err != nil {
				t.Fatal(err)
			}
			want.WindowsEmitted += int64(len(openWindows))

			wantFrame, err := GroupBy(oracle, append([]string{"window"}, keys...), tc.aggs)
			if err != nil {
				t.Fatal(err)
			}
			want.RowsOut = int64(wantFrame.Len())
			got := schema.NewFrame(wantFrame.Schema())
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
			order := []schema.SortKey{{Col: "window"}}
			for _, k := range keys {
				order = append(order, schema.SortKey{Col: k})
			}
			if got, err = got.SortBy(order...); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(wantFrame) {
				t.Fatalf("windowed job and GroupBy over the same rows differ:\njob:\n%v\nGroupBy:\n%v", got.Rows(), wantFrame.Rows())
			}
			m := j.Metrics()
			want.Batches = m.Batches
			if m != want {
				t.Fatalf("metrics = %+v\nwant counted from the rows = %+v", m, want)
			}
		})
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
			var empty aggState
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
					wide = schema.Row{r[0], r[1], empty.value(agg), empty.value(agg), empty.value(agg)}
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

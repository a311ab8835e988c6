package tsdb

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"odakit/internal/obs"
	"odakit/internal/schema"
)

var base = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func ob(sec int, component, metric string, v float64) schema.Observation {
	return schema.Observation{
		Ts: base.Add(time.Duration(sec) * time.Second), System: "compass",
		Source: "power_temp", Component: component, Metric: metric, Value: v,
	}
}

// insert writes each observation as an InsertBatch of one, the per-record
// write; the tests that call it install no fault hook.
func insert(db *DB, obs ...schema.Observation) {
	for i := range obs {
		if err := db.InsertBatch(obs[i : i+1]); err != nil {
			panic(err)
		}
	}
}

func seededDB(t testing.TB) *DB {
	db := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second})
	// Two nodes, two metrics, 2 minutes of 1 Hz data.
	for s := 0; s < 120; s++ {
		insert(db, ob(s, "node00000", "node_power_w", 1000+float64(s)))
		insert(db, ob(s, "node00001", "node_power_w", 2000+float64(s)))
		insert(db, ob(s, "node00000", "cpu_temp_c", 40))
	}
	return db
}

func TestRollupReducesCells(t *testing.T) {
	db := seededDB(t)
	st := db.Stats()
	if st.RawIngested != 360 {
		t.Fatalf("ingested = %d", st.RawIngested)
	}
	// 120s / 15s = 8 buckets × 3 series = 24 cells.
	if st.RollupCells != 24 {
		t.Fatalf("rollup cells = %d, want 24", st.RollupCells)
	}
	if st.Segments != 1 {
		t.Fatalf("segments = %d, want 1", st.Segments)
	}
}

func TestAvgQueryPerSeries(t *testing.T) {
	db := seededDB(t)
	f, err := db.Run(Query{
		From: base, To: base.Add(2 * time.Minute),
		Filters:     map[string][]string{DimMetric: {"node_power_w"}},
		GroupBy:     []string{DimComponent},
		Granularity: 0, Agg: AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Fatalf("rows = %d, want 2", f.Len())
	}
	// node0: mean of 1000..1119 = 1059.5; node1: 2059.5.
	r0, r1 := f.Row(0), f.Row(1)
	if r0[1].StrVal() != "node00000" || math.Abs(r0[2].FloatVal()-1059.5) > 1e-9 {
		t.Fatalf("row0 = %v", r0)
	}
	if r1[1].StrVal() != "node00001" || math.Abs(r1[2].FloatVal()-2059.5) > 1e-9 {
		t.Fatalf("row1 = %v", r1)
	}
}

func TestGranularityBuckets(t *testing.T) {
	db := seededDB(t)
	f, err := db.Run(Query{
		From: base, To: base.Add(2 * time.Minute),
		Filters:     map[string][]string{DimMetric: {"node_power_w"}, DimComponent: {"node00000"}},
		Granularity: time.Minute, Agg: AggMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Fatalf("rows = %d, want 2 minute buckets", f.Len())
	}
	if f.Row(0)[1].FloatVal() != 1059 || f.Row(1)[1].FloatVal() != 1119 {
		t.Fatalf("maxes = %v, %v", f.Row(0)[1], f.Row(1)[1])
	}
	if !f.Row(0)[0].TimeVal().Equal(base) || !f.Row(1)[0].TimeVal().Equal(base.Add(time.Minute)) {
		t.Fatalf("bucket starts = %v, %v", f.Row(0)[0], f.Row(1)[0])
	}
}

func TestAggregations(t *testing.T) {
	db := New(Options{})
	for i, v := range []float64{5, 1, 3} {
		insert(db, ob(i, "n", "m", v))
	}
	q := Query{From: base, To: base.Add(time.Minute)}
	cases := map[AggKind]float64{
		AggAvg: 3, AggSum: 9, AggMin: 1, AggMax: 5, AggCount: 3, AggLast: 3,
	}
	for agg, want := range cases {
		q.Agg = agg
		f, err := db.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if f.Len() != 1 || f.Row(0)[1].FloatVal() != want {
			t.Fatalf("agg %d = %v, want %v", agg, f.Rows(), want)
		}
	}
}

func TestLastUsesLatestTimestamp(t *testing.T) {
	db := New(Options{RollupInterval: time.Minute})
	// Insert out of order: the later timestamp must win AggLast.
	insert(db, ob(30, "n", "m", 999))
	insert(db, ob(10, "n", "m", 111))
	f, err := db.Run(Query{From: base, To: base.Add(time.Hour), Agg: AggLast})
	if err != nil {
		t.Fatal(err)
	}
	if f.Row(0)[1].FloatVal() != 999 {
		t.Fatalf("last = %v, want 999", f.Row(0)[1])
	}
}

func TestTimeRangeExcludes(t *testing.T) {
	db := seededDB(t)
	f, err := db.Run(Query{
		From: base.Add(time.Minute), To: base.Add(2 * time.Minute),
		Filters: map[string][]string{DimMetric: {"node_power_w"}, DimComponent: {"node00000"}},
		Agg:     AggMin,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Minimum within [60,120) is 1060.
	if f.Len() != 1 || f.Row(0)[1].FloatVal() != 1060 {
		t.Fatalf("result = %v", f.Rows())
	}
}

func TestMultiValueFilter(t *testing.T) {
	db := seededDB(t)
	f, err := db.Run(Query{
		From: base, To: base.Add(2 * time.Minute),
		Filters: map[string][]string{DimMetric: {"node_power_w", "cpu_temp_c"}},
		GroupBy: []string{DimMetric},
		Agg:     AggCount,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Fatalf("metrics = %d, want 2", f.Len())
	}
}

func TestBadQueries(t *testing.T) {
	db := seededDB(t)
	cases := []Query{
		{From: base, To: base},
		{From: base, To: base.Add(time.Hour), GroupBy: []string{"nope"}},
		{From: base, To: base.Add(time.Hour), Filters: map[string][]string{"bogus": {"x"}}},
		{From: base, To: base.Add(time.Hour), GroupBy: []string{DimMetric, DimMetric}},
	}
	for i, q := range cases {
		if _, err := db.Run(q); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("case %d: err = %v, want ErrBadQuery", i, err)
		}
	}
}

func TestRetention(t *testing.T) {
	db := New(Options{SegmentDuration: time.Hour})
	insert(db, ob(0, "n", "m", 1))
	insert(db, schema.Observation{Ts: base.Add(5 * time.Hour), System: "s", Source: "x", Component: "n", Metric: "m", Value: 2})
	if db.Stats().Segments != 2 {
		t.Fatalf("segments = %d", db.Stats().Segments)
	}
	dropped := db.Retain(base.Add(3 * time.Hour))
	if dropped != 1 || db.Stats().Segments != 1 {
		t.Fatalf("dropped = %d, segments = %d", dropped, db.Stats().Segments)
	}
	f, err := db.Run(Query{From: base, To: base.Add(time.Hour), Agg: AggSum})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Fatal("dropped segment still queryable")
	}
}

func TestTopN(t *testing.T) {
	db := seededDB(t)
	reg := obs.NewRegistry()
	db.Instrument(reg)
	top, st, err := TopN(db, Query{
		From: base, To: base.Add(2 * time.Minute),
		Filters: map[string][]string{DimMetric: {"node_power_w"}},
		Agg:     AggAvg,
	}, DimComponent, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Dim != "node00001" {
		t.Fatalf("top = %+v", top)
	}
	if st.CellsScanned == 0 || st.Groups != 2 {
		t.Fatalf("top-n stats = %+v, want the scan's", st)
	}
	// A top-N is a query like any other to the operator's dashboards.
	if q, cells := reg.Counter("oda_lake_queries_total", "").Value(),
		reg.Counter("oda_lake_query_cells_scanned_total", "").Value(); q != 1 || cells == 0 {
		t.Fatalf("after one TopN: oda_lake_queries_total = %d, cells scanned = %d", q, cells)
	}
	if _, _, err := TopN(db, Query{From: base, To: base.Add(time.Minute)}, "bogus", 3); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("bad dim: %v", err)
	}
	// n larger than cardinality returns everything.
	top, _, _ = TopN(db, Query{
		From: base, To: base.Add(2 * time.Minute),
		Filters: map[string][]string{DimMetric: {"node_power_w"}},
		Agg:     AggAvg,
	}, DimComponent, 99)
	if len(top) != 2 {
		t.Fatalf("top all = %d", len(top))
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	db := New(Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				insert(db, ob(i%120, fmt.Sprintf("node%d", w), "m", float64(i)))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Run(Query{From: base, To: base.Add(time.Hour), Agg: AggCount}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := db.Stats().RawIngested; got != 2000 {
		t.Fatalf("ingested = %d, want 2000", got)
	}
}

func BenchmarkInsert(b *testing.B) {
	db := New(Options{})
	o := ob(0, "node00042", "node_power_w", 2713)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Ts = base.Add(time.Duration(i) * time.Millisecond)
		insert(db, o)
	}
}

func BenchmarkGroupByQuery(b *testing.B) {
	db := New(Options{})
	for s := 0; s < 3600; s += 5 {
		for n := 0; n < 32; n++ {
			insert(db, ob(s, fmt.Sprintf("node%05d", n), "node_power_w", float64(1000+n)))
		}
	}
	q := Query{
		From: base, To: base.Add(time.Hour),
		GroupBy: []string{DimComponent}, Granularity: time.Minute, Agg: AggAvg,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

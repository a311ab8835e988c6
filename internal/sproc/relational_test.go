package sproc

import (
	"errors"
	"math"
	"testing"
	"time"

	"odakit/internal/schema"
	"odakit/internal/tsdb"
)

var tbase = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func longFrame(t testing.TB) *schema.Frame {
	t.Helper()
	f := schema.NewFrame(schema.ObservationSchema)
	// 2 nodes × 2 metrics × 4 samples.
	for s := 0; s < 4; s++ {
		for _, node := range []string{"node0", "node1"} {
			for _, m := range []string{"power", "temp"} {
				v := 100.0
				if node == "node1" {
					v = 200
				}
				if m == "temp" {
					v = 40
				}
				o := schema.Observation{
					Ts: tbase.Add(time.Duration(s) * time.Second), System: "compass",
					Source: "power_temp", Component: node, Metric: m, Value: v + float64(s),
				}
				if err := f.AppendRow(o.Row()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return f
}

func TestWhere(t *testing.T) {
	f := longFrame(t)
	mi := f.Schema().MustIndex("metric")
	got := Where(f, func(r schema.Row) bool { return r[mi].StrVal() == "power" })
	if got.Len() != 8 {
		t.Fatalf("filtered = %d, want 8", got.Len())
	}
}

func TestGroupBy(t *testing.T) {
	f := longFrame(t)
	out, err := GroupBy(f, []string{"component", "metric"}, []Agg{
		{Col: "value", Kind: AggAvg, As: "avg_v"},
		{Col: "value", Kind: AggMax},
		{Col: "value", Kind: AggCount, As: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("groups = %d, want 4", out.Len())
	}
	// Sorted: (node0,power), (node0,temp), (node1,power), (node1,temp).
	r := out.Row(0)
	if r[0].StrVal() != "node0" || r[1].StrVal() != "power" {
		t.Fatalf("first group = %v", r)
	}
	if r[2].FloatVal() != 101.5 { // mean of 100..103
		t.Fatalf("avg = %v", r[2])
	}
	if r[3].FloatVal() != 103 {
		t.Fatalf("max = %v", r[3])
	}
	if r[4].IntVal() != 4 {
		t.Fatalf("count = %v", r[4])
	}
	if out.Schema().Field(3).Name != "max_value" {
		t.Fatalf("default agg name = %q", out.Schema().Field(3).Name)
	}
}

func TestGroupByErrors(t *testing.T) {
	f := longFrame(t)
	if _, err := GroupBy(f, []string{"ghost"}, []Agg{{Col: "value", Kind: AggSum}}); !errors.Is(err, ErrPlan) {
		t.Fatalf("bad key: %v", err)
	}
	if _, err := GroupBy(f, []string{"component"}, []Agg{{Col: "ghost", Kind: AggSum}}); !errors.Is(err, ErrPlan) {
		t.Fatalf("bad agg col: %v", err)
	}
	if _, err := GroupBy(f, []string{"component"}, nil); !errors.Is(err, ErrPlan) {
		t.Fatalf("no aggs: %v", err)
	}
}

func TestGroupByNullsIgnored(t *testing.T) {
	s := schema.New(
		schema.Field{Name: "k", Kind: schema.KindString},
		schema.Field{Name: "v", Kind: schema.KindFloat},
	)
	f := schema.NewFrame(s)
	_ = f.AppendRow(schema.Row{schema.Str("a"), schema.Float(1)})
	_ = f.AppendRow(schema.Row{schema.Str("a"), schema.Null})
	_ = f.AppendRow(schema.Row{schema.Str("a"), schema.Float(3)})
	out, err := GroupBy(f, []string{"k"}, []Agg{{Col: "v", Kind: AggAvg}, {Col: "v", Kind: AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Row(0)[1].FloatVal() != 2 || out.Row(0)[2].IntVal() != 2 {
		t.Fatalf("null handling wrong: %v", out.Row(0))
	}
}

func TestGroupByEmptyKeysGlobalAggregate(t *testing.T) {
	f := longFrame(t)
	out, err := GroupBy(f, nil, []Agg{{Col: "value", Kind: AggCount, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Row(0)[0].IntVal() != 16 {
		t.Fatalf("global aggregate = %v", out.Rows())
	}
}

func TestPivotLongToWide(t *testing.T) {
	f := longFrame(t)
	wide, err := Pivot(f, []string{"ts", "component"}, "metric", "value", AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 timestamps × 2 nodes = 8 rows; columns ts, component, power, temp.
	if wide.Len() != 8 {
		t.Fatalf("rows = %d, want 8", wide.Len())
	}
	sch := wide.Schema()
	if sch.Len() != 4 || !sch.Has("power") || !sch.Has("temp") {
		t.Fatalf("schema = %s", sch)
	}
	r0 := wide.Row(0)
	if r0[sch.MustIndex("power")].FloatVal() != 100 || r0[sch.MustIndex("temp")].FloatVal() != 40 {
		t.Fatalf("first wide row = %v", r0)
	}
}

func TestPivotMissingCellsAreNull(t *testing.T) {
	f := schema.NewFrame(schema.ObservationSchema)
	o := schema.Observation{Ts: tbase, System: "s", Source: "x", Component: "n0", Metric: "a", Value: 1}
	_ = f.AppendRow(o.Row())
	o.Component, o.Metric = "n1", "b"
	_ = f.AppendRow(o.Row())
	wide, err := Pivot(f, []string{"component"}, "metric", "value", AggAvg)
	if err != nil {
		t.Fatal(err)
	}
	sch := wide.Schema()
	r0 := wide.Row(0) // n0 has metric a only
	if !r0[sch.MustIndex("b")].IsNull() {
		t.Fatalf("missing cell should be null: %v", r0)
	}
	if r0[sch.MustIndex("a")].FloatVal() != 1 {
		t.Fatalf("present cell wrong: %v", r0)
	}
}

func TestPivotErrors(t *testing.T) {
	f := longFrame(t)
	if _, err := Pivot(f, []string{"ts"}, "ghost", "value", AggAvg); !errors.Is(err, ErrPlan) {
		t.Fatal("bad pivot col accepted")
	}
	if _, err := Pivot(f, []string{"ts"}, "value", "value", AggAvg); !errors.Is(err, ErrPlan) {
		t.Fatal("non-string pivot col accepted")
	}
	if _, err := Pivot(f, []string{"ghost"}, "metric", "value", AggAvg); !errors.Is(err, ErrPlan) {
		t.Fatal("bad key accepted")
	}
	if _, err := Pivot(f, []string{"ts"}, "metric", "ghost", AggAvg); !errors.Is(err, ErrPlan) {
		t.Fatal("bad value col accepted")
	}
}

func jobsFrame(t testing.TB) *schema.Frame {
	t.Helper()
	s := schema.New(
		schema.Field{Name: "component", Kind: schema.KindString},
		schema.Field{Name: "job_id", Kind: schema.KindString},
		schema.Field{Name: "user", Kind: schema.KindString},
	)
	f := schema.NewFrame(s)
	_ = f.AppendRow(schema.Row{schema.Str("node0"), schema.Str("job1"), schema.Str("alice")})
	_ = f.AppendRow(schema.Row{schema.Str("node1"), schema.Str("job2"), schema.Str("bob")})
	return f
}

func TestJoinInner(t *testing.T) {
	f := longFrame(t)
	jobs := jobsFrame(t)
	joined, err := Join(f, jobs, []string{"component"}, []string{"component"}, InnerJoin, "r_")
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() != 16 {
		t.Fatalf("joined rows = %d, want 16", joined.Len())
	}
	sch := joined.Schema()
	if !sch.Has("job_id") || !sch.Has("user") {
		t.Fatalf("schema = %s", sch)
	}
	ci, ji := sch.MustIndex("component"), sch.MustIndex("job_id")
	for i := 0; i < joined.Len(); i++ {
		r := joined.Row(i)
		want := "job1"
		if r[ci].StrVal() == "node1" {
			want = "job2"
		}
		if r[ji].StrVal() != want {
			t.Fatalf("row %d: %v", i, r)
		}
	}
}

func TestJoinLeftKeepsUnmatched(t *testing.T) {
	f := longFrame(t)
	jobs := jobsFrame(t)
	// Remove node1's job so it is unmatched.
	jobs = jobs.Filter(func(r schema.Row) bool { return r[0].StrVal() == "node0" })
	inner, _ := Join(f, jobs, []string{"component"}, []string{"component"}, InnerJoin, "")
	left, err := Join(f, jobs, []string{"component"}, []string{"component"}, LeftJoin, "")
	if err != nil {
		t.Fatal(err)
	}
	if inner.Len() != 8 || left.Len() != 16 {
		t.Fatalf("inner=%d left=%d, want 8/16", inner.Len(), left.Len())
	}
	sch := left.Schema()
	ci, ji := sch.MustIndex("component"), sch.MustIndex("job_id")
	for i := 0; i < left.Len(); i++ {
		r := left.Row(i)
		if r[ci].StrVal() == "node1" && !r[ji].IsNull() {
			t.Fatalf("unmatched row should have null job: %v", r)
		}
	}
}

func TestJoinCollisionRenamed(t *testing.T) {
	a := schema.NewFrame(schema.New(
		schema.Field{Name: "k", Kind: schema.KindString},
		schema.Field{Name: "v", Kind: schema.KindFloat},
	))
	_ = a.AppendRow(schema.Row{schema.Str("x"), schema.Float(1)})
	b := schema.NewFrame(schema.New(
		schema.Field{Name: "k", Kind: schema.KindString},
		schema.Field{Name: "v", Kind: schema.KindFloat},
	))
	_ = b.AppendRow(schema.Row{schema.Str("x"), schema.Float(2)})
	j, err := Join(a, b, []string{"k"}, []string{"k"}, InnerJoin, "right_")
	if err != nil {
		t.Fatal(err)
	}
	if !j.Schema().Has("right_v") {
		t.Fatalf("schema = %s", j.Schema())
	}
	if j.Row(0)[j.Schema().MustIndex("right_v")].FloatVal() != 2 {
		t.Fatalf("row = %v", j.Row(0))
	}
}

func TestJoinErrors(t *testing.T) {
	f := longFrame(t)
	jobs := jobsFrame(t)
	if _, err := Join(f, jobs, nil, nil, InnerJoin, ""); !errors.Is(err, ErrPlan) {
		t.Fatal("empty keys accepted")
	}
	if _, err := Join(f, jobs, []string{"component"}, []string{"component", "user"}, InnerJoin, ""); !errors.Is(err, ErrPlan) {
		t.Fatal("mismatched key lists accepted")
	}
	if _, err := Join(f, jobs, []string{"ghost"}, []string{"component"}, InnerJoin, ""); !errors.Is(err, ErrPlan) {
		t.Fatal("bad left key accepted")
	}
	if _, err := Join(f, jobs, []string{"component"}, []string{"ghost"}, InnerJoin, ""); !errors.Is(err, ErrPlan) {
		t.Fatal("bad right key accepted")
	}
}

func TestWithColumn(t *testing.T) {
	f := longFrame(t)
	vi := f.Schema().MustIndex("value")
	out, err := WithColumn(f, "kw", schema.KindFloat, func(r schema.Row) schema.Value {
		return schema.Float(r[vi].FloatVal() / 1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	ki := out.Schema().MustIndex("kw")
	if math.Abs(out.Row(0)[ki].FloatVal()-0.1) > 1e-12 {
		t.Fatalf("computed column = %v", out.Row(0)[ki])
	}
	if _, err := WithColumn(f, "value", schema.KindFloat, nil); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

// TestAggStateMergeAssociative: a cell folded in two parts and merged
// answers every aggregation as the cell folded whole does.
func TestAggStateMergeAssociative(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	for _, kind := range []AggKind{AggAvg, AggSum, AggMin, AggMax, AggCount, AggFirst, AggLast} {
		var all, a, b tsdb.Cell
		for i, v := range vals {
			add(&all, kind, i, schema.Float(v))
			if i < 3 {
				add(&a, kind, i, schema.Float(v))
			} else {
				add(&b, kind, i, schema.Float(v))
			}
		}
		a.Merge(b)
		if !value(&all, kind, true).Equal(value(&a, kind, true)) {
			t.Fatalf("merge mismatch for %v: %v vs %v", kind, value(&all, kind, true), value(&a, kind, true))
		}
	}
}

func TestGroupByGlobalAggregateOverEmptyInput(t *testing.T) {
	f := schema.NewFrame(schema.New(schema.Field{Name: "v", Kind: schema.KindFloat}))
	out, err := GroupBy(f, nil, []Agg{
		{Col: "v", Kind: AggCount, As: "n"},
		{Col: "v", Kind: AggAvg, As: "m"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (SQL global aggregate)", out.Len())
	}
	if out.Row(0)[0].IntVal() != 0 {
		t.Fatalf("count = %v, want 0", out.Row(0)[0])
	}
	if !out.Row(0)[1].IsNull() {
		t.Fatalf("avg over empty = %v, want null", out.Row(0)[1])
	}
	// Keyed group-by over empty input stays empty.
	s2 := schema.New(schema.Field{Name: "k", Kind: schema.KindString}, schema.Field{Name: "v", Kind: schema.KindFloat})
	out, err = GroupBy(schema.NewFrame(s2), []string{"k"}, []Agg{{Col: "v", Kind: AggSum}})
	if err != nil || out.Len() != 0 {
		t.Fatalf("keyed empty group-by = %d rows, %v", out.Len(), err)
	}
}

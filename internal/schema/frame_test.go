package schema

import (
	"testing"
	"time"
)

func testSchema() *Schema {
	return New(
		Field{Name: "ts", Kind: KindTime},
		Field{Name: "node", Kind: KindString},
		Field{Name: "power", Kind: KindFloat},
		Field{Name: "count", Kind: KindInt},
	)
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	i, ok := s.Index("power")
	if !ok || i != 2 {
		t.Fatalf("Index(power) = %d,%v want 2,true", i, ok)
	}
	if _, ok := s.Index("nope"); ok {
		t.Fatal("Index(nope) should be absent")
	}
	if !s.Has("node") || s.Has("absent") {
		t.Fatal("Has misbehaves")
	}
	if got := s.String(); got != "(ts:time, node:string, power:float, count:int)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSchemaPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate field name")
		}
	}()
	New(Field{Name: "a", Kind: KindInt}, Field{Name: "a", Kind: KindInt})
}

func TestSchemaExtendProject(t *testing.T) {
	s := testSchema()
	e, err := s.Extend(Field{Name: "job", Kind: KindString})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 5 || !e.Has("job") {
		t.Fatal("Extend did not add field")
	}
	if _, err := s.Extend(Field{Name: "node", Kind: KindString}); err == nil {
		t.Fatal("Extend should reject duplicate")
	}
	p, err := s.Project("power", "node")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Field(0).Name != "power" || p.Field(1).Name != "node" {
		t.Fatalf("Project wrong: %s", p)
	}
	if _, err := s.Project("missing"); err == nil {
		t.Fatal("Project should fail on missing field")
	}
}

func TestSchemaEqual(t *testing.T) {
	a, b := testSchema(), testSchema()
	if !a.Equal(b) {
		t.Fatal("identical schemas should be Equal")
	}
	c := New(Field{Name: "x", Kind: KindInt})
	if a.Equal(c) {
		t.Fatal("different schemas should not be Equal")
	}
	if a.Equal(nil) {
		t.Fatal("Equal(nil) should be false")
	}
}

func sampleRow(i int) Row {
	return Row{
		Time(time.Date(2024, 6, 1, 0, 0, i, 0, time.UTC)),
		Str("node" + string(rune('a'+i%3))),
		Float(float64(100 + i)),
		Int(int64(i)),
	}
}

func TestFrameAppendAndRead(t *testing.T) {
	f := NewFrame(testSchema())
	for i := 0; i < 10; i++ {
		if err := f.AppendRow(sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() != 10 {
		t.Fatalf("Len = %d, want 10", f.Len())
	}
	for i := 0; i < 10; i++ {
		if !f.Row(i).Equal(sampleRow(i)) {
			t.Fatalf("row %d = %v, want %v", i, f.Row(i), sampleRow(i))
		}
	}
}

func TestFrameRejectsBadRows(t *testing.T) {
	f := NewFrame(testSchema())
	if err := f.AppendRow(Row{Int(1)}); err == nil {
		t.Fatal("short row should be rejected")
	}
	bad := sampleRow(0)
	bad[2] = Str("not a float")
	if err := f.AppendRow(bad); err == nil {
		t.Fatal("kind mismatch should be rejected")
	}
}

func TestFrameNulls(t *testing.T) {
	f := NewFrame(testSchema())
	r := Row{Null, Null, Null, Null}
	if err := f.AppendRow(r); err != nil {
		t.Fatal(err)
	}
	got := f.Row(0)
	for i, v := range got {
		if !v.IsNull() {
			t.Fatalf("value %d should be null, got %v", i, v)
		}
	}
	if !f.Col(0).IsNull(0) {
		t.Fatal("IsNull(0) should be true")
	}
}

func TestFrameFilterSelect(t *testing.T) {
	f := NewFrame(testSchema())
	for i := 0; i < 10; i++ {
		_ = f.AppendRow(sampleRow(i))
	}
	odd := f.Filter(func(r Row) bool { return r[3].IntVal()%2 == 1 })
	if odd.Len() != 5 {
		t.Fatalf("Filter kept %d rows, want 5", odd.Len())
	}
	sel, err := f.Select("power", "node")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Schema().Len() != 2 || sel.Len() != 10 {
		t.Fatal("Select shape wrong")
	}
	if sel.Row(0)[0].FloatVal() != 100 {
		t.Fatalf("Select reordered values: %v", sel.Row(0))
	}
	if _, err := f.Select("missing"); err == nil {
		t.Fatal("Select should fail on missing column")
	}
}

func TestFrameSortBy(t *testing.T) {
	f := NewFrame(testSchema())
	for i := 9; i >= 0; i-- {
		_ = f.AppendRow(sampleRow(i))
	}
	asc, err := f.SortBy(SortKey{Col: "count"})
	if err != nil {
		t.Fatal(err)
	}
	desc, err := f.SortBy(SortKey{Col: "count", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if asc.Row(i)[3].IntVal() != int64(i) || desc.Row(i)[3].IntVal() != int64(9-i) {
			t.Fatalf("sort order wrong at %d: asc %v desc %v", i, asc.Row(i), desc.Row(i))
		}
		if f.Row(i)[3].IntVal() != int64(9-i) {
			t.Fatalf("SortBy reordered its receiver at %d: %v", i, f.Row(i))
		}
	}
	if _, err := f.SortBy(SortKey{Col: "nope"}); err == nil {
		t.Fatal("SortBy should fail on missing column")
	}
}

func TestFrameSortByStable(t *testing.T) {
	s := New(Field{Name: "k", Kind: KindString}, Field{Name: "seq", Kind: KindInt})
	f := NewFrame(s)
	for i := 0; i < 6; i++ {
		_ = f.AppendRow(Row{Str("same"), Int(int64(i))})
	}
	for _, desc := range []bool{false, true} {
		sorted, err := f.SortBy(SortKey{Col: "k", Desc: desc})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if sorted.Row(i)[1].IntVal() != int64(i) {
				t.Fatalf("stable sort violated (desc=%v)", desc)
			}
		}
	}
}

func TestFrameAppendFrame(t *testing.T) {
	a, b := NewFrame(testSchema()), NewFrame(testSchema())
	_ = a.AppendRow(sampleRow(0))
	_ = b.AppendRow(sampleRow(1))
	if err := a.AppendFrame(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 || !a.Row(1).Equal(sampleRow(1)) {
		t.Fatal("AppendFrame wrong")
	}
	c := NewFrame(New(Field{Name: "x", Kind: KindInt}))
	if err := a.AppendFrame(c); err == nil {
		t.Fatal("AppendFrame should reject schema mismatch")
	}
}

func TestFrameEqual(t *testing.T) {
	a, b := NewFrame(testSchema()), NewFrame(testSchema())
	_ = a.AppendRow(sampleRow(0))
	_ = b.AppendRow(sampleRow(0))
	if !a.Equal(b) {
		t.Fatal("equal frames should be Equal")
	}
	_ = b.AppendRow(sampleRow(1))
	if a.Equal(b) {
		t.Fatal("different lengths should not be Equal")
	}
}

func TestColumnRawAccessors(t *testing.T) {
	f := NewFrame(testSchema())
	for i := 0; i < 3; i++ {
		_ = f.AppendRow(sampleRow(i))
	}
	powers, err := f.ColByName("power")
	if err != nil {
		t.Fatal(err)
	}
	raw := powers.Floats()
	if len(raw) != 3 || raw[1] != 101 {
		t.Fatalf("Floats() = %v", raw)
	}
	counts, _ := f.ColByName("count")
	if counts.Ints()[2] != 2 {
		t.Fatalf("Ints() = %v", counts.Ints())
	}
	nodes, _ := f.ColByName("node")
	if nodes.Strs()[0] != "nodea" {
		t.Fatalf("Strs() = %v", nodes.Strs())
	}
	if _, err := f.ColByName("absent"); err == nil {
		t.Fatal("ColByName should fail on absent column")
	}
}

func TestRowConforms(t *testing.T) {
	s := testSchema()
	if err := sampleRow(0).Conforms(s); err != nil {
		t.Fatal(err)
	}
	if err := (Row{Int(1)}).Conforms(s); err == nil {
		t.Fatal("short row should not conform")
	}
	bad := sampleRow(0)
	bad[1] = Int(5)
	if err := bad.Conforms(s); err == nil {
		t.Fatal("kind mismatch should not conform")
	}
	nulls := Row{Null, Null, Null, Null}
	if err := nulls.Conforms(s); err != nil {
		t.Fatalf("null row should conform: %v", err)
	}
}

func TestObservationRoundTrip(t *testing.T) {
	o := Observation{
		Ts: time.Date(2024, 6, 1, 1, 2, 3, 0, time.UTC), System: "compass",
		Source: "power_temp", Component: "node0001", Metric: "node_power_w", Value: 512.5,
	}
	r := o.Row()
	if err := r.Conforms(ObservationSchema); err != nil {
		t.Fatal(err)
	}
	got := ObservationFromRow(r)
	if got != o {
		t.Fatalf("round trip: got %+v want %+v", got, o)
	}
}

func TestEventRoundTrip(t *testing.T) {
	e := Event{
		Ts: time.Date(2024, 6, 1, 1, 2, 3, 0, time.UTC), System: "compass",
		Source: "syslog", Host: "login01", Severity: "error", Message: "link flap on port 3",
	}
	r := e.Row()
	if err := r.Conforms(EventSchema); err != nil {
		t.Fatal(err)
	}
	if got := EventFromRow(r); got != e {
		t.Fatalf("round trip: got %+v want %+v", got, e)
	}
}

package schema

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

var allKinds = New(
	Field{Name: "t", Kind: KindTime},
	Field{Name: "i", Kind: KindInt},
	Field{Name: "f", Kind: KindFloat},
	Field{Name: "s", Kind: KindString},
	Field{Name: "b", Kind: KindBool},
)

// randomFrame fills every kind with small value domains (so sorts tie)
// and about one null in six.
func randomFrame(rng *rand.Rand, rows int) *Frame {
	f := NewFrame(allKinds)
	for r := 0; r < rows; r++ {
		row := Row{
			TimeNanos(int64(rng.Intn(5))), Int(int64(rng.Intn(5) - 2)), Float(float64(rng.Intn(5)) / 2),
			Str(string(rune('a' + rng.Intn(4)))), Bool(rng.Intn(2) == 0),
		}
		if rng.Intn(10) == 0 {
			row[2] = Float(math.NaN())
		}
		for c := range row {
			if rng.Intn(6) == 0 {
				row[c] = Null
			}
		}
		if err := f.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return f
}

// The row-at-a-time bodies Filter, Select, SortBy and AppendFrame had
// before they were rebuilt on appendRange and Gather; the property tests
// below hold the column-wise versions to them.

func rowwiseFilter(f *Frame, keep func(Row) bool) *Frame {
	out := NewFrame(f.schema)
	for i := 0; i < f.Len(); i++ {
		if r := f.Row(i); keep(r) {
			_ = out.AppendRow(r)
		}
	}
	return out
}

func rowwiseSelect(f *Frame, names ...string) *Frame {
	ns, _ := f.schema.Project(names...)
	out := NewFrame(ns)
	for r := 0; r < f.Len(); r++ {
		row := make(Row, len(names))
		for i, n := range names {
			row[i] = f.cols[f.schema.MustIndex(n)].Value(r)
		}
		_ = out.AppendRow(row)
	}
	return out
}

func rowwiseSortBy(f *Frame, keys ...SortKey) *Frame {
	rows := f.Rows()
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range keys {
			c := f.schema.MustIndex(k.Col)
			if cmp := rows[a][c].Compare(rows[b][c]); cmp != 0 {
				return (cmp < 0) != k.Desc
			}
		}
		return false
	})
	return rowsFrame(f.schema, rows...)
}

// rowsFrame builds a frame row by row.
func rowsFrame(s *Schema, rows ...Row) *Frame {
	f := NewFrame(s)
	for _, r := range rows {
		if err := f.AppendRow(r); err != nil {
			panic(err)
		}
	}
	return f
}

func TestFrameColumnwiseMatchesRowwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		f := randomFrame(rng, rng.Intn(60))
		orig := rowsFrame(f.schema, f.Rows()...)

		mod, rem := 1+rng.Intn(4), rng.Intn(2)
		keep := func(r Row) bool { return !r[1].IsNull() && int(r[1].IntVal()+2)%mod == rem%mod }
		if got, want := f.Filter(keep), rowwiseFilter(f, keep); !got.Equal(want) {
			t.Fatalf("iter %d: Filter kept %d rows, row-wise %d", iter, got.Len(), want.Len())
		}

		perm := rng.Perm(allKinds.Len())[:1+rng.Intn(allKinds.Len())]
		names := make([]string, len(perm))
		keys := make([]SortKey, len(perm))
		for i, c := range perm {
			names[i] = allKinds.Field(c).Name
			keys[i] = SortKey{Col: names[i], Desc: rng.Intn(2) == 0}
		}
		got, err := f.Select(names...)
		if err != nil {
			t.Fatal(err)
		}
		if want := rowwiseSelect(f, names...); !got.Equal(want) {
			t.Fatalf("iter %d: Select %v differs from row-wise", iter, names)
		}

		both := rowwiseFilter(f, func(Row) bool { return true })
		if err := both.AppendFrame(f); err != nil {
			t.Fatal(err)
		}
		if want := rowsFrame(f.schema, append(f.Rows(), f.Rows()...)...); !both.Equal(want) {
			t.Fatalf("iter %d: AppendFrame differs from row-wise", iter)
		}

		sorted, err := f.SortBy(keys...)
		if err != nil {
			t.Fatal(err)
		}
		if want := rowwiseSortBy(f, keys...); !sorted.Equal(want) {
			t.Fatalf("iter %d: SortBy %v differs from the stable row-wise sort", iter, keys)
		}
		if !f.Equal(orig) {
			t.Fatalf("iter %d: a derived frame wrote into its source", iter)
		}
	}
}

// TestAppendFrameSelf: the rows are copied out of o before f grows, so
// f.AppendFrame(f) doubles f, and a frame built by appending does not
// share storage with its source.
func TestAppendFrameSelf(t *testing.T) {
	f := randomFrame(rand.New(rand.NewSource(9)), 33)
	want := rowsFrame(f.schema, append(f.Rows(), f.Rows()...)...)
	if err := f.AppendFrame(f); err != nil {
		t.Fatal(err)
	}
	if !f.Equal(want) {
		t.Fatal("AppendFrame(self) is not the frame twice")
	}
	cp := NewFrame(f.schema)
	if err := cp.AppendFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := cp.AppendRow(f.Row(0)); err != nil {
		t.Fatal(err)
	}
	for i := range f.cols {
		f.cols[i].nulls[0] = !f.cols[i].nulls[0]
	}
	if f.Len() != 66 || cp.Len() != 67 || cp.Row(0).Equal(f.Row(0)) {
		t.Fatal("copy shares storage with its source")
	}
	if err := f.AppendRange(f, 3, 67); err == nil {
		t.Fatal("AppendRange past the end accepted")
	}
	if err := f.AppendRange(f, 5, 4); err == nil {
		t.Fatal("AppendRange with hi < lo accepted")
	}
}

// TestAdoptedColumnsEqualAppended: a column built by adopting a payload
// is the column Append builds — including under nulls, where whatever
// the payload held is zeroed — and mismatched shapes are refused.
func TestAdoptedColumnsEqualAppended(t *testing.T) {
	nulls := func() []bool { return []bool{false, true, false} }
	ic, err := IntColumn(KindInt, []int64{4, 99, -1}, nulls())
	if err != nil {
		t.Fatal(err)
	}
	tc, err := IntColumn(KindTime, []int64{4, 99, -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := IntColumn(KindBool, []int64{7, 1, 0}, nulls())
	if err != nil {
		t.Fatal(err)
	}
	fc, err := FloatColumn([]float64{1.5, 99, math.Inf(1)}, nulls())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := StringColumn([]string{"a", "hidden", ""}, nulls())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Field{Name: "i", Kind: KindInt}, Field{Name: "t", Kind: KindTime}, Field{Name: "b", Kind: KindBool},
		Field{Name: "f", Kind: KindFloat}, Field{Name: "s", Kind: KindString})
	got, err := FrameOfColumns(s, []*Column{ic, tc, bc, fc, sc})
	if err != nil {
		t.Fatal(err)
	}
	want := rowsFrame(s,
		Row{Int(4), TimeNanos(4), Bool(true), Float(1.5), Str("a")},
		Row{Null, TimeNanos(99), Null, Null, Null},
		Row{Int(-1), TimeNanos(-1), Bool(false), Float(math.Inf(1)), Str("")},
	)
	if !got.Equal(want) {
		t.Fatalf("adopted frame = %v, want %v", got.Rows(), want.Rows())
	}
	if ic.Ints()[1] != 0 || bc.Ints()[0] != 1 || bc.Ints()[1] != 0 || fc.Floats()[1] != 0 || sc.Strs()[1] != "" {
		t.Fatalf("payload not normalized: %v %v %v %v", ic.Ints(), bc.Ints(), fc.Floats(), sc.Strs())
	}

	if _, err := IntColumn(KindFloat, []int64{1}, nil); err == nil {
		t.Fatal("int payload adopted as a float column")
	}
	if _, err := FloatColumn([]float64{1, 2}, []bool{false}); err == nil {
		t.Fatal("short null mask accepted")
	}
	if _, err := FrameOfColumns(s, []*Column{ic, tc}); err == nil {
		t.Fatal("too few columns accepted")
	}
	if _, err := FrameOfColumns(s, []*Column{tc, ic, bc, fc, sc}); err == nil {
		t.Fatal("columns of the wrong kind accepted")
	}
	short, _ := StringColumn([]string{"x"}, nil)
	if _, err := FrameOfColumns(s, []*Column{ic, tc, bc, fc, short}); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

// TestFrameReadPrimitivesConcurrently: the cold scan gathers from and
// appends out of decoded columns on parallel row-group workers; the
// primitives must only read their source.
func TestFrameReadPrimitivesConcurrently(t *testing.T) {
	f := randomFrame(rand.New(rand.NewSource(13)), 500)
	sel := make([]int32, 0, 250)
	for i := 0; i < 500; i += 2 {
		sel = append(sel, int32(i))
	}
	want := f.Gather(sel)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := f.Gather(sel)
			cp := NewFrame(f.schema)
			if err := cp.AppendRange(f, 0, f.Len()); err != nil || !g.Equal(want) || !cp.Equal(f) {
				t.Errorf("concurrent gather/append diverged: %v", err)
			}
		}()
	}
	wg.Wait()
}

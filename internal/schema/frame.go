package schema

import (
	"fmt"
	"slices"
)

// Column is a typed vector of values plus a null mask. Only the slice
// matching the column kind is allocated; bool and time payloads share the
// int64 slice. Columns are the storage unit of Frame and of the columnar
// file format.
type Column struct {
	kind   Kind
	nulls  []bool
	ints   []int64 // int, time (unix nanos), bool (0/1)
	floats []float64
	strs   []string
	length int
}

// NewColumn returns an empty column of the given kind.
func NewColumn(kind Kind) *Column { return &Column{kind: kind} }

// Kind returns the column's kind.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the number of values, including nulls.
func (c *Column) Len() int { return c.length }

// Append adds a value. Null values are recorded in the mask with a
// zero payload. Appending a non-null value of the wrong kind is an error.
func (c *Column) Append(v Value) error {
	if v.IsNull() {
		c.appendNull()
		return nil
	}
	if v.Kind() != c.kind {
		return fmt.Errorf("schema: column kind %v, value kind %v", c.kind, v.Kind())
	}
	c.nulls = append(c.nulls, false)
	switch c.kind {
	case KindBool:
		n := int64(0)
		if v.BoolVal() {
			n = 1
		}
		c.ints = append(c.ints, n)
	case KindInt:
		c.ints = append(c.ints, v.IntVal())
	case KindTime:
		c.ints = append(c.ints, v.UnixNanos())
	case KindFloat:
		c.floats = append(c.floats, v.FloatVal())
	case KindString:
		c.strs = append(c.strs, v.StrVal())
	default:
		return fmt.Errorf("schema: cannot append to column of kind %v", c.kind)
	}
	c.length++
	return nil
}

func (c *Column) appendNull() {
	c.nulls = append(c.nulls, true)
	switch c.kind {
	case KindBool, KindInt, KindTime:
		c.ints = append(c.ints, 0)
	case KindFloat:
		c.floats = append(c.floats, 0)
	case KindString:
		c.strs = append(c.strs, "")
	}
	c.length++
}

// IsNull reports whether the i'th value is null.
func (c *Column) IsNull(i int) bool { return c.nulls[i] }

// Value materializes the i'th value.
func (c *Column) Value(i int) Value {
	if c.nulls[i] {
		return Null
	}
	switch c.kind {
	case KindBool:
		return Bool(c.ints[i] != 0)
	case KindInt:
		return Int(c.ints[i])
	case KindTime:
		return TimeNanos(c.ints[i])
	case KindFloat:
		return Float(c.floats[i])
	case KindString:
		return Str(c.strs[i])
	default:
		return Null
	}
}

// Ints exposes the raw int64 payload (int/time/bool columns). The caller
// must not mutate it. Null positions hold zero.
func (c *Column) Ints() []int64 { return c.ints }

// Floats exposes the raw float64 payload (float columns).
func (c *Column) Floats() []float64 { return c.floats }

// Strs exposes the raw string payload (string columns).
func (c *Column) Strs() []string { return c.strs }

// IntColumn adopts vals as the payload of an int, time (unix nanos) or
// bool (0/1) column without copying; nulls marks the null positions and
// may be nil for none. The column owns both slices afterwards. Payload
// under a null is zeroed and bool payloads are normalized to 0/1, so the
// result is indistinguishable from one built by Append.
func IntColumn(kind Kind, vals []int64, nulls []bool) (*Column, error) {
	if kind != KindInt && kind != KindTime && kind != KindBool {
		return nil, fmt.Errorf("schema: int payload for column kind %v", kind)
	}
	nulls, err := adoptNulls(vals, nulls)
	if err != nil {
		return nil, err
	}
	if kind == KindBool {
		for i, v := range vals {
			if v != 0 {
				vals[i] = 1
			}
		}
	}
	return &Column{kind: kind, nulls: nulls, ints: vals, length: len(vals)}, nil
}

// FloatColumn adopts vals as the payload of a float column; see IntColumn.
func FloatColumn(vals []float64, nulls []bool) (*Column, error) {
	nulls, err := adoptNulls(vals, nulls)
	if err != nil {
		return nil, err
	}
	return &Column{kind: KindFloat, nulls: nulls, floats: vals, length: len(vals)}, nil
}

// StringColumn adopts vals as the payload of a string column; see
// IntColumn.
func StringColumn(vals []string, nulls []bool) (*Column, error) {
	nulls, err := adoptNulls(vals, nulls)
	if err != nil {
		return nil, err
	}
	return &Column{kind: KindString, nulls: nulls, strs: vals, length: len(vals)}, nil
}

// adoptNulls checks a null mask against its payload and zeroes the
// payload under every null; a nil mask becomes all-false.
func adoptNulls[T any](vals []T, nulls []bool) ([]bool, error) {
	if nulls == nil {
		return make([]bool, len(vals)), nil
	}
	if len(nulls) != len(vals) {
		return nil, fmt.Errorf("schema: null mask has %d entries, payload has %d", len(nulls), len(vals))
	}
	var zero T
	for i, null := range nulls {
		if null {
			vals[i] = zero
		}
	}
	return nulls, nil
}

// appendRange bulk-appends rows [lo, hi) of o, a column of c's kind.
func (c *Column) appendRange(o *Column, lo, hi int) {
	c.nulls = append(c.nulls, o.nulls[lo:hi]...)
	switch c.kind {
	case KindBool, KindInt, KindTime:
		c.ints = append(c.ints, o.ints[lo:hi]...)
	case KindFloat:
		c.floats = append(c.floats, o.floats[lo:hi]...)
	case KindString:
		c.strs = append(c.strs, o.strs[lo:hi]...)
	}
	c.length += hi - lo
}

// Gather returns a new column holding rows sel[0], sel[1], ... of c, in
// that order. Every index must be in [0, Len).
func (c *Column) Gather(sel []int32) *Column {
	out := &Column{kind: c.kind, nulls: gather(c.nulls, sel), length: len(sel)}
	switch c.kind {
	case KindBool, KindInt, KindTime:
		out.ints = gather(c.ints, sel)
	case KindFloat:
		out.floats = gather(c.floats, sel)
	case KindString:
		out.strs = gather(c.strs, sel)
	}
	return out
}

func gather[T any](src []T, sel []int32) []T {
	out := make([]T, len(sel))
	for i, r := range sel {
		out[i] = src[r]
	}
	return out
}

// Frame is a columnar batch of rows sharing one schema: the unit of work
// in the stream processor and the row-group payload in the columnar file
// format. A Frame is not safe for concurrent mutation.
type Frame struct {
	schema *Schema
	cols   []*Column
}

// NewFrame returns an empty frame with the given schema.
func NewFrame(s *Schema) *Frame {
	cols := make([]*Column, s.Len())
	for i := 0; i < s.Len(); i++ {
		cols[i] = NewColumn(s.Field(i).Kind)
	}
	return &Frame{schema: s, cols: cols}
}

// FrameOfColumns assembles a frame from whole columns, which it adopts
// without copying: one per schema field, of that field's kind, all of
// equal length.
func FrameOfColumns(s *Schema, cols []*Column) (*Frame, error) {
	if len(cols) != s.Len() {
		return nil, fmt.Errorf("schema: %d columns for frame width %d", len(cols), s.Len())
	}
	for i, c := range cols {
		if c.kind != s.Field(i).Kind {
			return nil, fmt.Errorf("schema: column %q: kind %v, field kind %v", s.Field(i).Name, c.kind, s.Field(i).Kind)
		}
		if c.length != cols[0].length {
			return nil, fmt.Errorf("schema: column %q has %d rows, column %q has %d",
				s.Field(i).Name, c.length, s.Field(0).Name, cols[0].length)
		}
	}
	return &Frame{schema: s, cols: cols}, nil
}

// Schema returns the frame's schema.
func (f *Frame) Schema() *Schema { return f.schema }

// Len returns the number of rows.
func (f *Frame) Len() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// Col returns the i'th column.
func (f *Frame) Col(i int) *Column { return f.cols[i] }

// ColByName returns the named column, or an error if absent.
func (f *Frame) ColByName(name string) (*Column, error) {
	i, ok := f.schema.Index(name)
	if !ok {
		return nil, fmt.Errorf("schema: frame has no column %q", name)
	}
	return f.cols[i], nil
}

// AppendRow validates and appends one row.
func (f *Frame) AppendRow(r Row) error {
	if len(r) != len(f.cols) {
		return fmt.Errorf("schema: row width %d != frame width %d", len(r), len(f.cols))
	}
	for i, v := range r {
		if err := f.cols[i].Append(v); err != nil {
			return fmt.Errorf("schema: column %q: %w", f.schema.Field(i).Name, err)
		}
	}
	return nil
}

// Grow reserves capacity for n more rows, so a caller that knows how much
// it is about to append pays for one allocation per column.
func (f *Frame) Grow(n int) {
	for _, c := range f.cols {
		c.nulls = slices.Grow(c.nulls, n)
		switch c.kind {
		case KindBool, KindInt, KindTime:
			c.ints = slices.Grow(c.ints, n)
		case KindFloat:
			c.floats = slices.Grow(c.floats, n)
		case KindString:
			c.strs = slices.Grow(c.strs, n)
		}
	}
}

// AppendFrame appends all rows of o, which must have an equal schema.
func (f *Frame) AppendFrame(o *Frame) error { return f.AppendRange(o, 0, o.Len()) }

// AppendRange appends rows [lo, hi) of o, which must have an equal
// schema, column by column. The rows are copied; o may be f itself.
func (f *Frame) AppendRange(o *Frame, lo, hi int) error {
	if !f.schema.Equal(o.schema) {
		return fmt.Errorf("schema: append frame: schema mismatch %s vs %s", f.schema, o.schema)
	}
	if lo < 0 || hi < lo || hi > o.Len() {
		return fmt.Errorf("schema: append frame: rows [%d, %d) out of range of %d", lo, hi, o.Len())
	}
	for i, c := range f.cols {
		c.appendRange(o.cols[i], lo, hi)
	}
	return nil
}

// Gather returns a new frame holding rows sel[0], sel[1], ... of f, in
// that order. Every index must be in [0, Len).
func (f *Frame) Gather(sel []int32) *Frame {
	out := &Frame{schema: f.schema, cols: make([]*Column, len(f.cols))}
	for i, c := range f.cols {
		out.cols[i] = c.Gather(sel)
	}
	return out
}

// Row materializes the i'th row.
func (f *Frame) Row(i int) Row {
	r := make(Row, len(f.cols))
	for c, col := range f.cols {
		r[c] = col.Value(i)
	}
	return r
}

// Rows materializes every row. Intended for tests and small results.
func (f *Frame) Rows() []Row {
	out := make([]Row, f.Len())
	for i := range out {
		out[i] = f.Row(i)
	}
	return out
}

// Filter returns a new frame holding only rows where keep returns true.
func (f *Frame) Filter(keep func(Row) bool) *Frame {
	var sel []int32
	for i := 0; i < f.Len(); i++ {
		if keep(f.Row(i)) {
			sel = append(sel, int32(i))
		}
	}
	return f.Gather(sel)
}

// Select returns a new frame with only the named columns.
func (f *Frame) Select(names ...string) (*Frame, error) {
	ns, err := f.schema.Project(names...)
	if err != nil {
		return nil, err
	}
	out := NewFrame(ns)
	for i, n := range names {
		out.cols[i].appendRange(f.cols[f.schema.MustIndex(n)], 0, f.Len())
	}
	return out, nil
}

// SortKey orders rows by one column: ascending in Value.Compare's order,
// or descending when Desc.
type SortKey struct {
	Col  string
	Desc bool
}

// SortBy returns a new frame holding f's rows ordered by keys, the first
// key most significant. The sort is stable, one permutation sort over the
// key columns and then one Gather; f itself is not reordered.
func (f *Frame) SortBy(keys ...SortKey) (*Frame, error) {
	cols := make([]*Column, len(keys))
	for i, k := range keys {
		j, ok := f.schema.Index(k.Col)
		if !ok {
			return nil, fmt.Errorf("schema: sort: no column %q", k.Col)
		}
		cols[i] = f.cols[j]
	}
	perm := make([]int32, f.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		for i, c := range cols {
			if cmp := c.Value(int(a)).Compare(c.Value(int(b))); cmp != 0 {
				if keys[i].Desc {
					return -cmp
				}
				return cmp
			}
		}
		return 0
	})
	return f.Gather(perm), nil
}

// Equal reports whether two frames hold identical schemas and rows.
func (f *Frame) Equal(o *Frame) bool {
	if !f.schema.Equal(o.schema) || f.Len() != o.Len() {
		return false
	}
	for i := 0; i < f.Len(); i++ {
		if !f.Row(i).Equal(o.Row(i)) {
			return false
		}
	}
	return true
}

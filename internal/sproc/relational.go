// Package sproc holds the batch half of the paper's stream processing
// (§V-B): relational operators over schema.Frame (filter, group-by,
// pivot, join) and a SQL dialect over them, the clauses of the pipeline
// anatomy of Fig 4-b. The streaming half — windows, watermarks,
// checkpoints — is a cq.Pump whose view has a close sink; the Silver job
// hands each closed window's frame to these operators. Every aggregate
// here folds into tsdb's rollup cell, the one aggregation state of the
// system: GroupBy, Pivot and SQL rows fold a value exactly as the LAKE and
// the CQ views do.
package sproc

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"odakit/internal/schema"
	"odakit/internal/tsdb"
)

// ErrPlan reports an invalid operator plan (bad column, empty spec, ...).
var ErrPlan = errors.New("sproc: bad plan")

// AggKind selects an aggregation function.
type AggKind int

// Supported aggregations.
const (
	AggAvg AggKind = iota
	AggSum
	AggMin
	AggMax
	AggCount
	AggFirst
	AggLast
)

// String returns the SQL-ish name of the aggregation.
func (k AggKind) String() string {
	switch k {
	case AggAvg:
		return "avg"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	case AggFirst:
		return "first"
	case AggLast:
		return "last"
	default:
		return fmt.Sprintf("agg(%d)", int(k))
	}
}

// Agg is one aggregation in a group-by: Kind over Col, output named As.
type Agg struct {
	Col  string
	Kind AggKind
	As   string
}

func (a Agg) outName() string {
	if a.As != "" {
		return a.As
	}
	return a.Kind.String() + "_" + a.Col
}

func (a Agg) outKind() schema.Kind {
	if a.Kind == AggCount {
		return schema.KindInt
	}
	return schema.KindFloat
}

// numeric reports whether a column of kind k folds as numbers. Any other
// column answers count alone: SQL's count(col) counts its non-null values.
func numeric(k schema.Kind) bool {
	return k == schema.KindFloat || k == schema.KindInt || k == schema.KindBool
}

// add folds v, the seq-th row of its column, into c under kind. Nulls are
// skipped. First is the last value in reverse row order.
func add(c *tsdb.Cell, kind AggKind, seq int, v schema.Value) {
	if v.IsNull() {
		return
	}
	ts := int64(seq)
	if kind == AggFirst {
		ts = math.MaxInt64 - ts
	}
	c.Add(ts, v.FloatVal())
}

// value finalizes c under kind: null for a value of no row, or of a
// column that is not numeric (isNum false).
func value(c *tsdb.Cell, kind AggKind, isNum bool) schema.Value {
	switch {
	case kind == AggCount:
		return schema.Int(c.Count)
	case c.Count == 0 || !isNum:
		return schema.Null
	case kind == AggSum:
		return schema.Float(c.Sum)
	case kind == AggMin:
		return schema.Float(c.Min)
	case kind == AggMax:
		return schema.Float(c.Max)
	case kind == AggFirst, kind == AggLast:
		return schema.Float(c.Last)
	default:
		return schema.Float(c.Sum / float64(c.Count))
	}
}

// Where returns rows satisfying pred (the SQL WHERE clause).
func Where(f *schema.Frame, pred func(schema.Row) bool) *schema.Frame {
	return f.Filter(pred)
}

// group is one grouping cell: the key column values its rows share and one
// cell per aggregate (per pivot position under Pivot).
type group struct {
	key   schema.Row
	cells []tsdb.Cell
}

// fold feeds row, the seq-th, to the group's cells, aggregate by
// aggregate.
func (g *group) fold(seq int, row schema.Row, p *groupPlan) {
	for i, ai := range p.aggIdx {
		add(&g.cells[i], p.kinds[i], seq, row[ai])
	}
}

// groupTable is how rows become groups — the one grouping loop behind
// GroupBy and Pivot. A row's group is found by the codec bytes of its key
// columns (each encoded as a one-value row).
type groupTable struct {
	keyIdx []int
	ncells int
	groups map[string]*group
	order  []*group // insertion order
	kb     []byte   // key encoding scratch
}

func newGroupTable(keyIdx []int, ncells int) *groupTable {
	return &groupTable{keyIdx: keyIdx, ncells: ncells, groups: make(map[string]*group)}
}

// at finds or creates the group of row's key columns.
func (t *groupTable) at(row schema.Row) *group {
	t.kb = appendKey(t.kb[:0], row, t.keyIdx)
	g, ok := t.groups[string(t.kb)]
	if !ok {
		key := make(schema.Row, len(t.keyIdx))
		for i, ki := range t.keyIdx {
			key[i] = row[ki]
		}
		g = &group{key: key, cells: make([]tsdb.Cell, t.ncells)}
		t.groups[string(t.kb)] = g
		t.order = append(t.order, g)
	}
	return g
}

// appendKey appends the codec bytes of row's idx columns, each encoded as
// a one-value row: what "equal keys" means to GROUP BY, PIVOT and JOIN.
func appendKey(buf []byte, row schema.Row, idx []int) []byte {
	for _, i := range idx {
		buf = schema.AppendRow(buf, schema.Row{row[i]})
	}
	return buf
}

// sorted returns the groups ordered by key values, first-seen first among
// keys that compare equal.
func (t *groupTable) sorted() []*group {
	slices.SortStableFunc(t.order, func(a, b *group) int {
		for c := range a.key {
			if cmp := a.key[c].Compare(b.key[c]); cmp != 0 {
				return cmp
			}
		}
		return 0
	})
	return t.order
}

// emitGroups appends one row per group to out: the group's key, then
// each cell's value under the aggregation at its position, over a column
// that is numeric or not.
func emitGroups(out *schema.Frame, gs []*group, kinds []AggKind, isNum []bool) error {
	var row schema.Row
	for _, g := range gs {
		row = append(row[:0], g.key...)
		for i, k := range kinds {
			row = append(row, value(&g.cells[i], k, isNum[i]))
		}
		if err := out.AppendRow(row); err != nil {
			return err
		}
	}
	return nil
}

// keyColumns resolves group-by key names to their positions in sch and the
// output fields that carry them (original kinds).
func keyColumns(sch *schema.Schema, keys []string) ([]int, []schema.Field, error) {
	idx := make([]int, len(keys))
	fields := make([]schema.Field, len(keys))
	for i, k := range keys {
		j, ok := sch.Index(k)
		if !ok {
			return nil, nil, fmt.Errorf("%w: no key column %q", ErrPlan, k)
		}
		idx[i], fields[i] = j, schema.Field{Name: k, Kind: sch.Field(j).Kind}
	}
	return idx, fields, nil
}

// groupPlan is a grouping resolved against an input schema: where the key
// and aggregate columns sit, each aggregate's kind, whether its column is
// numeric, and the output fields — the keys in their original kinds, then
// one column per aggregate.
type groupPlan struct {
	keyIdx, aggIdx []int
	kinds          []AggKind
	numeric        []bool
	fields         []schema.Field
}

func resolvePlan(sch *schema.Schema, keys []string, aggs []Agg) (groupPlan, error) {
	keyIdx, fields, err := keyColumns(sch, keys)
	if err != nil {
		return groupPlan{}, err
	}
	p := groupPlan{keyIdx: keyIdx, fields: fields, aggIdx: make([]int, len(aggs)), kinds: make([]AggKind, len(aggs)), numeric: make([]bool, len(aggs))}
	for i, a := range aggs {
		j, ok := sch.Index(a.Col)
		if !ok {
			return p, fmt.Errorf("%w: no aggregation column %q", ErrPlan, a.Col)
		}
		p.aggIdx[i], p.kinds[i], p.numeric[i] = j, a.Kind, numeric(sch.Field(j).Kind)
		p.fields = append(p.fields, schema.Field{Name: a.outName(), Kind: a.outKind()})
	}
	return p, nil
}

// GroupBy aggregates f by the key columns (SQL GROUP BY). Output schema is
// the keys (original kinds) followed by one column per agg. Row order is
// deterministic: sorted by key values.
func GroupBy(f *schema.Frame, keys []string, aggs []Agg) (*schema.Frame, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("%w: group-by needs at least one aggregation", ErrPlan)
	}
	p, err := resolvePlan(f.Schema(), keys, aggs)
	if err != nil {
		return nil, err
	}
	t := newGroupTable(p.keyIdx, len(aggs))
	for r := 0; r < f.Len(); r++ {
		row := f.Row(r)
		t.at(row).fold(r, row, &p)
	}
	gs := t.sorted()
	if len(keys) == 0 && len(gs) == 0 {
		// SQL semantics: a global aggregate (no keys) over an empty input
		// still yields one row — count 0, other aggregates null.
		gs = []*group{{cells: make([]tsdb.Cell, len(aggs))}}
	}
	out := schema.NewFrame(schema.New(p.fields...))
	return out, emitGroups(out, gs, p.kinds, p.numeric)
}

// Pivot turns long-format rows into wide format (the §V-A Bronze→Silver
// transform): one output row per distinct key tuple, one output column per
// distinct value of pivotCol, cells aggregated from valueCol. Pivoted
// column names are the pivot values, sorted for a deterministic schema.
func Pivot(f *schema.Frame, keys []string, pivotCol, valueCol string, agg AggKind) (*schema.Frame, error) {
	sch := f.Schema()
	pIdx, ok := sch.Index(pivotCol)
	if !ok {
		return nil, fmt.Errorf("%w: no pivot column %q", ErrPlan, pivotCol)
	}
	if sch.Field(pIdx).Kind != schema.KindString {
		return nil, fmt.Errorf("%w: pivot column %q must be a string", ErrPlan, pivotCol)
	}
	vIdx, ok := sch.Index(valueCol)
	if !ok {
		return nil, fmt.Errorf("%w: no value column %q", ErrPlan, valueCol)
	}
	keyIdx, fields, err := keyColumns(sch, keys)
	if err != nil {
		return nil, err
	}

	// Discover pivot values.
	pivotPos := map[string]int{}
	pcol := f.Col(pIdx)
	for r, s := range pcol.Strs() {
		if !pcol.IsNull(r) {
			pivotPos[s] = 0
		}
	}
	pivots := make([]string, 0, len(pivotPos))
	for v := range pivotPos {
		pivots = append(pivots, v)
	}
	sort.Strings(pivots)
	kinds, isNum := make([]AggKind, len(pivots)), make([]bool, len(pivots))
	for i, v := range pivots {
		pivotPos[v], kinds[i], isNum[i] = i, agg, numeric(sch.Field(vIdx).Kind)
		fields = append(fields, schema.Field{Name: v, Kind: Agg{Kind: agg}.outKind()})
	}

	// A group's cells are indexed by pivot position.
	t := newGroupTable(keyIdx, len(pivots))
	for r := 0; r < f.Len(); r++ {
		row := f.Row(r)
		g := t.at(row)
		if pv := row[pIdx]; !pv.IsNull() {
			add(&g.cells[pivotPos[pv.StrVal()]], agg, r, row[vIdx])
		}
	}
	out := schema.NewFrame(schema.New(fields...))
	return out, emitGroups(out, t.sorted(), kinds, isNum)
}

// JoinType selects join semantics.
type JoinType int

// Supported join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
)

// Join hash-joins left and right on equality of the given column lists
// (the Silver-stage contextualization join against job logs). Right-side
// join columns are dropped from the output; other right columns are
// appended, renamed with the given prefix when they collide.
func Join(left, right *schema.Frame, leftOn, rightOn []string, how JoinType, rightPrefix string) (*schema.Frame, error) {
	if len(leftOn) == 0 || len(leftOn) != len(rightOn) {
		return nil, fmt.Errorf("%w: join needs matching key lists", ErrPlan)
	}
	ls, rs := left.Schema(), right.Schema()
	lIdx := make([]int, len(leftOn))
	for i, k := range leftOn {
		j, ok := ls.Index(k)
		if !ok {
			return nil, fmt.Errorf("%w: left has no column %q", ErrPlan, k)
		}
		lIdx[i] = j
	}
	rIdx := make([]int, len(rightOn))
	rKeySet := map[int]bool{}
	for i, k := range rightOn {
		j, ok := rs.Index(k)
		if !ok {
			return nil, fmt.Errorf("%w: right has no column %q", ErrPlan, k)
		}
		rIdx[i] = j
		rKeySet[j] = true
	}

	// Output schema: all left columns + right non-key columns.
	fields := ls.Fields()
	var rCols []int
	for c := 0; c < rs.Len(); c++ {
		if rKeySet[c] {
			continue
		}
		name := rs.Field(c).Name
		if ls.Has(name) {
			name = rightPrefix + name
		}
		if ls.Has(name) || name == "" {
			return nil, fmt.Errorf("%w: join output column %q collides", ErrPlan, name)
		}
		fields = append(fields, schema.Field{Name: name, Kind: rs.Field(c).Kind})
		rCols = append(rCols, c)
	}
	outSchema := schema.New(fields...)

	// Build hash table on right.
	table := make(map[string][]schema.Row, right.Len())
	var kb []byte
	for r := 0; r < right.Len(); r++ {
		row := right.Row(r)
		kb = appendKey(kb[:0], row, rIdx)
		table[string(kb)] = append(table[string(kb)], row)
	}

	out := schema.NewFrame(outSchema)
	for l := 0; l < left.Len(); l++ {
		lrow := left.Row(l)
		kb = appendKey(kb[:0], lrow, lIdx)
		matches := table[string(kb)]
		if len(matches) == 0 {
			if how == LeftJoin {
				row := append(schema.Row(nil), lrow...)
				for range rCols {
					row = append(row, schema.Null)
				}
				if err := out.AppendRow(row); err != nil {
					return nil, err
				}
			}
			continue
		}
		for _, rrow := range matches {
			row := append(schema.Row(nil), lrow...)
			for _, rc := range rCols {
				row = append(row, rrow[rc])
			}
			if err := out.AppendRow(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// WithColumn appends a computed column.
func WithColumn(f *schema.Frame, name string, kind schema.Kind, fn func(schema.Row) schema.Value) (*schema.Frame, error) {
	ns, err := f.Schema().Extend(schema.Field{Name: name, Kind: kind})
	if err != nil {
		return nil, err
	}
	out := schema.NewFrame(ns)
	for r := 0; r < f.Len(); r++ {
		row := f.Row(r)
		if err := out.AppendRow(append(row, fn(row))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

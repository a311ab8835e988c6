package sproc

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"odakit/internal/schema"
)

// A small SQL dialect over frames — the paper's §V lesson that "SQL
// interfaces ... made a huge difference" for staff adoption. Supported:
//
//	SELECT <col | agg(col) [AS name]>[, ...]
//	  FROM t
//	  [WHERE col <op> literal [AND ...]]
//	  [GROUP BY col[, ...]]
//	  [ORDER BY col [DESC][, ...]]
//	  [LIMIT n]
//
// ops: = != < <= > >=; literals: numbers, 'strings', true/false, and
// 'RFC3339' timestamps; aggs: avg sum min max count first last. The FROM
// clause names the frame purely for readability — Query runs against the
// frame it is given. Conditions combine with AND only.

type token struct {
	kind tokKind
	text string
}

type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokString
	tokSymbol // ( ) , = != < <= > >= *
	tokEOF
)

func lexSQL(s string) ([]token, error) {
	var out []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			for j < len(s) && s[j] != '\'' {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("sproc: sql: unterminated string at %d", i)
			}
			out = append(out, token{tokString, s[i+1 : j]})
			i = j + 1
		case c == '(' || c == ')' || c == ',' || c == '=' || c == '*':
			out = append(out, token{tokSymbol, string(c)})
			i++
		case c == '!' || c == '<' || c == '>':
			if i+1 < len(s) && s[i+1] == '=' {
				out = append(out, token{tokSymbol, s[i : i+2]})
				i += 2
			} else if c == '!' {
				return nil, fmt.Errorf("sproc: sql: stray '!' at %d", i)
			} else {
				out = append(out, token{tokSymbol, string(c)})
				i++
			}
		case c >= '0' && c <= '9' || c == '-' || c == '.':
			j := i + 1
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.' || s[j] == 'e' || s[j] == 'E' || s[j] == '-' || s[j] == '+') {
				// stop '-' at binary minus is not supported; literals only
				j++
			}
			out = append(out, token{tokNumber, s[i:j]})
			i = j
		case isIdentChar(c):
			j := i + 1
			for j < len(s) && isIdentChar(s[j]) {
				j++
			}
			out = append(out, token{tokIdent, s[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("sproc: sql: unexpected character %q at %d", c, i)
		}
	}
	return append(out, token{kind: tokEOF}), nil
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.'
}

type sqlParser struct {
	toks []token
	pos  int
}

func (p *sqlParser) peek() token { return p.toks[p.pos] }

func (p *sqlParser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *sqlParser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("%w: expected %s near %q", ErrPlan, strings.ToUpper(kw), p.peek().text)
	}
	return nil
}

func (p *sqlParser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.pos++
		return true
	}
	return false
}

// selectItem is one SELECT-list entry.
type selectItem struct {
	col   string
	agg   AggKind
	isAgg bool
	as    string
	star  bool // count(*)
}

type whereCond struct {
	col string
	op  string
	lit string
	str bool // literal was quoted
}

type selectStmt struct {
	items   []selectItem
	wheres  []whereCond
	groupBy []string
	orderBy []schema.SortKey
	limit   int // -1 = none
}

var aggNames = map[string]AggKind{
	"avg": AggAvg, "sum": AggSum, "min": AggMin, "max": AggMax,
	"count": AggCount, "first": AggFirst, "last": AggLast,
}

func parseSelect(sql string) (*selectStmt, error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	st := &selectStmt{limit: -1}
	for {
		it, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.items = append(st.items, it)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if t := p.next(); t.kind != tokIdent {
		return nil, fmt.Errorf("%w: expected table name, got %q", ErrPlan, t.text)
	}
	if p.acceptKeyword("where") {
		for {
			c, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			st.wheres = append(st.wheres, c)
			if !p.acceptKeyword("and") {
				break
			}
		}
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("%w: expected group-by column, got %q", ErrPlan, t.text)
			}
			st.groupBy = append(st.groupBy, t.text)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("%w: expected order-by column, got %q", ErrPlan, t.text)
			}
			key := schema.SortKey{Col: t.text, Desc: p.acceptKeyword("desc")}
			if !key.Desc {
				p.acceptKeyword("asc")
			}
			st.orderBy = append(st.orderBy, key)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("limit") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("%w: expected limit count, got %q", ErrPlan, t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: bad limit %q", ErrPlan, t.text)
		}
		st.limit = n
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("%w: trailing input near %q", ErrPlan, t.text)
	}
	return st, nil
}

func (p *sqlParser) parseSelectItem() (selectItem, error) {
	t := p.next()
	if t.kind != tokIdent {
		return selectItem{}, fmt.Errorf("%w: expected column or aggregate, got %q", ErrPlan, t.text)
	}
	var it selectItem
	if kind, ok := aggNames[strings.ToLower(t.text)]; ok && p.acceptSymbol("(") {
		it.isAgg = true
		it.agg = kind
		if p.acceptSymbol("*") {
			if kind != AggCount {
				return selectItem{}, fmt.Errorf("%w: only count(*) may use *", ErrPlan)
			}
			it.star = true
		} else {
			c := p.next()
			if c.kind != tokIdent {
				return selectItem{}, fmt.Errorf("%w: expected column inside %s(), got %q", ErrPlan, t.text, c.text)
			}
			it.col = c.text
		}
		if !p.acceptSymbol(")") {
			return selectItem{}, fmt.Errorf("%w: missing ) after %s(", ErrPlan, t.text)
		}
	} else {
		it.col = t.text
	}
	if p.acceptKeyword("as") {
		a := p.next()
		if a.kind != tokIdent {
			return selectItem{}, fmt.Errorf("%w: expected alias after AS, got %q", ErrPlan, a.text)
		}
		it.as = a.text
	}
	return it, nil
}

func (p *sqlParser) parseCond() (whereCond, error) {
	t := p.next()
	if t.kind != tokIdent {
		return whereCond{}, fmt.Errorf("%w: expected column in WHERE, got %q", ErrPlan, t.text)
	}
	op := p.next()
	if op.kind != tokSymbol || !validOp(op.text) {
		return whereCond{}, fmt.Errorf("%w: expected comparison operator, got %q", ErrPlan, op.text)
	}
	lit := p.next()
	switch lit.kind {
	case tokNumber:
		return whereCond{col: t.text, op: op.text, lit: lit.text}, nil
	case tokString:
		return whereCond{col: t.text, op: op.text, lit: lit.text, str: true}, nil
	case tokIdent:
		low := strings.ToLower(lit.text)
		if low == "true" || low == "false" {
			return whereCond{col: t.text, op: op.text, lit: low}, nil
		}
	}
	return whereCond{}, fmt.Errorf("%w: expected literal after %q, got %q", ErrPlan, op.text, lit.text)
}

func validOp(op string) bool {
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// literalValue coerces a WHERE literal to the column's kind.
func literalValue(kind schema.Kind, c whereCond) (schema.Value, error) {
	if c.str {
		switch kind {
		case schema.KindString:
			return schema.Str(c.lit), nil
		case schema.KindTime:
			t, err := time.Parse(time.RFC3339Nano, c.lit)
			if err != nil {
				t, err = time.Parse(time.RFC3339, c.lit)
			}
			if err != nil {
				return schema.Null, fmt.Errorf("%w: bad timestamp literal %q", ErrPlan, c.lit)
			}
			return schema.Time(t), nil
		default:
			return schema.Null, fmt.Errorf("%w: string literal for %v column %q", ErrPlan, kind, c.col)
		}
	}
	switch kind {
	case schema.KindInt:
		n, err := strconv.ParseInt(c.lit, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(c.lit, 64)
			if ferr != nil {
				return schema.Null, fmt.Errorf("%w: bad int literal %q", ErrPlan, c.lit)
			}
			n = int64(f)
		}
		return schema.Int(n), nil
	case schema.KindFloat:
		f, err := strconv.ParseFloat(c.lit, 64)
		if err != nil {
			return schema.Null, fmt.Errorf("%w: bad float literal %q", ErrPlan, c.lit)
		}
		return schema.Float(f), nil
	case schema.KindBool:
		return schema.Bool(c.lit == "true"), nil
	default:
		return schema.Null, fmt.Errorf("%w: literal %q for %v column %q", ErrPlan, c.lit, kind, c.col)
	}
}

// Query runs a SELECT statement against a frame.
func Query(f *schema.Frame, sql string) (*schema.Frame, error) {
	st, err := parseSelect(sql)
	if err != nil {
		return nil, err
	}
	sch := f.Schema()

	// WHERE.
	cur := f
	if len(st.wheres) > 0 {
		type boundCond struct {
			idx int
			op  string
			val schema.Value
		}
		bound := make([]boundCond, 0, len(st.wheres))
		for _, c := range st.wheres {
			i, ok := sch.Index(c.col)
			if !ok {
				return nil, fmt.Errorf("%w: WHERE references unknown column %q", ErrPlan, c.col)
			}
			v, err := literalValue(sch.Field(i).Kind, c)
			if err != nil {
				return nil, err
			}
			bound = append(bound, boundCond{idx: i, op: c.op, val: v})
		}
		cur = cur.Filter(func(r schema.Row) bool {
			for _, bc := range bound {
				cell := r[bc.idx]
				if cell.IsNull() {
					return false
				}
				cmp := cell.Compare(bc.val)
				ok := false
				switch bc.op {
				case "=":
					ok = cmp == 0
				case "!=":
					ok = cmp != 0
				case "<":
					ok = cmp < 0
				case "<=":
					ok = cmp <= 0
				case ">":
					ok = cmp > 0
				case ">=":
					ok = cmp >= 0
				}
				if !ok {
					return false
				}
			}
			return true
		})
	}

	// Aggregation vs projection.
	hasAgg := false
	for _, it := range st.items {
		if it.isAgg {
			hasAgg = true
		}
	}
	if hasAgg {
		var aggs []Agg
		for _, it := range st.items {
			if !it.isAgg {
				// Bare columns in an aggregate query must be group keys.
				found := false
				for _, g := range st.groupBy {
					if g == it.col {
						found = true
					}
				}
				if !found {
					return nil, fmt.Errorf("%w: column %q must appear in GROUP BY", ErrPlan, it.col)
				}
				continue
			}
			col := it.col
			if it.star {
				// count(*): count over the first column (nulls included is
				// not distinguished; frames are rectangular).
				col = sch.Field(0).Name
			}
			name := it.as
			if name == "" {
				if it.star {
					name = "count"
				} else {
					name = it.agg.String() + "_" + it.col
				}
			}
			aggs = append(aggs, Agg{Col: col, Kind: it.agg, As: name})
		}
		out, err := GroupBy(cur, st.groupBy, aggs)
		if err != nil {
			return nil, err
		}
		cur = out
	} else {
		if len(st.groupBy) > 0 {
			return nil, fmt.Errorf("%w: GROUP BY without aggregates", ErrPlan)
		}
		names := make([]string, 0, len(st.items))
		renames := map[string]string{}
		for _, it := range st.items {
			names = append(names, it.col)
			if it.as != "" {
				renames[it.col] = it.as
			}
		}
		out, err := cur.Select(names...)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrPlan, err)
		}
		if len(renames) > 0 {
			// A rename is a new schema over the same columns.
			fields := out.Schema().Fields()
			cols := make([]*schema.Column, len(fields))
			for i := range fields {
				if as, ok := renames[fields[i].Name]; ok {
					fields[i].Name = as
				}
				cols[i] = out.Col(i)
			}
			if out, err = schema.FrameOfColumns(schema.New(fields...), cols); err != nil {
				return nil, err
			}
		}
		cur = out
	}

	// ORDER BY is the frame sort, a stable one over the key columns.
	if len(st.orderBy) > 0 {
		sorted, err := cur.SortBy(st.orderBy...)
		if err != nil {
			return nil, fmt.Errorf("%w: ORDER BY: %v", ErrPlan, err)
		}
		cur = sorted
	}

	// LIMIT.
	if st.limit >= 0 && cur.Len() > st.limit {
		limited := schema.NewFrame(cur.Schema())
		if err := limited.AppendRange(cur, 0, st.limit); err != nil {
			return nil, err
		}
		cur = limited
	}
	return cur, nil
}

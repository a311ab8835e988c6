package tsdb

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"odakit/internal/columnar"
	"odakit/internal/objstore"
	"odakit/internal/schema"
	"odakit/internal/telemetry"
)

// coldRef and sortedRefs are the comparison sort scanSegment used before
// coldOrder: the reference every new path is held to. A null coordinate
// reads as zero, as Column.Ints exposes it.
type coldRef struct {
	stripe, seq int64
	row         int
}

func sortedRefs(stripe, seq []int64, rows []int32) []coldRef {
	refs := make([]coldRef, len(rows))
	for i, r := range rows {
		refs[i] = coldRef{stripe: stripe[r], seq: seq[r], row: int(r)}
	}
	slices.SortFunc(refs, func(a, b coldRef) int {
		if a.stripe != b.stripe {
			return cmp.Compare(a.stripe, b.stripe)
		}
		if a.seq != b.seq {
			return cmp.Compare(a.seq, b.seq)
		}
		return cmp.Compare(a.row, b.row)
	})
	return refs
}

// TestColdOrderMatchesSortReference: for random subsets of a segment the
// restored order and the stripe runs equal the comparison-sort reference,
// and whether the O(n) scatter ran is decided by the coordinates alone.
func TestColdOrderMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	// segment builds a file-ordered (shuffled) segment: stripes tables of
	// perStripe cells each, seq the insertion index.
	segment := func(stripes, perStripe int) (stripe, seq []int64) {
		for s := 0; s < stripes; s++ {
			for q := 0; q < perStripe; q++ {
				stripe, seq = append(stripe, int64(s)), append(seq, int64(q))
			}
		}
		rng.Shuffle(len(stripe), func(i, j int) {
			stripe[i], stripe[j] = stripe[j], stripe[i]
			seq[i], seq[j] = seq[j], seq[i]
		})
		return stripe, seq
	}
	subset := func(n int, keep float64) (rows []int32) {
		for r := 0; r < n; r++ {
			if rng.Float64() < keep {
				rows = append(rows, int32(r))
			}
		}
		return rows
	}
	type input struct {
		name        string
		stripe, seq []int64
		rows        []int32
		scatter     bool
	}
	var inputs []input
	for round := 0; round < 20; round++ {
		stripe, seq := segment(shardCount, 1+rng.Intn(300))
		inputs = append(inputs,
			input{"dense", stripe, seq, subset(len(stripe), 2), true},
			input{"gappy", stripe, seq, subset(len(stripe), rng.Float64()), true},
			input{"sparse", stripe, seq, subset(len(stripe), 0.02), true},
			input{"empty", stripe, seq, nil, true})
		one, oneSeq := segment(1, 1+rng.Intn(2000))
		for i := range one {
			one[i] = int64(round % shardCount)
		}
		inputs = append(inputs, input{"single-stripe", one, oneSeq, subset(len(one), rng.Float64()), true})

		// Coordinates Offload never writes: the comparison sort must take over.
		dup, dupSeq := segment(4, 50)
		i, j := rng.Intn(len(dup)), rng.Intn(len(dup)-1)
		if j >= i {
			j++
		}
		dup[j], dupSeq[j] = dup[i], dupSeq[i]
		inputs = append(inputs, input{"duplicate", dup, dupSeq, subset(len(dup), 2), false})
		neg, negSeq := segment(4, 50)
		negSeq[rng.Intn(len(negSeq))] = -1 - rng.Int63n(1<<40)
		inputs = append(inputs, input{"negative", neg, negSeq, subset(len(neg), 2), false})
		wide, wideSeq := segment(4, 50)
		wideSeq[rng.Intn(len(wideSeq))] = []int64{1 << 40, math.MaxInt64, 2*int64(len(wide)) + scatterSlack}[round%3]
		inputs = append(inputs, input{"wide", wide, wideSeq, subset(len(wide), 2), false})
	}
	var o coldOrder // reused across inputs, as the pooled partialSet reuses it
	for _, in := range inputs {
		want := sortedRefs(in.stripe, in.seq, in.rows)
		o.rows = append(o.rows[:0], in.rows...)
		if got := o.scatter(in.stripe, in.seq); got != in.scatter {
			t.Fatalf("%s (%d rows): scatter ran = %v, want %v", in.name, len(in.rows), got, in.scatter)
		}
		o.rows = append(o.rows[:0], in.rows...)
		o.restore(in.stripe, in.seq)
		if len(o.rows) != len(want) {
			t.Fatalf("%s: %d rows out, %d in", in.name, len(o.rows), len(want))
		}
		for i, r := range o.rows {
			if int(r) != want[i].row {
				t.Fatalf("%s (%d rows): position %d holds row %d, reference %d", in.name, len(in.rows), i, r, want[i].row)
			}
		}
		if o.off[0] != 0 || o.off[shardCount] != len(want) {
			t.Fatalf("%s: runs span [%d, %d), want [0, %d)", in.name, o.off[0], o.off[shardCount], len(want))
		}
		for s := 0; s < shardCount; s++ {
			for _, r := range o.rows[o.off[s]:o.off[s+1]] {
				if in.stripe[r] != int64(s) {
					t.Fatalf("%s: row %d of stripe %d in stripe %d's run", in.name, r, in.stripe[r], s)
				}
			}
		}
	}
}

// randomColumns fills every column of n cells; NaN-free so bit equality
// is meaningful, magnitudes mixed so float sums depend on their order.
// Each run of 1000 rows codes its dimensions through a dictionary of its
// own, as a scan's row groups do, so equal values also come under
// different codes.
func randomColumns(rng *rand.Rand, n int) Columns {
	c := Columns{
		Bucket: make([]int64, n), Count: make([]int64, n), LastTs: make([]int64, n),
		Sum: make([]float64, n), Min: make([]float64, n), Max: make([]float64, n), Last: make([]float64, n),
	}
	for d := range c.Dims {
		c.Dims[d], c.Codes[d] = make([]string, n), make([]uint32, n)
	}
	for r := 0; r < n; r++ {
		c.Bucket[r] = base.UnixNano() + int64(rng.Intn(240))*int64(15*time.Second)
		for d := range c.Dims {
			k := rng.Intn(3)
			c.Dims[d][r], c.Codes[d][r] = fmt.Sprintf("%s-%d", dimNames[d], k), uint32(3*(r/1000)+k)
		}
		c.Count[r] = int64(rng.Intn(4)) // 0 = an empty cell Merge must skip
		c.Sum[r] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)))
		c.Min[r], c.Max[r], c.Last[r] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		c.LastTs[r] = c.Bucket[r] + int64(rng.Intn(15))*int64(time.Second)
	}
	return c
}

// project drops the columns coldPlan would not request for q.
func project(c Columns, q Query) Columns {
	grouped := map[string]bool{}
	for _, d := range q.GroupBy {
		grouped[d] = true
	}
	for d := range c.Dims {
		if !grouped[dimNames[d]] {
			c.Dims[d], c.Codes[d] = nil, nil
		}
	}
	sum, min, max, last := c.Sum, c.Min, c.Max, c.Last
	c.Sum, c.Min, c.Max, c.Last = nil, nil, nil, nil
	switch q.Agg {
	case AggAvg, AggSum:
		c.Sum = sum
	case AggMin:
		c.Min = min
	case AggMax:
		c.Max = max
	case AggLast:
		c.Last = last
	}
	if q.Agg != AggLast {
		c.LastTs = nil
	}
	return c
}

// foldRow folds one cell of series s into t as a page of its own, the way
// the cold tier fed Fold before FoldColumns existed: the reference a
// column-fed fold is held to.
func foldRow(t *GroupTable, p *Plan, s Series, ts int64, c Cell) int64 {
	return t.fold(p, &grid{origin: ts, width: 1, span: 1}, []Series{s}, []uint32{0}, []Key{{}}, []Cell{c}, true)
}

// rowSeries is row r's series; a dimension cols lacks reads "".
func rowSeries(cols *Columns, r int32) (s Series) {
	dims := [4]*string{&s.System, &s.Source, &s.Component, &s.Metric}
	for d, v := range cols.Dims {
		if v != nil {
			*dims[d] = v[r]
		}
	}
	return s
}

// sameGroups compares two tables' full aggregation state bit for bit.
func sameGroups(a, b *GroupTable) error {
	ga, gb := a.Sorted(), b.Sorted()
	if len(ga) != len(gb) {
		return fmt.Errorf("%d groups vs %d", len(ga), len(gb))
	}
	bits := math.Float64bits
	for i := range ga {
		x, y := ga[i], gb[i]
		if x.Key != y.Key || x.Cell.Count != y.Cell.Count || x.Cell.LastTs != y.Cell.LastTs ||
			bits(x.Cell.Sum) != bits(y.Cell.Sum) || bits(x.Cell.Min) != bits(y.Cell.Min) ||
			bits(x.Cell.Max) != bits(y.Cell.Max) || bits(x.Cell.Last) != bits(y.Cell.Last) {
			return fmt.Errorf("group %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

var allAggs = []AggKind{AggAvg, AggSum, AggMin, AggMax, AggCount, AggLast}

// TestFoldColumnsMatchesFold: the column-fed entry over an order vector
// and Fold over one row at a time leave identical tables, for every
// aggregation, grouping width and the collapsed bucket, with the columns
// its projection omits nil.
func TestFoldColumnsMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	full := randomColumns(rng, 3000)
	order := make([]int32, 0, 2000)
	for _, r := range rng.Perm(3000)[:2000] {
		order = append(order, int32(r))
	}
	shapes := []Query{
		{GroupBy: []string{DimMetric}, Granularity: 15 * time.Minute},
		{GroupBy: []string{DimComponent, DimSystem}, Granularity: 0},
		{Granularity: time.Minute},
		{GroupBy: []string{DimSource, DimMetric, DimComponent, DimSystem}, Granularity: 45 * time.Second},
	}
	for _, agg := range allAggs {
		for si, q := range shapes {
			q.From, q.To, q.Agg = base, base.Add(time.Hour), agg
			p := Compile(q)
			cols := project(full, q)
			var byCols, byRow GroupTable
			var rt rowTuples
			rt.number(&p, &cols, order)
			byCols.FoldColumns(&p, &cols, &rt, order)
			for _, r := range order {
				if foldRow(&byRow, &p, rowSeries(&cols, r), cols.Bucket[r], cols.cell(r)) != 1 {
					t.Fatalf("agg %d shape %d: Fold did not match row %d", agg, si, r)
				}
			}
			if err := sameGroups(&byCols, &byRow); err != nil {
				t.Fatalf("agg %d shape %d: FoldColumns vs Fold: %v", agg, si, err)
			}
			// The projection must not matter to what the query reads.
			var unprojected GroupTable
			rt.number(&p, &full, order)
			unprojected.FoldColumns(&p, &full, &rt, order)
			fa, err := p.Frame(&byCols)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := p.Frame(&unprojected)
			if err != nil {
				t.Fatal(err)
			}
			if !fa.Equal(fb) {
				t.Fatalf("agg %d shape %d: projected and full columns answer differently", agg, si)
			}
		}
	}
}

// coldRow is one row of a hand-written cold object; seqNull writes a null
// seq instead.
type coldRow struct {
	stripe, seq int64
	seqNull     bool
	ts          int64
	series      Series
	cell        Cell
}

// forgedTier writes rows as one OCF object over ColdSchema, registers it
// in a manifest with honest zone maps and blooms, and attaches a fresh,
// uncached DB to it — what a query sees of an object Offload did not write.
func forgedTier(t *testing.T, rows []coldRow) *DB {
	t.Helper()
	f := schema.NewFrame(ColdSchema)
	meta := coldSegmentMeta{Chunk: base.UnixNano(), Key: "lake/segments/forged.ocf", Cells: int64(len(rows))}
	var blooms [4]*columnar.Bloom
	for d := range blooms {
		blooms[d] = columnar.NewBloom(len(rows))
	}
	for i, r := range rows {
		seq := schema.Int(r.seq)
		if r.seqNull {
			seq = schema.Null
		}
		if err := f.AppendRow(schema.Row{
			schema.Int(r.stripe), seq, schema.TimeNanos(r.ts),
			schema.Str(r.series.System), schema.Str(r.series.Source), schema.Str(r.series.Component), schema.Str(r.series.Metric),
			schema.Int(r.cell.Count), schema.Float(r.cell.Sum), schema.Float(r.cell.Min),
			schema.Float(r.cell.Max), schema.Float(r.cell.Last), schema.TimeNanos(r.cell.LastTs),
		}); err != nil {
			t.Fatal(err)
		}
		if i == 0 || r.ts < meta.MinTs {
			meta.MinTs = r.ts
		}
		if i == 0 || r.ts > meta.MaxTs {
			meta.MaxTs = r.ts
		}
		for d := range blooms {
			v := r.series.at(d)
			blooms[d].Insert(columnar.BloomHash(v))
			if i == 0 || v < meta.Dims[d].Min {
				meta.Dims[d].Min = v
			}
			if i == 0 || v > meta.Dims[d].Max {
				meta.Dims[d].Max = v
			}
		}
	}
	for d := range blooms {
		meta.Dims[d].Bloom = columnar.EncodeBloom(blooms[d])
	}
	data, err := columnar.Encode(f, columnar.WriterOptions{RowGroupRows: 64, BloomColumns: dimNames})
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := json.Marshal(coldManifest{Generation: 1, Segments: []coldSegmentMeta{meta}})
	if err != nil {
		t.Fatal(err)
	}
	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.EnsureBucket("lake"); err != nil {
		t.Fatal(err)
	}
	for key, body := range map[string][]byte{meta.Key: data, "lake/manifest": manifest} {
		if _, err := store.Put("lake", key, body); err != nil {
			t.Fatal(err)
		}
	}
	opts := tierOptions()
	opts.QueryCacheSize = -1
	db := New(opts)
	attachTier(t, db, store, ColdTierConfig{Prefix: "lake/"})
	return db
}

// referenceAnswer is the parent's cold fold over rows, end to end: admit
// by time range and filters, comparison-sort by (stripe, seq, row), stage,
// Fold each stripe's run, merge in stripe order, emit. inFileOrder skips
// the sort — the answer a fold that forgot to restore order would give.
func referenceAnswer(t *testing.T, rows []coldRow, q Query, inFileOrder bool) *schema.Frame {
	t.Helper()
	p := Compile(q)
	stripe, seq := make([]int64, len(rows)), make([]int64, len(rows))
	var admitted []int32
	for i := range rows {
		stripe[i] = rows[i].stripe
		if !rows[i].seqNull {
			seq[i] = rows[i].seq
		}
		if r := &rows[i]; r.ts >= p.fromN && r.ts < p.toN && p.Match(&r.series) {
			admitted = append(admitted, int32(i))
		}
	}
	refs := sortedRefs(stripe, seq, admitted)
	if inFileOrder {
		slices.SortFunc(refs, func(a, b coldRef) int {
			if a.stripe != b.stripe {
				return cmp.Compare(a.stripe, b.stripe)
			}
			return cmp.Compare(a.row, b.row)
		})
	}
	var tables [shardCount]GroupTable
	plain := p.Admitted()
	for _, ref := range refs {
		r := &rows[ref.row]
		foldRow(&tables[ref.stripe], &plain, r.series, r.ts, r.cell)
	}
	for s := 1; s < shardCount; s++ {
		tables[0].Merge(&tables[s])
	}
	out, err := p.Frame(&tables[0])
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// forgedRows is a 4-stripe, 320-cell segment in Offload's file order
// (clustered by dimensions, so file order is far from fold order), with
// sums whose float accumulation depends on the order they are added in.
func forgedRows(rng *rand.Rand) []coldRow {
	var rows []coldRow
	next := map[int64]int64{}
	for b := 0; b < 20; b++ {
		for n := 0; n < 8; n++ {
			for m := 0; m < 2; m++ {
				ts := base.Add(time.Duration(b) * 15 * time.Second).UnixNano()
				v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(14)))
				stripe := int64((n*2 + m) % 4)
				rows = append(rows, coldRow{
					stripe: stripe, seq: next[stripe],
					ts:     ts,
					series: Series{System: "compass", Source: "power_temp", Component: fmt.Sprintf("node%05d", n), Metric: []string{"node_power_w", "cpu_temp_c"}[m]},
					cell:   Cell{Count: 1 + int64(rng.Intn(3)), Sum: v, Min: v, Max: v, Last: v, LastTs: ts + int64(rng.Intn(15))*int64(time.Second)},
				})
				next[stripe]++
			}
		}
	}
	slices.SortStableFunc(rows, func(a, b coldRow) int {
		if c := strings.Compare(a.series.Metric, b.series.Metric); c != 0 {
			return c
		}
		return strings.Compare(a.series.Component, b.series.Component)
	})
	return rows
}

// forgedTargets returns a row every forgedQueries entry admits, and one
// other row.
func forgedTargets(rows []coldRow) (hit, other int) {
	ts := base.Add(90 * time.Second).UnixNano()
	for i := range rows {
		if r := &rows[i]; r.ts == ts && r.series.Metric == "node_power_w" && r.series.Component == "node00002" {
			return i, len(rows) - 1
		}
	}
	panic("forgedRows lost its probe row")
}

var forgedQueries = []Query{
	{From: base, To: base.Add(time.Hour), GroupBy: []string{DimMetric}, Granularity: time.Minute, Agg: AggSum},
	{From: base, To: base.Add(time.Hour), Agg: AggAvg},
	{From: base.Add(time.Minute), To: base.Add(3 * time.Minute), GroupBy: []string{DimComponent}, Agg: AggSum,
		Filters: map[string][]string{DimMetric: {"node_power_w"}}},
	{From: base, To: base.Add(time.Hour), GroupBy: []string{DimMetric}, Agg: AggLast,
		Filters: map[string][]string{DimComponent: {"node00002", "node00005"}}},
	{From: base, To: base.Add(time.Hour), GroupBy: []string{DimComponent}, Granularity: 2 * time.Minute, Agg: AggMin},
}

// TestForgedColdObjects feeds the cold fold coordinates Offload never
// writes. Each case either fails with the error it always failed with or
// answers exactly as the comparison-sort fold does; none may panic or let
// a coordinate size an allocation.
func TestForgedColdObjects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		forge   func(rows []coldRow, hit, other int)
		wantErr string
	}{
		{name: "as-offloaded", forge: func([]coldRow, int, int) {}},
		{name: "stripe-negative", forge: func(rows []coldRow, hit, _ int) { rows[hit].stripe = -1 }, wantErr: "stripe -1 out of range"},
		{name: "stripe-16", forge: func(rows []coldRow, hit, _ int) { rows[hit].stripe = shardCount }, wantErr: "stripe 16 out of range"},
		{name: "seq-negative", forge: func(rows []coldRow, hit, other int) { rows[hit].seq, rows[other].seq = -3, math.MinInt64 }},
		{name: "seq-huge", forge: func(rows []coldRow, hit, other int) { rows[hit].seq, rows[other].seq = 1<<40, math.MaxInt64 }},
		{name: "seq-duplicated", forge: func(rows []coldRow, _, _ int) {
			for i := range rows {
				rows[i].seq /= 3 // every (stripe, seq) pair three times over
			}
		}},
		{name: "seq-all-null", forge: func(rows []coldRow, _, _ int) {
			for i := range rows {
				rows[i].seqNull = true
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := forgedRows(rand.New(rand.NewSource(9)))
			hit, other := forgedTargets(rows)
			tc.forge(rows, hit, other)
			db := forgedTier(t, rows)
			orderMatters := false
			for _, pruning := range []bool{true, false} {
				db.ColdTier().SetPruning(pruning)
				for qi, q := range forgedQueries {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					got, st, err := db.RunWithStats(q)
					runtime.ReadMemStats(&after)
					if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
						t.Fatalf("pruning=%v query %d allocated %d bytes over a 320-row object", pruning, qi, grew)
					}
					if tc.wantErr != "" {
						if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
							t.Fatalf("pruning=%v query %d: error %v, want %q", pruning, qi, err, tc.wantErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("pruning=%v query %d: %v", pruning, qi, err)
					}
					want := referenceAnswer(t, rows, q, false)
					if !got.Equal(want) {
						t.Fatalf("pruning=%v query %d: answer diverges from the comparison-sort fold (%d vs %d rows)",
							pruning, qi, got.Len(), want.Len())
					}
					if st.ColdCells == 0 {
						t.Fatalf("pruning=%v query %d folded no cold cells", pruning, qi)
					}
					if !want.Equal(referenceAnswer(t, rows, q, true)) {
						orderMatters = true
					}
				}
			}
			if tc.wantErr == "" && tc.name != "seq-all-null" && !orderMatters {
				t.Fatal("no probe query's answer depends on the fold order: the case cannot detect a misordered fold")
			}
		})
	}
}

// groupedFixture is the harness's history_scan shape in-process: hours
// one-hour chunks of 8 nodes x 10 metrics at the 15 s rollup (19 200
// cells a segment), all but the newest offloaded at the tier's default
// row-group size, result cache off; and its grouped query, an unfiltered
// group-by-metric at 15 minutes over everything.
func groupedFixture(tb testing.TB, hours int) (*DB, Query) {
	return groupedFixtureRows(tb, hours, 0)
}

// groupedFixtureRows is groupedFixture offloaded at rowGroupRows rows a
// row group (0 for the default).
func groupedFixtureRows(tb testing.TB, hours, rowGroupRows int) (*DB, Query) {
	tb.Helper()
	db := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second, QueryCacheSize: -1})
	batch := make([]schema.Observation, 0, 80)
	for s := 0; s < hours*3600; s += 15 {
		batch = batch[:0]
		for n := 0; n < 8; n++ {
			for m := 0; m < 10; m++ {
				batch = append(batch, schema.Observation{
					Ts: base.Add(time.Duration(s) * time.Second), System: "compass", Source: "power_temp",
					Component: fmt.Sprintf("node%05d", n), Metric: fmt.Sprintf("metric_%02d", m),
					Value: 100*float64(m) + float64((s/15+n)%97)/7,
				})
			}
		}
		if err := db.InsertBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	attachTier(tb, db, nil, ColdTierConfig{Prefix: "lake/", RowGroupRows: rowGroupRows})
	off, err := db.Offload(base.Add(time.Duration(hours-1)*time.Hour + time.Second))
	if err != nil {
		tb.Fatal(err)
	}
	if off.Segments != hours-1 || off.Cells != int64(hours-1)*19200 {
		tb.Fatalf("fixture offloaded %d segments, %d cells", off.Segments, off.Cells)
	}
	return db, Query{
		From: base, To: base.Add(time.Duration(hours) * time.Hour),
		GroupBy: []string{DimMetric}, Granularity: 15 * time.Minute, Agg: AggAvg,
	}
}

// warmQueryAllocs is the allocations of one warm run of q on db, which
// must fold want cold cells: the least of three averages, since under
// -race sync.Pool drops the pooled partialSet at random.
func warmQueryAllocs(t *testing.T, db *DB, q Query, want int64) float64 {
	t.Helper()
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		least = min(least, testing.AllocsPerRun(10, func() {
			_, st, err := db.RunWithStats(q)
			if err != nil {
				t.Fatal(err)
			}
			if st.ColdCells != want {
				t.Fatalf("folded %d cold cells, want %d", st.ColdCells, want)
			}
		}))
	}
	return least
}

// TestColdFoldAllocations guards the ways heap staging could creep back
// into the grouped cold fold. The fold stage — order the selected rows of
// one decoded 19 200-row segment, fold them from the batch's vectors —
// allocates nothing on a partialSet that has seen the segment before: a
// per-segment make([]Key, n) is one allocation too many. A warm grouped
// federated query end to end stays near what reading its two segments'
// objects costs (~180 objects measured at 1 024-row groups, the hot hour
// included; ~350 when every query re-parsed each object's index), so
// nothing per row — a boxed value, a string copy — can hide in it
// either, and neither can a re-parse of a kept segment index. And the decode itself allocates nothing per row group: the
// same query over 4 096-row groups, a quarter as many, costs within 10 %.
func TestColdFoldAllocations(t *testing.T) {
	const hours = 3
	db, q := groupedFixture(t, hours)
	ct := db.ColdTier()
	data, _, err := ct.cfg.Store.Get(ct.cfg.Bucket, ct.segs[0].meta.Key)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := columnar.NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(q)
	names, preds := coldPlan(&p, false)
	var ps partialSet
	if _, err := fr.ScanInto(&ps.cold, names, preds...); err != nil {
		t.Fatal(err)
	}
	fold := func() {
		if n, err := ps.foldCold(names, &p, false); err != nil || n != 19200 {
			t.Fatalf("folded %d cells: %v", n, err)
		}
	}
	if allocs := testing.AllocsPerRun(20, fold); allocs != 0 { // its warm-up run grows ps
		t.Errorf("folding a decoded segment allocates %.0f objects, want 0", allocs)
	}

	allocs := warmQueryAllocs(t, db, q, (hours-1)*19200)
	t.Logf("%.0f allocations per warm grouped query", allocs)
	if allocs > 250 {
		t.Errorf("%.0f allocations per warm grouped query, want <= 250", allocs)
	}
	coarse, q := groupedFixtureRows(t, hours, 4096)
	wide := warmQueryAllocs(t, coarse, q, (hours-1)*19200)
	t.Logf("%.0f allocations at 4096-row groups", wide)
	if allocs > 1.1*wide {
		t.Errorf("%.0f allocations at 1024-row groups, %.0f at 4096: the decode allocates per row group", allocs, wide)
	}
}

// TestColdFoldEmptyScanOnFreshSet: a first scan whose predicates prune
// every row group leaves a fresh partialSet's vectors unallocated, and
// folding it is zero cells, not an error.
func TestColdFoldEmptyScanOnFreshSet(t *testing.T) {
	db, q := groupedFixture(t, 2)
	ct := db.ColdTier()
	data, _, err := ct.cfg.Store.Get(ct.cfg.Bucket, ct.segs[0].meta.Key)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := columnar.NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(q)
	names, _ := coldPlan(&p, false)
	var ps partialSet
	ss, err := fr.ScanInto(&ps.cold, names, columnar.Predicate{Col: "stripe", Min: schema.Int(shardCount)})
	if err != nil || ss.GroupsScanned != 0 {
		t.Fatalf("scanned %d row groups: %v", ss.GroupsScanned, err)
	}
	if n, err := ps.foldCold(names, &p, false); err != nil || n != 0 {
		t.Fatalf("folded %d cells: %v", n, err)
	}
}

// BenchmarkColdFoldGrouped is the grouped class of history_scan without
// the harness: 9 cold segments and one hot hour per query.
func BenchmarkColdFoldGrouped(b *testing.B) {
	db, q := groupedFixture(b, 10)
	var cells int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := db.RunWithStats(q)
		if err != nil {
			b.Fatal(err)
		}
		cells += st.ColdCells
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cold-cell")
}

// BenchmarkColdFoldGroupedWarm is BenchmarkColdFoldGrouped with the
// tier's per-segment partial cache on: one query folds and freezes the 9
// cold segments, and every timed one merges their partials. ns/cold-cell
// divides by the cells that first query folded, so it reads on
// BenchmarkColdFoldGrouped's scale; B/partial is one segment's frozen
// partial as the cache's budget counts it.
func BenchmarkColdFoldGroupedWarm(b *testing.B) {
	db, q := groupedFixture(b, 10)
	setPartialBudget(db.ColdTier(), coldPartialBudget)
	_, st, err := db.RunWithStats(q)
	if err != nil {
		b.Fatal(err)
	}
	cells := st.ColdCells
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st, err = db.RunWithStats(q); err != nil || st.ColdSegmentsCached != 9 {
			b.Fatalf("%d of 9 cold segments merged from cache: %v", st.ColdSegmentsCached, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells*int64(b.N)), "ns/cold-cell")
	b.ReportMetric(float64(db.ColdStats().Partials.Bytes)/9, "B/partial")
}

// BenchmarkColdFoldFiltered is the filtered class of history_scan without
// the harness, on BenchmarkColdFoldGrouped's fixture: one metric and two
// components, grouped by component into 5-minute buckets, over 9 cold
// segments and one hot hour.
func BenchmarkColdFoldFiltered(b *testing.B) {
	db, q := groupedFixture(b, 10)
	q.Filters = map[string][]string{DimMetric: {"metric_03"}, DimComponent: {"node00002", "node00005"}}
	q.GroupBy, q.Granularity = []string{DimComponent}, 5*time.Minute
	var cells int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := db.RunWithStats(q)
		if err != nil {
			b.Fatal(err)
		}
		cells += st.ColdCells
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cold-cell")
}

// telemetryFixture is history_scan's plane without its lap: hours hours
// of power_temp generated at scale 8 as one stream, not a 5-minute pool
// replayed (whose floats repeat every 20 buckets and so deflate well),
// inserted at the facility's geometry, all but the newest hour
// offloaded at the tier's defaults. It returns the cold objects' bytes.
func telemetryFixture(tb testing.TB, hours int) (*DB, int64) {
	tb.Helper()
	db := New(Options{QueryCacheSize: -1})
	g := telemetry.NewGenerator(telemetry.FrontierLike(1).Scaled(8), nil)
	batch := make([]schema.Observation, 0, 4096)
	flush := func() error {
		err := db.InsertBatch(batch)
		batch = batch[:0]
		return err
	}
	err := g.EmitSource(telemetry.SourcePowerTemp, base, base.Add(time.Duration(hours)*time.Hour), func(o schema.Observation) error {
		if batch = append(batch, o); len(batch) == cap(batch) {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		tb.Fatal(err)
	}
	attachTier(tb, db, nil, ColdTierConfig{Prefix: "lake/"})
	off, err := db.Offload(base.Add(time.Duration(hours-1)*time.Hour + time.Second))
	if err != nil || off.Segments != hours-1 {
		tb.Fatalf("fixture offloaded %d segments: %v", off.Segments, err)
	}
	return db, off.Bytes
}

// BenchmarkColdFoldTelemetry is history_scan's grouped and filtered
// classes over 9 cold hours of unlapped power_temp and one hot hour: the
// judge of the float chunk form, which the lapped harness data does not
// reach. It reports ns/cold-cell and the bytes of one cold segment.
func BenchmarkColdFoldTelemetry(b *testing.B) {
	const hours = 10
	db, coldBytes := telemetryFixture(b, hours)
	grouped := Query{From: base, To: base.Add(hours * time.Hour), GroupBy: []string{DimMetric},
		Granularity: 15 * time.Minute, Agg: AggAvg}
	filtered := grouped
	filtered.Filters = map[string][]string{DimMetric: {"node_power_w"}, DimComponent: {"node00002", "node00005"}}
	filtered.GroupBy, filtered.Granularity = []string{DimComponent}, 5*time.Minute
	for _, tc := range []struct {
		name string
		q    Query
	}{{"grouped", grouped}, {"filtered", filtered}} {
		b.Run(tc.name, func(b *testing.B) {
			var cells int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, st, err := db.RunWithStats(tc.q)
				if err != nil {
					b.Fatal(err)
				}
				cells += st.ColdCells
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cold-cell")
			b.ReportMetric(float64(coldBytes)/(hours-1), "B/segment")
		})
	}
}

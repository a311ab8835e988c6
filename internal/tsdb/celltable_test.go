package tsdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"odakit/internal/objstore"
	"odakit/internal/schema"
)

// collidingComponents returns two component names whose series under
// metric share a SeriesHash: a birthday search over generated names,
// deterministic because the names are.
func collidingComponents(t *testing.T, metric string) (string, string) {
	t.Helper()
	seen := make(map[uint32]string, 1<<17)
	for i := 0; i < 1<<20; i++ {
		c := fmt.Sprintf("rack%07d", i)
		h := SeriesHash(c, metric)
		if prev, ok := seen[h]; ok {
			return prev, c
		}
		seen[h] = c
	}
	t.Fatal("no SeriesHash collision among 2^20 component names")
	return "", ""
}

// gridStream draws one table's worth of samples for the chunk
// [chunkN, chunkN+segN) on its grid g: most series follow a clock that
// sweeps the grid while samples arrive up to skew buckets behind it,
// every fifth series lands only in sparse buckets (multiples of 3), the
// series after each of those alternate across the start of the clock's
// bucket, one nanosecond either side, and the last few series stay
// silent until the clock is two thirds through and then start in the
// grid's last bucket and wander back, so they open runs after other
// series' later buckets and widen them at the front.
func gridStream(rng *rand.Rand, g grid, chunkN, segN int64, pool []Series) (series []int, ts []int64) {
	late := 1 + rng.Intn(3)
	skew := rng.Intn(4)
	n := 3000 + rng.Intn(3000)
	started := make([]bool, len(pool))
	for i := 0; i < n; i++ {
		clock := int(g.span) * i / n
		s := rng.Intn(len(pool))
		var b int
		switch boundary := g.origin + int64(clock)*g.width; {
		case s >= len(pool)-late:
			if clock < 2*int(g.span)/3 {
				continue
			}
			b = rng.Intn(int(g.span))
			if !started[s] {
				b, started[s] = int(g.span)-1, true
			}
		case s%5 == 0:
			b = 3 * rng.Intn((int(g.span)+2)/3)
		case s%5 == 1 && boundary > chunkN:
			series, ts = append(series, s), append(ts, boundary-1+int64(i%2))
			continue
		default:
			b = max(0, clock-rng.Intn(skew+1))
		}
		lo := max(g.origin+int64(b)*g.width, chunkN)
		hi := min(g.origin+int64(b+1)*g.width, chunkN+segN)
		series, ts = append(series, s), append(ts, lo+rng.Int63n(hi-lo))
	}
	return series, ts
}

// TestCellTableMatchesMapReference holds the grid table to a map from
// (bucket start, series) to cell over seeded streams (gridStream) on two
// geometries: an hour of 15 s buckets, and 100 s chunks, which hold no
// whole number of buckets, so most start inside a bucket that straddles
// their start. The series share SeriesHash values on purpose — they
// differ only in system or source, or are a forged FNV-1a collision on
// (component, metric). After every record Cell returned the cell the map
// put first at that key's insertion position, and a *Cell taken once
// page 0 is full keeps aliasing it; at the end At, Page and Dict list the
// map's keys, cells and series in first-insertion order. The same
// records through a DB of that geometry answer Run exactly as RunSerial
// does.
func TestCellTableMatchesMapReference(t *testing.T) {
	const rollup = int64(15 * time.Second)
	collA, collB := collidingComponents(t, "m")
	if SeriesHash(collA, "m") != SeriesHash(collB, "m") || collA == collB {
		t.Fatalf("%q and %q do not collide", collA, collB)
	}
	type refKey struct {
		ts int64
		s  Series
	}
	straddled := 0
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segN := []int64{int64(time.Hour), int64(100 * time.Second)}[seed%2]
		chunkN := base.UnixNano() + seed*segN
		ct := NewCellTable(chunkN, segN, rollup)
		g := ct.grid
		if g.origin < chunkN {
			straddled++
		}
		comps := []string{collA, collB}
		for len(comps) < 4+int(1300/g.span) {
			comps = append(comps, fmt.Sprintf("node%05d", len(comps)))
		}
		var pool []Series
		for i, comp := range comps {
			pool = append(pool, Series{System: "sys", Source: "src", Component: comp, Metric: "m"})
			if i < 4 {
				pool = append(pool, Series{System: "sysB", Source: "src", Component: comp, Metric: "m"},
					Series{System: "sys", Source: "src1", Component: comp, Metric: "m"})
			}
		}
		series, samples := gridStream(rng, g, chunkN, segN, pool)
		ref := make(map[refKey]Cell)
		pos := make(map[refKey]int)
		var order []refKey
		var obs []schema.Observation
		type held struct {
			at int
			c  *Cell
		}
		var holds []held
		for i, si := range series {
			s := pool[si]
			tsn := samples[i]
			k := refKey{ts: tsn - FloorMod(tsn, rollup), s: s}
			v := float64(rng.Intn(1000)) / 7
			c := ct.Cell(SeriesHash(s.Component, s.Metric), tsn, &s)
			if _, seen := pos[k]; !seen {
				pos[k] = len(order)
				order = append(order, k)
				if n := ct.Len(); n >= pageSize && n%97 == 0 {
					holds = append(holds, held{n - 1, c})
				}
			}
			if _, want := ct.At(pos[k]); c != want {
				t.Fatalf("seed %d record %d: Cell returned a cell other than insertion position %d", seed, i, pos[k])
			}
			c.Add(tsn, v)
			r := ref[k]
			r.Add(tsn, v)
			ref[k] = r
			obs = append(obs, schema.Observation{Ts: time.Unix(0, tsn).UTC(), System: s.System, Source: s.Source, Component: s.Component, Metric: s.Metric, Value: v})
		}
		if ct.Len() != len(ref) || ct.Pages() < 3 || len(holds) < 4 {
			t.Fatalf("seed %d: %d cells in %d pages, %d pointers held; reference %d cells (want over two pages)", seed, ct.Len(), ct.Pages(), len(holds), len(ref))
		}
		ids := map[Series]uint32{}
		i := 0
		for p := 0; p < ct.Pages(); p++ {
			keys, cells := ct.Page(p)
			if len(keys) != len(cells) || (p < ct.Pages()-1 && len(keys) != pageSize) {
				t.Fatalf("seed %d page %d: %d keys, %d cells", seed, p, len(keys), len(cells))
			}
			for j := range keys {
				want := order[i]
				k, c := ct.At(i)
				if *k != keys[j] || c != &cells[j] || ct.BucketStart(k.Bucket) != want.ts || ct.Dict()[k.Series] != want.s || *c != ref[want] {
					t.Fatalf("seed %d: cell %d is %+v %+v, want %+v %+v", seed, i, *k, *c, want, ref[want])
				}
				if id, ok := ids[want.s]; ok && id != k.Series {
					t.Fatalf("seed %d: series %+v has ids %d and %d", seed, want.s, id, k.Series)
				}
				ids[want.s] = k.Series
				i++
			}
		}
		if i != len(order) || len(ct.Dict()) != len(ids) {
			t.Fatalf("seed %d: pages hold %d cells, want %d; dictionary %d series, want %d", seed, i, len(order), len(ct.Dict()), len(ids))
		}
		for _, h := range holds {
			if _, c := ct.At(h.at); c != h.c {
				t.Fatalf("seed %d: cell %d moved after its pointer was handed out", seed, h.at)
			}
		}

		db := New(Options{SegmentDuration: time.Duration(segN), RollupInterval: time.Duration(rollup), QueryCacheSize: -1})
		for rest := obs; len(rest) > 0; {
			k := min(len(rest), 1+rng.Intn(700))
			if err := db.InsertBatch(rest[:k]); err != nil {
				t.Fatal(err)
			}
			rest = rest[k:]
		}
		from := time.Unix(0, chunkN-segN).UTC()
		for _, gb := range [][]string{nil, {DimComponent}, {DimSystem, DimSource, DimComponent}} {
			for _, gran := range []time.Duration{15 * time.Second, 45 * time.Second} {
				for agg := AggAvg; agg <= AggLast; agg++ {
					q := Query{From: from, To: from.Add(3 * time.Duration(segN)), GroupBy: gb, Granularity: gran, Agg: agg}
					want, err := db.RunSerial(q)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := db.Run(q); err != nil || !got.Equal(want) || want.Len() == 0 {
						t.Fatalf("seed %d %s: Run diverges from RunSerial or is empty (err %v)", seed, q.Fingerprint(), err)
					}
				}
			}
		}
	}
	if straddled == 0 {
		t.Fatal("no table's grid started before its chunk")
	}
}

// TestLoadCellsRefusesOffGridBuckets: a ColdSchema frame whose bucket
// has no representable chunk — within a chunk of either end of the
// int64 range — is refused before any cell lands, and a table handed
// back for another chunk is an error, never a wrapped ordinal. An
// observation there is dropped by InsertBatch, beside one that lands.
func TestLoadCellsRefusesOffGridBuckets(t *testing.T) {
	const segN, rollup = int64(time.Hour), int64(15 * time.Second)
	s := Series{System: "sys", Source: "src", Component: "node00001", Metric: "m"}
	frame := func(buckets ...int64) *schema.Frame {
		var b cellColumns
		b.grow(len(buckets))
		for i, ts := range buckets {
			b.add(StripeFor(s.Component, s.Metric), i, ts, &s, &Cell{Count: 1, Sum: 1, Min: 1, Max: 1, LastTs: ts, Last: 1})
		}
		f, err := b.frame()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	good := base.UnixNano()
	for _, bucket := range []int64{
		math.MinInt64 - math.MinInt64%rollup + rollup, // floors past MinInt64 to its chunk
		math.MaxInt64 - math.MaxInt64%rollup,          // its chunk ends past MaxInt64
	} {
		landed := 0
		err := LoadCells(frame(good, bucket), segN, rollup, true, func(_ int, chunkN, _ int64) *CellTable {
			landed++
			return NewCellTable(chunkN, segN, rollup)
		})
		if err == nil || !strings.Contains(err.Error(), "no 1h0m0s chunk") || landed != 0 {
			t.Fatalf("bucket %d: err %v after %d rows landed, want a chunk error before any", bucket, err, landed)
		}
	}
	db := New(Options{SegmentDuration: time.Duration(segN), RollupInterval: time.Duration(rollup)})
	if err := db.InsertBatch([]schema.Observation{
		{Ts: time.Unix(0, math.MinInt64+1), System: s.System, Source: s.Source, Component: s.Component, Metric: s.Metric, Value: 1},
		{Ts: base, System: s.System, Source: s.Source, Component: s.Component, Metric: s.Metric, Value: 2},
		{Ts: time.Unix(0, math.MaxInt64-1), System: s.System, Source: s.Source, Component: s.Component, Metric: s.Metric, Value: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.RollupCells != 1 || st.RawIngested != 1 {
		t.Fatalf("InsertBatch at both ends of the int64 range and at %v: %+v, want the one cell at %v", base, st, base)
	}
	other := NewCellTable(good-segN, segN, rollup)
	err := LoadCells(frame(good), segN, rollup, false, func(int, int64, int64) *CellTable { return other })
	if err == nil || !strings.Contains(err.Error(), "outside its table's grid") || other.Len() != 0 {
		t.Fatalf("a table of the previous chunk: err %v, %d cells landed", err, other.Len())
	}
}

// pagedObs is a batch dense enough that every (stripe, chunk) table of a
// tierOptions store runs to a third page: 640 components × 2 metrics × 8
// rollup buckets in each of two 10-minute chunks.
func pagedObs() []schema.Observation {
	var obs []schema.Observation
	for _, chunk := range []int{0, 600} {
		for s := 0; s < 120; s += 15 {
			for c := 0; c < 640; c++ {
				node := fmt.Sprintf("node%05d", c)
				obs = append(obs,
					ob(chunk+s, node, "node_power_w", 1000+float64((s+c)%97)),
					ob(chunk+s+1, node, "cpu_temp_c", 40+float64((s*c)%13)))
			}
		}
	}
	return obs
}

func pagedDB(t *testing.T) *DB {
	t.Helper()
	db := New(tierOptions())
	if err := db.InsertBatch(pagedObs()); err != nil {
		t.Fatal(err)
	}
	for si := range db.shards {
		for chunkN, seg := range db.shards[si].segments {
			if n := seg.cells.Len(); n <= 2*pageSize || n%pageSize == 0 {
				t.Fatalf("stripe %d chunk %d holds %d cells: does not straddle a page boundary", si, chunkN, n)
			}
		}
	}
	return db
}

func allStripes() []int {
	all := make([]int, NumStripes)
	for i := range all {
		all[i] = i
	}
	return all
}

// exportAll serializes the whole store: every stripe, in fold order.
func exportAll(t testing.TB, db *DB) *schema.Frame {
	t.Helper()
	f, err := db.ExportStripes(allStripes())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// withoutSeq projects a ColdSchema frame onto every column but seq — the
// cells, whatever order their tables took them in.
func withoutSeq(t testing.TB, f *schema.Frame) *schema.Frame {
	t.Helper()
	var names []string
	for i := 0; i < ColdSchema.Len(); i++ {
		if name := ColdSchema.Field(i).Name; name != "seq" {
			names = append(names, name)
		}
	}
	out, err := f.Select(names...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPagedTablesExportRetainRoundTrip: the order-preserving stripe export
// of multi-page tables rebuilds multi-page tables that export the same
// frame again and answer byte-identically, and Retain drops exactly the
// old chunk's pages.
func TestPagedTablesExportRetainRoundTrip(t *testing.T) {
	db := pagedDB(t)
	frame := exportAll(t, db)
	if int64(frame.Len()) != db.Stats().RollupCells {
		t.Fatalf("export holds %d rows, store %d cells", frame.Len(), db.Stats().RollupCells)
	}
	re := New(tierOptions())
	if err := re.ImportStripes(frame); err != nil {
		t.Fatal(err)
	}
	if !exportAll(t, re).Equal(frame) {
		t.Fatal("re-export of the rebuilt store differs: insertion order was not preserved across pages")
	}
	q := Query{From: base, To: base.Add(20 * time.Minute), GroupBy: []string{DimMetric}, Granularity: time.Minute, Agg: AggAvg}
	want, err := db.RunSerial(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(Query) (*schema.Frame, error){"hot": db.Run, "rebuilt": re.Run} {
		if got, err := run(q); err != nil || !got.Equal(want) {
			t.Fatalf("%s Run diverges from the serial reference (err %v)", name, err)
		}
	}
	before := db.Stats().RollupCells
	if n := db.Retain(base.Add(15 * time.Minute)); n != 1 {
		t.Fatalf("Retain dropped %d chunks, want 1", n)
	}
	if after := db.Stats().RollupCells; after != before/2 {
		t.Fatalf("Retain left %d of %d cells, want half", after, before)
	}
}

// TestPagedOffloadRollback fails an offload of multi-page segments both
// ways the rollback can go — put the extracted segment back, and merge it
// cell by cell into a chunk a concurrent insert re-created — and requires
// the hot tier to hold exactly the cells of an untouched twin.
func TestPagedOffloadRollback(t *testing.T) {
	db, twin := pagedDB(t), pagedDB(t)
	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	attachTier(t, db, store, ColdTierConfig{Prefix: "lake/"})
	late := ob(31, "node00007", "node_power_w", 7777) // newer than the cell it joins: no LastTs tie
	insertLate := false
	store.SetFaultHook(func(op, _ string) error {
		if op != "store.put" {
			return nil
		}
		if insertLate {
			insert(db, late) // lands in the chunk whose segments are extracted
			insertLate = false
		}
		return errors.New("injected: store down")
	})
	// Rollback by merge appends the extracted cells after the late one, so
	// the two stores hold the same cells in different insertion orders:
	// compare by key, with seq (the order itself) left out.
	byKey := func(db *DB) *schema.Frame {
		f, err := withoutSeq(t, exportAll(t, db)).SortBy(schema.SortKey{Col: "bucket"}, schema.SortKey{Col: "system"},
			schema.SortKey{Col: "source"}, schema.SortKey{Col: "component"}, schema.SortKey{Col: "metric"})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	sameCells := func(label string) {
		t.Helper()
		got, want := byKey(db), byKey(twin)
		if !got.Equal(want) {
			t.Fatalf("%s: hot tier differs from the twin (%d vs %d cells)", label, got.Len(), want.Len())
		}
	}
	if _, err := db.Offload(base.Add(15 * time.Minute)); err == nil {
		t.Fatal("offload succeeded through a failing store")
	}
	sameCells("rollback by re-insert")
	if !exportAll(t, db).Equal(exportAll(t, twin)) {
		t.Fatal("rollback by re-insert changed a table's insertion order")
	}
	insertLate = true
	if _, err := db.Offload(base.Add(15 * time.Minute)); err == nil {
		t.Fatal("offload succeeded through a failing store")
	}
	insert(twin, late)
	sameCells("rollback by merge")
}

// BenchmarkCellTableGrow inserts 100k fresh cells of 1 000 series into
// one table. B/op is the figure to watch: the final 5.6 MB of keys and
// cells once (56 bytes a cell), plus the series' runs (about 0.5 MB live,
// and the arenas they outgrew) and the series dictionary, where one dense
// array pair re-grown by append allocated ~5x the final size.
func BenchmarkCellTableGrow(b *testing.B) {
	const n = 100_000
	series := make([]Series, n)
	ts := make([]int64, n)
	hashes := make([]uint32, n)
	for i := range series {
		series[i] = Series{
			System: "compass", Source: "power_temp",
			Component: fmt.Sprintf("node%05d", i%1000), Metric: "node_power_w",
		}
		ts[i] = int64(i/1000) * int64(15*time.Second)
		hashes[i] = SeriesHash(series[i].Component, series[i].Metric)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := NewCellTable(0, int64(time.Hour), int64(15*time.Second))
		for j := range series {
			ct.Cell(hashes[j], ts[j], &series[j]).Count++
		}
		if ct.Len() != n {
			b.Fatalf("table holds %d cells", ct.Len())
		}
	}
}

// TestFoldAdmitMatchesMatch: Fold through its per-series group memo
// leaves the same groups and match count as the per-cell Match reference, for
// filters on every dimension, over a dictionary whose series differ only
// in system or source, or collide on SeriesHash.
func TestFoldAdmitMatchesMatch(t *testing.T) {
	collA, collB := collidingComponents(t, "m")
	comps := []string{"node00000", "node00001", collA, collB}
	rng := rand.New(rand.NewSource(34))
	ct := NewCellTable(base.UnixNano(), int64(time.Hour), int64(15*time.Second))
	for i := 0; i < 3000; i++ {
		s := Series{
			System: []string{"sys", "sysB"}[rng.Intn(2)], Source: []string{"src0", "src1"}[rng.Intn(2)],
			Component: comps[rng.Intn(len(comps))], Metric: "m",
		}
		ts := base.UnixNano() + int64(rng.Intn(40))*int64(15*time.Second)
		ct.Cell(SeriesHash(s.Component, s.Metric), ts, &s).Add(int64(i), rng.Float64())
	}
	for fi, filters := range []map[string][]string{
		nil,
		{DimSystem: {"sysB"}},
		{DimSource: {"src0"}, DimSystem: {"sys"}},
		{DimComponent: {collA}},
		{DimComponent: {collB, "node00001"}, DimSource: {"src1"}},
		{DimMetric: {"m"}, DimComponent: {"absent"}},
	} {
		p := Compile(Query{
			From: base, To: base.Add(5 * time.Minute), Filters: filters, Granularity: time.Minute,
			GroupBy: []string{DimSystem, DimSource, DimComponent},
		})
		var got, want GroupTable
		var wantMatched int64
		matched := got.Fold(&p, ct, false)
		for i := 0; i < ct.Len(); i++ {
			k, c := ct.At(i)
			if s, ts := ct.Series(k.Series), ct.BucketStart(k.Bucket); ts >= p.fromN && ts < p.toN && p.Match(s) {
				wantMatched++
				tuple := p.tuple(s)
				want.accumulate(&p, ts, want.group(&tuple), c)
			}
		}
		if matched != wantMatched || (fi > 0 && fi < 5 && matched == 0) {
			t.Fatalf("filters %d: Fold matched %d cells, Match %d", fi, matched, wantMatched)
		}
		if err := sameGroups(&got, &want); err != nil {
			t.Fatalf("filters %d: %v", fi, err)
		}
	}
}

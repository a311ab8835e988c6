package tsdb

import (
	"errors"
	"fmt"
	"math/rand"
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

// TestCellTableMatchesMapReference feeds one table well past three pages
// of random (series, bucket) keys with repeats and holds it to a map:
// same cells, At and Page both walk them in first-insertion order, and a
// *Cell taken once its page can no longer move keeps aliasing the table's
// cell across every later insert. The series share SeriesHash values on
// purpose — they differ only in system or source, or are a forged FNV-1a
// collision on (component, metric) — and each must keep its own cells
// and its own id, whose dimensions Series returns unchanged. Re-inserting
// the same series in fresh buckets grows the cells, never the dictionary.
func TestCellTableMatchesMapReference(t *testing.T) {
	collA, collB := collidingComponents(t, "m")
	var pool []Series
	for _, comp := range []string{"node00000", "node00001", "node00002", "node00003", "node00004", collA, collB} {
		for _, sys := range []string{"sys", "sysB"} {
			for _, src := range []string{"src0", "src1"} {
				pool = append(pool, Series{System: sys, Source: src, Component: comp, Metric: "m"})
			}
		}
	}
	type refKey struct {
		ts int64
		s  Series
	}
	rng := rand.New(rand.NewSource(20240601))
	const distinct, adds = 3*pageSize + pageSize/2 + 7, 6000
	var ct CellTable
	ref := make(map[refKey]Cell)
	var order []refKey
	type held struct {
		at int
		c  *Cell
	}
	var holds []held
	for i := 0; i < adds; i++ {
		n := rng.Intn(distinct)
		k := refKey{ts: int64(n/len(pool)) * int64(15*time.Second), s: pool[n%len(pool)]}
		v := rng.Float64()
		ts := rng.Int63n(1 << 40)
		c := ct.Cell(SeriesHash(k.s.Component, k.s.Metric), k.ts, &k.s)
		c.Add(ts, v)
		r, seen := ref[k]
		r.Add(ts, v)
		ref[k] = r
		if !seen {
			order = append(order, k)
			// Hold pointers from page 0 once it is full, from the first and
			// last slot of later pages, and from a page still filling.
			if n := ct.Len(); n >= pageSize && (n%pageSize <= 1 || n%97 == 0) {
				holds = append(holds, held{n - 1, c})
				if n == pageSize {
					_, c0 := ct.At(3)
					holds = append(holds, held{3, c0})
				}
			}
		}
	}
	if ct.Len() != len(ref) || ct.Pages() < 4 {
		t.Fatalf("table holds %d cells in %d pages, reference %d cells", ct.Len(), ct.Pages(), len(ref))
	}
	ids := map[Series]uint32{}
	for i, want := range order {
		k, c := ct.At(i)
		if k.Ts != want.ts || *ct.Series(k.Series) != want.s || *c != ref[want] {
			t.Fatalf("At(%d) = %+v %+v %+v, want %+v %+v", i, *k, *ct.Series(k.Series), *c, want, ref[want])
		}
		if id, ok := ids[want.s]; ok && id != k.Series {
			t.Fatalf("series %+v has ids %d and %d", want.s, id, k.Series)
		}
		ids[want.s] = k.Series
	}
	if len(ids) != len(pool) || len(ct.Dict()) != len(pool) {
		t.Fatalf("%d series reached the table, its dictionary holds %d, want %d", len(ids), len(ct.Dict()), len(pool))
	}
	for s, id := range ids {
		if ct.Dict()[id] != s {
			t.Fatalf("Dict()[%d] = %+v, want %+v", id, ct.Dict()[id], s)
		}
	}
	if SeriesHash(collA, "m") != SeriesHash(collB, "m") || collA == collB {
		t.Fatalf("%q and %q do not collide", collA, collB)
	}
	i := 0
	for p := 0; p < ct.Pages(); p++ {
		keys, cells := ct.Page(p)
		if len(keys) != len(cells) || (p < ct.Pages()-1 && len(keys) != pageSize) {
			t.Fatalf("page %d: %d keys, %d cells", p, len(keys), len(cells))
		}
		for j := range keys {
			if want := order[i]; keys[j].Ts != want.ts || ct.Dict()[keys[j].Series] != want.s || cells[j] != ref[want] {
				t.Fatalf("page %d slot %d is not insertion position %d", p, j, i)
			}
			i++
		}
	}
	if i != len(order) {
		t.Fatalf("pages hold %d cells, want %d", i, len(order))
	}
	if len(holds) < 8 {
		t.Fatalf("only %d pointers held", len(holds))
	}
	for _, h := range holds {
		if _, c := ct.At(h.at); c != h.c {
			t.Fatalf("cell %d moved after its pointer was handed out", h.at)
		}
	}
	const buckets = 40
	before := ct.Len()
	for b := 0; b < buckets; b++ {
		for _, s := range pool {
			ct.Cell(SeriesHash(s.Component, s.Metric), int64(1000+b)*int64(15*time.Second), &s).Count++
		}
	}
	if ct.Len() != before+buckets*len(pool) || len(ct.Dict()) != len(pool) {
		t.Fatalf("re-inserting %d series in %d fresh buckets: %d → %d cells, dictionary %d, want +%d cells, dictionary %d",
			len(pool), buckets, before, ct.Len(), len(ct.Dict()), buckets*len(pool), len(pool))
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
// one table. B/op is the figure to watch: the final 6.4 MB of keys and
// cells once (64 bytes a cell), plus the probe index's doublings (4 MB)
// and the series dictionary, where one dense array pair re-grown by
// append allocated ~5x the final size.
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
		var ct CellTable
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
	var ct CellTable
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
		matched := got.Fold(&p, &ct, false)
		for i := 0; i < ct.Len(); i++ {
			k, c := ct.At(i)
			if s := ct.Series(k.Series); k.Ts >= p.fromN && k.Ts < p.toN && p.Match(s) {
				wantMatched++
				tuple := p.tuple(s)
				want.accumulate(&p, k.Ts, want.group(&tuple), c)
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

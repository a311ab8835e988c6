package tsdb

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"odakit/internal/schema"
)

// forceParallel raises GOMAXPROCS so the parallel scan branch actually
// runs even on a single-core test box, restoring the old value on exit.
func forceParallel(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// propDB seeds a dataset that exercises every dimension: 2 systems ×
// 2 sources × 8 components × 2 metrics over 30 minutes. Small enough
// that 1k queries stay fast under -race, rich enough that group-by and
// filter combinations produce non-trivial shapes.
func propDB(cacheSize int) *DB { return propDBChunks(cacheSize, 10*time.Minute) }

// propDBChunks is propDB's data in time chunks of seg.
func propDBChunks(cacheSize int, seg time.Duration) *DB {
	db := New(Options{
		SegmentDuration: seg, RollupInterval: 15 * time.Second,
		QueryCacheSize: cacheSize,
	})
	rng := rand.New(rand.NewSource(7))
	var batch []schema.Observation
	for s := 0; s < 30*60; s += 20 {
		for c := 0; c < 8; c++ {
			for m := 0; m < 2; m++ {
				batch = append(batch, schema.Observation{
					Ts:        base.Add(time.Duration(s) * time.Second),
					System:    fmt.Sprintf("sys%d", c%2),
					Source:    fmt.Sprintf("src%d", (c/2)%2),
					Component: fmt.Sprintf("node%05d", c),
					Metric:    []string{"node_power_w", "cpu_temp_c"}[m],
					Value:     float64(rng.Intn(2000)) / 3.0,
				})
			}
		}
	}
	db.InsertBatch(batch)
	return db
}

// randomQuery draws one query shape: random window (possibly outside the
// data), random granularity, aggregation, group-by subset in random
// order, and filters that mix known values, unknown values, and the
// occasional empty value list.
func randomQuery(rng *rand.Rand) Query {
	from := base.Add(time.Duration(rng.Intn(40)-5) * time.Minute)
	q := Query{
		From: from,
		To:   from.Add(time.Duration(1+rng.Intn(40*60)) * time.Second),
		Agg:  AggKind(rng.Intn(6)),
	}
	q.Granularity = []time.Duration{0, 15 * time.Second, time.Minute, 7 * time.Minute}[rng.Intn(4)]
	dims := append([]string(nil), dimNames...)
	rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
	q.GroupBy = dims[:rng.Intn(len(dims)+1)]
	q.Filters = map[string][]string{}
	known := map[string][]string{
		DimSystem:    {"sys0", "sys1"},
		DimSource:    {"src0", "src1"},
		DimComponent: {"node00000", "node00003", "node00007"},
		DimMetric:    {"node_power_w", "cpu_temp_c"},
	}
	for _, d := range dimNames {
		switch rng.Intn(5) {
		case 0: // single known value — the compiled fast path
			vals := known[d]
			q.Filters[d] = []string{vals[rng.Intn(len(vals))]}
		case 1: // multi-value, with an unknown mixed in sometimes
			vals := append([]string(nil), known[d]...)
			if rng.Intn(2) == 0 {
				vals = append(vals, "ghost")
			}
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			q.Filters[d] = vals[:1+rng.Intn(len(vals))]
		case 2: // empty value list: matches nothing in both engines
			if rng.Intn(4) == 0 {
				q.Filters[d] = []string{}
			}
		}
	}
	if len(q.Filters) == 0 {
		q.Filters = nil
	}
	return q
}

// TestRunMatchesSerialReference is the equivalence property of the
// parallel engine: across 1k randomized query shapes, Run must return a
// frame byte-identical to the retained serial reference — same rows,
// same order, same float bits — and the cached re-run must match too.
func TestRunMatchesSerialReference(t *testing.T) {
	forceParallel(t)
	db := propDB(64)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		q := randomQuery(rng)
		want, err := db.RunSerial(q)
		if err != nil {
			t.Fatalf("query %d: serial: %v (%+v)", i, err, q)
		}
		got, st, err := db.RunWithStats(q)
		if err != nil {
			t.Fatalf("query %d: parallel: %v (%+v)", i, err, q)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: parallel result diverges from serial\nquery: %+v\nserial: %v\nparallel: %v",
				i, q, want.Rows(), got.Rows())
		}
		if st.CacheHit {
			t.Fatalf("query %d: first execution reported a cache hit", i)
		}
		cached, st2, err := db.RunWithStats(q)
		if err != nil {
			t.Fatalf("query %d: cached: %v", i, err)
		}
		if !cached.Equal(want) {
			t.Fatalf("query %d: cached result diverges from serial", i)
		}
		// The entry was just inserted, so an immediate re-run (no writes in
		// between) must hit regardless of LRU pressure from earlier shapes.
		if !st2.CacheHit {
			t.Fatalf("query %d: immediate re-run missed the cache", i)
		}
	}
}

// TestRunMatchesSerialSingleCore pins GOMAXPROCS to 1 so the serial
// fast path inside aggregate() is exercised against the same reference.
func TestRunMatchesSerialSingleCore(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	db := propDB(-1)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		q := randomQuery(rng)
		want, err := db.RunSerial(q)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := db.RunWithStats(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.Workers != 1 {
			t.Fatalf("workers = %d on a 1-proc run", st.Workers)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: single-core result diverges (%+v)", i, q)
		}
	}
}

// TestQueryStatsCounters sanity-checks the observability surface: scan
// counters are plausible and pruning actually skips out-of-range chunks.
func TestQueryStatsCounters(t *testing.T) {
	forceParallel(t)
	db := propDB(-1)
	_, st, err := db.RunWithStats(Query{
		From: base, To: base.Add(10 * time.Minute),
		Filters: map[string][]string{DimMetric: {"node_power_w"}},
		GroupBy: []string{DimComponent}, Agg: AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("cache disabled but CacheHit set")
	}
	if st.Workers < 2 {
		t.Fatalf("workers = %d, want parallel scan", st.Workers)
	}
	// 30 min of data in 10-min segments: the first window scans ~1/3 of
	// the chunks and prunes the rest.
	if st.SegmentsScanned == 0 || st.SegmentsPruned == 0 {
		t.Fatalf("segments scanned=%d pruned=%d, want both nonzero", st.SegmentsScanned, st.SegmentsPruned)
	}
	if st.CellsScanned == 0 || st.CellsMatched == 0 || st.CellsMatched > st.CellsScanned {
		t.Fatalf("cells scanned=%d matched=%d", st.CellsScanned, st.CellsMatched)
	}
	if st.Groups != 8 {
		t.Fatalf("groups = %d, want 8 components", st.Groups)
	}
}

// topNWorse is the reference's rank order: a is worse than b when it
// aggregates lower, or ties and sorts later alphabetically (value
// descending, then dim ascending — a total order).
func topNWorse(a, b TopNEntry) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.Dim > b.Dim
}

// topNReference computes top-n independently of the engine: RunSerial's
// full group-by, an insertion sort by (value desc, dim asc), truncate.
func topNReference(t *testing.T, db *DB, q Query, dim string, n int) []TopNEntry {
	t.Helper()
	q.GroupBy = []string{dim}
	q.Granularity = 0
	f, err := db.RunSerial(q)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]TopNEntry, 0, f.Len())
	for i := 0; i < f.Len(); i++ {
		entries = append(entries, TopNEntry{Dim: f.Row(i)[1].StrVal(), Value: f.Row(i)[2].FloatVal()})
	}
	for i := 1; i < len(entries); i++ { // insertion sort: value desc, dim asc
		for j := i; j > 0 && topNWorse(entries[j-1], entries[j]); j-- {
			entries[j-1], entries[j] = entries[j], entries[j-1]
		}
	}
	if n < 0 {
		n = 0
	}
	if n > len(entries) {
		n = len(entries)
	}
	return entries[:n]
}

// TestTopNMatchesFullSort pits TopN (the query path + TopNOf's stable
// sort) against the full-sort reference, including value ties (resolved by
// dim ascending), n beyond the cardinality, and non-positive n.
func TestTopNMatchesFullSort(t *testing.T) {
	forceParallel(t)
	db := New(Options{})
	// 40 components; values collide in pairs so ties are common.
	for c := 0; c < 40; c++ {
		insert(db, ob(c, fmt.Sprintf("node%05d", c), "m", float64(c/2)))
	}
	q := Query{From: base, To: base.Add(time.Hour), Agg: AggMax}
	for _, n := range []int{0, -3, 1, 2, 5, 39, 40, 100} {
		got, _, err := TopN(db, q, DimComponent, n)
		if err != nil {
			t.Fatal(err)
		}
		want := topNReference(t, db, q, DimComponent, n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: len = %d, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: entry %d = %+v, want %+v\ngot:  %+v\nwant: %+v", n, i, got[i], want[i], got, want)
			}
		}
	}
}

// TestTopNRandomizedAgainstReference fuzzes the ranking across agg kinds
// and random values where ties and negative values appear.
func TestTopNRandomizedAgainstReference(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(5))
	db := New(Options{})
	for c := 0; c < 64; c++ {
		for s := 0; s < 8; s++ {
			insert(db, ob(s*15, fmt.Sprintf("node%05d", c), "m", float64(rng.Intn(21)-10)))
		}
	}
	q := Query{From: base, To: base.Add(time.Hour)}
	for i := 0; i < 50; i++ {
		q.Agg = AggKind(rng.Intn(6))
		n := rng.Intn(70)
		got, _, err := TopN(db, q, DimComponent, n)
		if err != nil {
			t.Fatal(err)
		}
		want := topNReference(t, db, q, DimComponent, n)
		if len(got) != len(want) {
			t.Fatalf("agg=%d n=%d: len %d vs %d", q.Agg, n, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("agg=%d n=%d: entry %d = %+v, want %+v", q.Agg, n, j, got[j], want[j])
			}
		}
	}
}

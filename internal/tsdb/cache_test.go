package tsdb

import (
	"testing"
	"time"

	"odakit/internal/schema"
)

var cacheQ = Query{
	From: base, To: base.Add(2 * time.Minute),
	Filters: map[string][]string{DimMetric: {"node_power_w"}},
	GroupBy: []string{DimComponent}, Agg: AggAvg,
}

// runStats executes the shared query and returns its stats.
func runStats(t *testing.T, db *DB) QueryStats {
	t.Helper()
	_, st, err := db.RunWithStats(cacheQ)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestQueryCacheHitThenMiss(t *testing.T) {
	db := seededDB(t)
	if st := runStats(t, db); st.CacheHit {
		t.Fatal("cold query reported a cache hit")
	}
	if st := runStats(t, db); !st.CacheHit {
		t.Fatal("identical re-run missed the cache")
	}
	cs := db.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("cache stats = %+v", cs)
	}
	// Semantically-equal queries share an entry: filter value order and
	// map construction order must not matter to the fingerprint.
	reordered := cacheQ
	reordered.Filters = map[string][]string{DimMetric: {"node_power_w"}}
	if _, st, _ := db.RunWithStats(reordered); !st.CacheHit {
		t.Fatal("reordered-but-equal query missed the cache")
	}
}

// TestQueryCacheInvalidation checks that every write path bumps a shard
// version, so a cached entry stops matching the moment the store changes.
func TestQueryCacheInvalidation(t *testing.T) {
	mutations := map[string]func(db *DB){
		"Insert": func(db *DB) { insert(db, ob(30, "node00000", "node_power_w", 1)) },
		"InsertBatch": func(db *DB) {
			db.InsertBatch([]schema.Observation{ob(31, "node00001", "node_power_w", 2)})
		},
		"Retain": func(db *DB) {
			// Age a second segment in, then drop it: membership changed.
			insert(db, schema.Observation{Ts: base.Add(-5 * time.Hour), System: "compass",
				Source: "power_temp", Component: "node00000", Metric: "node_power_w", Value: 3})
			if _, st, err := db.RunWithStats(cacheQ); err != nil || st.CacheHit {
				t.Fatalf("pre-retain warm run: hit=%v err=%v", st.CacheHit, err)
			}
			if db.Retain(base.Add(-time.Hour)) != 1 {
				t.Fatal("retain dropped nothing")
			}
		},
		"ImportStripes": func(db *DB) {
			src := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second})
			insert(src, ob(0, "node00009", "node_power_w", 7))
			if err := db.ImportStripes(exportAll(t, src)); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			db := seededDB(t)
			runStats(t, db) // populate
			if st := runStats(t, db); !st.CacheHit {
				t.Fatal("warm run missed")
			}
			mutate(db)
			if st := runStats(t, db); st.CacheHit {
				t.Fatalf("%s did not invalidate the cached result", name)
			}
		})
	}
}

// TestImportStripesBumpsVersionOncePerStripe: a stripe copy is one
// mutation per stripe it touches, however many cells it carries — a
// resync must not invalidate the result cache once per row — and leaves
// the others alone.
func TestImportStripesBumpsVersionOncePerStripe(t *testing.T) {
	src := pagedDB(t)
	touched := []int{2, 3, 11}
	frame, err := src.ExportStripes(touched)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Len() < 3*2*pageSize {
		t.Fatalf("frame holds only %d cells", frame.Len())
	}
	db := seededDB(t)
	want := db.versionVector()
	for _, s := range touched {
		want[s]++
	}
	if err := db.ImportStripes(frame); err != nil {
		t.Fatal(err)
	}
	if got := db.versionVector(); got != want {
		t.Fatalf("version vector after import = %v, want %v", got, want)
	}
}

// TestRetainNoopKeepsCache is the flip side: a Retain that drops nothing
// leaves every version untouched, so warm entries stay valid.
func TestRetainNoopKeepsCache(t *testing.T) {
	db := seededDB(t)
	runStats(t, db)
	if db.Retain(base.Add(-100*time.Hour)) != 0 {
		t.Fatal("noop retain dropped segments")
	}
	if st := runStats(t, db); !st.CacheHit {
		t.Fatal("noop retain invalidated the cache")
	}
}

// TestCachedStaleCountsMisses is the regression test for the degraded
// path's bookkeeping: a stale lookup that finds nothing must count as a
// stale miss, so CacheStats reflects the shed traffic the cache could
// not absorb (the dashboard's stale-hit ratio depends on it).
func TestCachedStaleCountsMisses(t *testing.T) {
	db := seededDB(t)
	if _, ok := db.CachedStale(cacheQ); ok {
		t.Fatal("stale lookup hit on an empty cache")
	}
	if cs := db.CacheStats(); cs.StaleMisses != 1 || cs.Stale != 0 {
		t.Fatalf("after stale miss: stats = %+v, want StaleMisses=1 Stale=0", cs)
	}
	runStats(t, db) // populate the fingerprint's entry
	if _, ok := db.CachedStale(cacheQ); !ok {
		t.Fatal("stale lookup missed a populated entry")
	}
	cs := db.CacheStats()
	if cs.Stale != 1 || cs.StaleMisses != 1 {
		t.Fatalf("after stale hit: stats = %+v, want Stale=1 StaleMisses=1", cs)
	}
	// Invalid queries are rejected before the cache; they are neither
	// stale hits nor stale misses.
	if _, ok := db.CachedStale(Query{From: base, To: base}); ok {
		t.Fatal("invalid query served from stale cache")
	}
	if cs := db.CacheStats(); cs.StaleMisses != 1 {
		t.Fatalf("invalid query counted as stale miss: %+v", cs)
	}
}

func TestQueryCacheDisabled(t *testing.T) {
	db := New(Options{QueryCacheSize: -1})
	insert(db, ob(0, "n", "m", 1))
	for i := 0; i < 2; i++ {
		if _, st, err := db.RunWithStats(Query{From: base, To: base.Add(time.Minute)}); err != nil || st.CacheHit {
			t.Fatalf("run %d: hit=%v err=%v with caching disabled", i, st.CacheHit, err)
		}
	}
	if cs := db.CacheStats(); cs != (CacheStats{}) {
		t.Fatalf("disabled cache stats = %+v", cs)
	}
}

func TestQueryCacheLRUEviction(t *testing.T) {
	db := New(Options{QueryCacheSize: 2})
	insert(db, ob(0, "n", "m", 1))
	queries := []Query{
		{From: base, To: base.Add(time.Minute)},
		{From: base, To: base.Add(2 * time.Minute)},
		{From: base, To: base.Add(3 * time.Minute)},
	}
	for _, q := range queries {
		if _, err := db.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	if cs := db.CacheStats(); cs.Entries != 2 {
		t.Fatalf("entries = %d, want cap 2", cs.Entries)
	}
	// The oldest entry was evicted; the two newest still hit.
	if _, st, _ := db.RunWithStats(queries[0]); st.CacheHit {
		t.Fatal("evicted entry still hit")
	}
	if _, st, _ := db.RunWithStats(queries[2]); !st.CacheHit {
		t.Fatal("recent entry missed")
	}
}

package tsdb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"odakit/internal/archive"
	"odakit/internal/columnar"
	"odakit/internal/objstore"
	"odakit/internal/schema"
)

// setPartialBudget replaces ct's per-segment partial cache with an empty
// one of budget bytes: the test hook for eviction, and for turning the
// cache on over a fixture whose DB has caching off.
func setPartialBudget(ct *ColdTier, budget int64) { ct.partials = newColdPartials(budget) }

// moved returns q with its range moved back by n ns: the same shape over
// a window the result cache has not seen.
func moved(q Query, n int) Query {
	q.From, q.To = q.From.Add(-time.Duration(n)), q.To.Add(-time.Duration(n))
	return q
}

// TestWarmFederatedMatchesSerialReference is the warm half of
// TestFederatedMatchesSerialReference: every random query runs with the
// tier's partial cache as the previous queries left it, and then again
// with its range moved by 1 ns, so the result cache misses and the
// segments the first run folded are merged from their frozen partials.
// Both answers equal the all-hot serial reference, at every offload
// fraction and cold layout, and hits happen wherever a chunk is cold.
func TestWarmFederatedMatchesSerialReference(t *testing.T) {
	forceParallel(t)
	for _, layout := range tierLayouts {
		twin := propDBChunks(-1, layout.chunk)
		for i, cutoff := range layout.cutoffs {
			name := []string{"offload-none", "offload-partial", "offload-all"}[i] + layout.suffix
			t.Run(name, func(t *testing.T) {
				db, _ := propTier(t, propDBChunks(64, layout.chunk), layout.rowGroupRows, cutoff)
				rng := rand.New(rand.NewSource(4321))
				cached := 0
				for k := 0; k < 300; k++ {
					q := randomQuery(rng)
					for _, q := range []Query{q, moved(q, 1)} {
						want, err := twin.RunSerial(q)
						if err != nil {
							t.Fatal(err)
						}
						got, st, err := db.RunWithStats(q)
						if err != nil {
							t.Fatalf("query %d: %v (%+v)", k, err, q)
						}
						if !got.Equal(want) {
							t.Fatalf("query %d: warm federated result diverges from all-hot serial\nquery: %+v\nstats: %+v\nserial: %v\nwarm:   %v",
								k, q, st, want.Rows(), got.Rows())
						}
						cached += st.ColdSegmentsCached
					}
				}
				ps := db.ColdStats().Partials
				if layout.cold[i] > 0 && (cached == 0 || ps.Hits != uint64(cached)) {
					t.Fatalf("%d cold segments merged from cache, %+v", cached, ps)
				}
				t.Logf("%d cached segments, %+v", cached, ps)
			})
		}
	}
}

// warmTier is a cold tier over seedTier's hour in 10-minute chunks, the
// first 30 minutes offloaded, with an all-hot twin to answer against.
func warmTier(t *testing.T, cfg ColdTierConfig) (db, twin *DB, ct *ColdTier, store *objstore.Store) {
	t.Helper()
	db, twin = New(tierOptions()), New(tierOptions())
	seedTier(db)
	seedTier(twin)
	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	ct = attachTier(t, db, store, cfg)
	if off, err := db.Offload(warmCutoff); err != nil || off.Segments != 3 {
		t.Fatalf("offloaded %d chunks: %v", off.Segments, err)
	}
	return db, twin, ct, store
}

// warmCutoff offloads the chunks that end by base+30m.
var warmCutoff = base.Add(30*time.Minute + time.Nanosecond)

// warmQuery is grouped by metric into 5-minute buckets over the whole
// hour: each of the three cold chunks is cacheable.
var warmQuery = Query{From: base, To: base.Add(time.Hour), GroupBy: []string{DimMetric},
	Granularity: 5 * time.Minute, Agg: AggAvg}

// runAgainst runs q on db and requires the all-hot twin's serial answer;
// it returns the execution's stats.
func runAgainst(t *testing.T, db, twin *DB, q Query) QueryStats {
	t.Helper()
	want, err := twin.RunSerial(q)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := db.RunWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("%+v: answer diverges from the all-hot reference (stats %+v)", q, st)
	}
	return st
}

func TestPartialCacheHitsSkipTheRead(t *testing.T) {
	db, twin, _, store := warmTier(t, ColdTierConfig{Prefix: "lake/"})
	gets := 0
	store.SetFaultHook(func(op, _ string) error {
		if op == "store.get" {
			gets++
		}
		return nil
	})
	if st := runAgainst(t, db, twin, warmQuery); st.ColdSegmentsScanned != 3 || st.ColdSegmentsCached != 0 || st.ColdCells == 0 {
		t.Fatalf("cold run: %+v", st)
	}
	if gets != 3 {
		t.Fatalf("cold run read %d objects, want 3", gets)
	}
	st := runAgainst(t, db, twin, moved(warmQuery, 1))
	// The shifted window ends 1 ns before the last hot chunk does; every
	// cold chunk is still inside it.
	if st.ColdSegmentsScanned != 3 || st.ColdSegmentsCached != 3 || st.ColdCells != 0 || st.ColdRowsDecoded != 0 || st.ColdRowGroupsScanned != 0 {
		t.Fatalf("warm run: %+v, want 3 segments merged and nothing decoded", st)
	}
	if gets != 3 {
		t.Fatalf("warm run read %d more objects", gets-3)
	}
	if ps := db.ColdStats().Partials; ps.Hits != 3 || ps.Misses != 3 || ps.Entries != 3 || ps.Bytes <= 0 {
		t.Fatalf("partial stats %+v", ps)
	}
}

// TestPartialCacheBypassedShapes: a collapsed query (granularity 0), a
// granularity that does not divide the chunk, a window that covers no
// chunk whole and a tier with pruning off never consult the cache; their
// answers are the fold's.
func TestPartialCacheBypassedShapes(t *testing.T) {
	db, twin, ct, _ := warmTier(t, ColdTierConfig{Prefix: "lake/"})
	collapsed := warmQuery
	collapsed.Granularity = 0
	odd := warmQuery
	odd.Granularity = 7 * time.Minute
	partial := warmQuery
	partial.From, partial.To = base.Add(5*time.Minute), base.Add(15*time.Minute)
	for _, q := range []Query{collapsed, odd, partial} {
		for _, q := range []Query{q, moved(q, 1)} {
			if st := runAgainst(t, db, twin, q); st.ColdSegmentsCached != 0 || st.ColdSegmentsScanned == 0 {
				t.Fatalf("%+v: %+v", q, st)
			}
		}
	}
	ct.SetPruning(false)
	for _, q := range []Query{warmQuery, moved(warmQuery, 1)} {
		if st := runAgainst(t, db, twin, q); st.ColdSegmentsCached != 0 {
			t.Fatalf("pruning off: %+v", st)
		}
	}
	if ps := db.ColdStats().Partials; ps != (PartialStats{}) {
		t.Fatalf("bypassed shapes touched the cache: %+v", ps)
	}
}

// TestTwiceOffloadedChunkFoldsEachTime: late data offloaded into a chunk
// that already has a cold segment gives the chunk two; neither is cached,
// and the answer is the fold's.
func TestTwiceOffloadedChunkFoldsEachTime(t *testing.T) {
	db, twin, _, _ := warmTier(t, ColdTierConfig{Prefix: "lake/"})
	for _, d := range []*DB{db, twin} {
		for s := 0; s < 300; s += 15 {
			insert(d, ob(s, "node99999", "node_power_w", 9000+float64(s)))
		}
	}
	if off, err := db.Offload(warmCutoff); err != nil || off.Segments != 1 {
		t.Fatalf("re-offload moved %d chunks: %v", off.Segments, err)
	}
	// The twice-offloaded chunk's two segments fold every time; the other
	// two chunks hit once they are cached.
	for i, q := range []Query{warmQuery, moved(warmQuery, 1), moved(warmQuery, 2)} {
		st := runAgainst(t, db, twin, q)
		if want := []int{0, 2, 2}[i]; st.ColdSegmentsScanned != 4 || st.ColdSegmentsCached != want {
			t.Fatalf("query %d: %d cold segments scanned, %d merged from cache; want 4 and %d", i, st.ColdSegmentsScanned, st.ColdSegmentsCached, want)
		}
	}
	if ps := db.ColdStats().Partials; ps.Entries != 2 || ps.Hits != 4 {
		t.Fatalf("partial stats %+v, want 2 entries hit twice each", ps)
	}
}

// TestLateHotRowsInCachedChunk: late rows land, hot, in a chunk whose
// only cold segment is cached, on a stripe and metric the cold partial
// holds groups of. The hit merges the frozen partial into empty slots and
// the hot scan then folds the late cells onto the same groups, as the
// fold order has it: the answer stays the all-hot reference's.
func TestLateHotRowsInCachedChunk(t *testing.T) {
	db, twin, _, _ := warmTier(t, ColdTierConfig{Prefix: "lake/"})
	runAgainst(t, db, twin, warmQuery)
	late := ""
	for i := 0; late == ""; i++ {
		if c := fmt.Sprintf("late%03d", i); StripeFor(c, "node_power_w") == StripeFor("node00003", "node_power_w") {
			late = c
		}
	}
	for _, d := range []*DB{db, twin} {
		for s := 0; s < 600; s += 15 {
			insert(d, ob(s, late, "node_power_w", 7000+float64(s)/3))
		}
	}
	for _, q := range []Query{moved(warmQuery, 1), moved(warmQuery, 2)} {
		if st := runAgainst(t, db, twin, q); st.ColdSegmentsCached != 3 || st.CellsMatched == 0 {
			t.Fatalf("%+v: %+v, want 3 cached segments and the late hot cells", q, st)
		}
	}
}

// TestReplacedObjectIsRefolded: a cached segment whose object is replaced
// by another version is read and folded again — Head sees the new version
// — and answered from the new bytes; the next query hits the new fold.
func TestReplacedObjectIsRefolded(t *testing.T) {
	db, _, ct, store := warmTier(t, ColdTierConfig{Prefix: "lake/"})
	before, err := db.Run(warmQuery)
	if err != nil {
		t.Fatal(err)
	}
	key := ct.segs[0].meta.Key
	data, _, err := store.Get("lake", key)
	if err != nil {
		t.Fatal(err)
	}
	f, err := columnar.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]*schema.Column, ColdSchema.Len())
	for i := range cols {
		cols[i] = f.Col(i)
	}
	si, _ := ColdSchema.Index("sum")
	sums := slices.Clone(f.Col(si).Floats())
	for i := range sums {
		sums[i] *= 2
	}
	if cols[si], err = schema.FloatColumn(sums, nil); err != nil {
		t.Fatal(err)
	}
	if f, err = schema.FrameOfColumns(ColdSchema, cols); err != nil {
		t.Fatal(err)
	}
	if data, err = columnar.Encode(f, columnar.WriterOptions{RowGroupRows: 700, BloomColumns: dimNames}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("lake", key, data); err != nil {
		t.Fatal(err)
	}
	// A tier that never read the old bytes, over the same hot half, is the
	// reference.
	frozen := New(Options{SegmentDuration: 10 * time.Minute, RollupInterval: 15 * time.Second, QueryCacheSize: -1})
	attachTier(t, frozen, store, ColdTierConfig{Prefix: "lake/"})
	for s := 30 * 60; s < 3600; s += 5 { // seedTier's rows past the cutoff
		node := fmt.Sprintf("node%05d", s%16)
		insert(frozen, ob(s, node, "node_power_w", 1000+float64(s%97)), ob(s, node, "cpu_temp_c", 40+float64(s%13)))
	}
	for i, q := range []Query{moved(warmQuery, 1), moved(warmQuery, 2)} {
		want, err := frozen.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := db.RunWithStats(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Equal(before) {
			t.Fatalf("query %d: the replaced segment is not answered from its new bytes", i)
		}
		if wantCached := []int{2, 3}[i]; st.ColdSegmentsCached != wantCached {
			t.Fatalf("query %d: %d segments merged from cache, want %d", i, st.ColdSegmentsCached, wantCached)
		}
	}
}

// TestGlacierMigratedCachedSegment: a cached segment's object ages into
// GLACIER. Head finds no object, so the query takes the read path: it
// starts the recall and answers without the segment, exactly as a tier
// with caching off does, and the pending answer is not cached.
func TestGlacierMigratedCachedSegment(t *testing.T) {
	glacier := archive.New()
	db, _, ct, store := warmTier(t, ColdTierConfig{Prefix: "lake/", Glacier: glacier})
	refGlacier := archive.New()
	ref, _, refCt, refStore := warmTier(t, ColdTierConfig{Prefix: "lake/", Glacier: refGlacier})
	setPartialBudget(refCt, 0) // nothing fits: the reference folds every time
	for _, d := range []*DB{db, ref} {
		if _, err := d.Run(warmQuery); err != nil {
			t.Fatal(err)
		}
	}
	migrate := func(store *objstore.Store, g *archive.Archive, key string) {
		data, _, err := store.Get("lake", key)
		if err != nil {
			t.Fatal(err)
		}
		g.Freeze("lake/"+key, data)
		if err := store.Delete("lake", key); err != nil {
			t.Fatal(err)
		}
	}
	migrate(store, glacier, ct.segs[1].meta.Key)
	migrate(refStore, refGlacier, refCt.segs[1].meta.Key)
	for _, q := range []Query{moved(warmQuery, 1), moved(warmQuery, 2)} {
		want, wst, err := ref.RunWithStats(q)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := db.RunWithStats(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || st.GlacierPending != 1 || st.GlacierPending != wst.GlacierPending || st.GlacierRecalls != wst.GlacierRecalls {
			t.Fatalf("%+v: %+v against caching off %+v", q, st, wst)
		}
		if st.ColdSegmentsCached != 2 {
			t.Fatalf("%+v: %d segments merged from cache, want the 2 still in OCEAN", q, st.ColdSegmentsCached)
		}
	}
}

// TestNewRefusesStraddlingGrid: a store of 100 s chunks of 15 s buckets
// would split the bucket on each chunk start into two cells, so New
// refuses the grid, with NewGeometry's error, before any table exists.
func TestNewRefusesStraddlingGrid(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not a whole multiple") {
			t.Fatalf("New on a straddling grid: %v, want NewGeometry's refusal", r)
		}
	}()
	New(Options{SegmentDuration: 100 * time.Second, RollupInterval: 15 * time.Second})
}

// TestPartialCacheEvictsUnderBudget: with room for about one segment's
// partial, a query over three cacheable segments evicts as it records,
// the resident bytes never exceed the budget, and answers stay exact.
func TestPartialCacheEvictsUnderBudget(t *testing.T) {
	db, twin, ct, _ := warmTier(t, ColdTierConfig{Prefix: "lake/"})
	runAgainst(t, db, twin, warmQuery)
	one := ct.partials.stats().Bytes / 3
	setPartialBudget(ct, one+one/2)
	for i := 0; i < 3; i++ {
		runAgainst(t, db, twin, moved(warmQuery, 1+i))
		if ps := db.ColdStats().Partials; ps.Bytes > one+one/2 || ps.Entries != 1 {
			t.Fatalf("run %d: %+v over a budget of %d bytes", i, ps, one+one/2)
		}
	}
	// Each record evicts the one before it, so no query finds the one it
	// wants: 2 evictions in the first run, 3 in each later one.
	if ps := db.ColdStats().Partials; ps.Evictions != 8 || ps.Hits != 0 {
		t.Fatalf("%+v: want 8 evictions and no hit", ps)
	}
}

// TestConcurrentWarmQueries: goroutines run the same shapes over moving
// windows, so partials are recorded, replaced and merged concurrently;
// every answer equals the all-hot reference. Run it under -race.
func TestConcurrentWarmQueries(t *testing.T) {
	forceParallel(t)
	db, twin, _, _ := warmTier(t, ColdTierConfig{Prefix: "lake/", RowGroupRows: 256})
	shapes := []Query{warmQuery, tierQueries[4]}
	filtered := warmQuery
	filtered.Filters = map[string][]string{DimComponent: {"node00003", "node00007"}}
	shapes = append(shapes, filtered)
	const workers, rounds = 6, 8
	wants := make(map[[2]int]*schema.Frame)
	for si, q := range shapes {
		for k := 0; k < workers*rounds; k++ {
			f, err := twin.RunSerial(moved(q, k))
			if err != nil {
				t.Fatal(err)
			}
			wants[[2]int{si, k}] = f
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := w*rounds + r
				for si, q := range shapes {
					got, err := db.Run(moved(q, k))
					if err != nil {
						t.Error(err)
						return
					}
					if !got.Equal(wants[[2]int{si, k}]) {
						t.Errorf("shape %d window %d: concurrent warm answer diverges", si, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if ps := db.ColdStats().Partials; ps.Hits == 0 {
		t.Fatalf("no concurrent query hit: %+v", ps)
	}
}

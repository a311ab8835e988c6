package tsdb

import (
	"slices"
	"sync"
	"testing"
	"time"

	"odakit/internal/archive"
	"odakit/internal/columnar"
	"odakit/internal/objstore"
	"odakit/internal/schema"
)

// TestSegmentIndexParsedOnce: however many queries scan a cold segment,
// its object's index is parsed once; later scans bind it to each fresh
// Get. ColdStats reports what the kept indexes hold.
func TestSegmentIndexParsedOnce(t *testing.T) {
	db, q := groupedFixture(t, 3)
	filtered := q
	filtered.Filters = map[string][]string{DimMetric: {"metric_03"}, DimComponent: {"node00002", "node00005"}}
	for i := 0; i < 5; i++ {
		for _, q := range []Query{q, filtered} {
			if _, st, err := db.RunWithStats(q); err != nil || st.ColdSegmentsScanned != 2 {
				t.Fatalf("query %d scanned %d cold segments: %v", i, st.ColdSegmentsScanned, err)
			}
		}
	}
	if n := db.ColdTier().parses.Load(); n != 2 {
		t.Fatalf("10 queries parsed %d segment indexes, want 2", n)
	}
	cs := db.ColdStats()
	if cs.IndexBytes <= 0 || cs.IndexBytes >= cs.Bytes {
		t.Fatalf("%d index bytes for %d object bytes", cs.IndexBytes, cs.Bytes)
	}
	t.Logf("%d index bytes per segment, %d object bytes", cs.IndexBytes/2, cs.Bytes/2)
}

// TestReplacedSegmentObjectIsReparsed: a segment object replaced under
// its key by another valid stream — a new version, here every sum doubled
// and re-encoded at another row-group size — is answered from the new
// bytes, exactly as a tier that never read the old ones answers.
func TestReplacedSegmentObjectIsReparsed(t *testing.T) {
	db, q := groupedFixture(t, 3)
	q.To = base.Add(2 * time.Hour) // the cold hours only
	before, err := db.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	ct := db.ColdTier()
	key := ct.segs[0].meta.Key
	data, _, err := ct.cfg.Store.Get(ct.cfg.Bucket, key)
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
	if _, err := ct.cfg.Store.Put(ct.cfg.Bucket, key, data); err != nil {
		t.Fatal(err)
	}

	got, err := db.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second, QueryCacheSize: -1})
	attachTier(t, fresh, ct.cfg.Store, ColdTierConfig{Prefix: "lake/"})
	want, err := fresh.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || got.Equal(before) {
		t.Fatal("the replaced segment is not answered from its new bytes")
	}
	if n := ct.parses.Load(); n != 3 {
		t.Fatalf("%d segment indexes parsed, want 2 then the replacement", n)
	}
}

// TestStagedGlacierReadIsNotKept: a segment read back from GLACIER has no
// store version to key an index on, so every read parses it afresh and
// none is kept; the answer is whole.
func TestStagedGlacierReadIsNotKept(t *testing.T) {
	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	glacier := archive.New()
	glacier.RecallLatency = 0
	opts := tierOptions()
	opts.QueryCacheSize = -1
	db, twin := New(opts), New(tierOptions())
	seedTier(db)
	seedTier(twin)
	ct := attachTier(t, db, store, ColdTierConfig{Prefix: "lake/", Glacier: glacier})
	if _, err := db.Offload(base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	victim := ct.segs[0]
	data, _, err := store.Get("lake", victim.meta.Key)
	if err != nil {
		t.Fatal(err)
	}
	glacier.Freeze("lake/"+victim.meta.Key, data)
	if err := store.Delete("lake", victim.meta.Key); err != nil {
		t.Fatal(err)
	}
	if _, err := glacier.Recall("lake/" + victim.meta.Key); err != nil {
		t.Fatal(err)
	}
	q := Query{From: base, To: base.Add(time.Hour), GroupBy: []string{DimComponent}, Agg: AggSum}
	want, err := twin.RunSerial(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		got, st, err := db.RunWithStats(q)
		if err != nil || st.GlacierSegments != 1 || st.GlacierPending != 0 {
			t.Fatalf("query %d: %+v, %v; want one staged read", i, st, err)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d diverges from the all-hot reference", i)
		}
		if n := ct.parses.Load(); n != int64(len(ct.segs)-1+i) {
			t.Fatalf("after query %d: %d indexes parsed, want each OCEAN segment once and the staged one %d times", i, n, i)
		}
	}
	if victim.index.Load() != nil {
		t.Fatal("an index parsed from GLACIER bytes was kept")
	}
}

// TestConcurrentFirstScansShareIndexes: 8 goroutines query the same cold
// segments of a tier no query has read yet, so first scans race to parse
// and keep each index; every answer equals the all-hot serial reference,
// and once they are done no scan parses again. Run it under -race.
func TestConcurrentFirstScansShareIndexes(t *testing.T) {
	forceParallel(t)
	opts := tierOptions()
	opts.QueryCacheSize = -1
	db, twin := New(opts), New(tierOptions())
	seedTier(db)
	seedTier(twin)
	ct := attachTier(t, db, nil, ColdTierConfig{Prefix: "lake/", RowGroupRows: 256})
	if _, err := db.Offload(base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	wants := make([]*schema.Frame, len(tierQueries))
	for i, q := range tierQueries {
		var err error
		if wants[i], err = twin.RunSerial(q); err != nil {
			t.Fatal(err)
		}
	}
	run := func(w int) {
		for k := range 2 * len(tierQueries) {
			i := (k + w) % len(tierQueries)
			got, err := db.Run(tierQueries[i])
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if !got.Equal(wants[i]) {
				t.Errorf("query %d: concurrent cold answer diverges from the all-hot reference", i)
				return
			}
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			run(w)
		}()
	}
	close(start)
	wg.Wait()
	parsed := ct.parses.Load()
	run(0)
	if n := ct.parses.Load(); n != parsed || n < int64(len(ct.segs)) {
		t.Fatalf("%d indexes parsed by the concurrent queries, %d after, for %d segments", parsed, n, len(ct.segs))
	}
}

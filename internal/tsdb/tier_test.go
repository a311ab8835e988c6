package tsdb

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odakit/internal/archive"
	"odakit/internal/columnar"
	"odakit/internal/objstore"
	"odakit/internal/obs"
	"odakit/internal/resilience"
)

// tierOptions gives short chunks so one hour of data spans six segments.
func tierOptions() Options {
	return Options{SegmentDuration: 10 * time.Minute, RollupInterval: 15 * time.Second}
}

// seedTier inserts one deterministic hour of data: 16 nodes × 2 metrics
// at 5s cadence, values varying so every aggregation is discriminating.
func seedTier(db *DB) {
	for s := 0; s < 3600; s += 5 {
		node := fmt.Sprintf("node%05d", s%16)
		insert(db, ob(s, node, "node_power_w", 1000+float64(s%97)))
		insert(db, ob(s, node, "cpu_temp_c", 40+float64(s%13)))
	}
}

// attachTier wires an in-memory store tier to db.
func attachTier(t testing.TB, db *DB, store *objstore.Store, cfg ColdTierConfig) *ColdTier {
	t.Helper()
	if store == nil {
		var err error
		store, err = objstore.New("")
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := store.EnsureBucket("lake"); err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	cfg.Bucket = "lake"
	ct, err := db.AttachColdTier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

var tierQueries = []Query{
	{From: base, To: base.Add(time.Hour), GroupBy: []string{DimComponent},
		Filters: map[string][]string{DimMetric: {"node_power_w"}}, Agg: AggAvg},
	{From: base.Add(5 * time.Minute), To: base.Add(45 * time.Minute),
		GroupBy: []string{DimMetric}, Granularity: 10 * time.Minute, Agg: AggSum},
	{From: base, To: base.Add(time.Hour), Agg: AggMax,
		Filters: map[string][]string{DimComponent: {"node00003", "node00007"}}},
	{From: base.Add(20 * time.Minute), To: base.Add(25 * time.Minute),
		GroupBy: []string{DimComponent, DimMetric}, Agg: AggLast},
	{From: base, To: base.Add(time.Hour), GroupBy: []string{DimComponent},
		Granularity: 15 * time.Minute, Agg: AggCount},
}

// expectFederatedMatch asserts every probe query answers byte-identically
// on the federated db and the all-hot twin.
func expectFederatedMatch(t *testing.T, fed, twin *DB, label string) {
	t.Helper()
	for qi, q := range tierQueries {
		got, st, err := fed.RunWithStats(q)
		if err != nil {
			t.Fatalf("%s query %d: %v", label, qi, err)
		}
		want, err := twin.RunSerial(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s query %d: federated result diverges from all-hot serial reference (%d vs %d rows)",
				label, qi, got.Len(), want.Len())
		}
		if st.GlacierPending != 0 {
			t.Fatalf("%s query %d: unexpected pending recalls", label, qi)
		}
	}
}

func TestOffloadPreservesResults(t *testing.T) {
	// The age predicate is strict (chunk end before cutoff), matching
	// Retain: a chunk ending exactly at the cutoff stays hot.
	for _, tc := range []struct {
		cut  time.Duration
		want int
	}{{0, 0}, {30 * time.Minute, 2}, {2 * time.Hour, 6}} {
		t.Run(tc.cut.String(), func(t *testing.T) {
			db := New(tierOptions())
			twin := New(tierOptions())
			seedTier(db)
			seedTier(twin)
			attachTier(t, db, nil, ColdTierConfig{Prefix: "lake/", RowGroupRows: 512})
			off, err := db.Offload(base.Add(tc.cut))
			if err != nil {
				t.Fatal(err)
			}
			wantSegs := tc.want
			if off.Segments != wantSegs {
				t.Fatalf("offloaded %d chunks, want %d", off.Segments, wantSegs)
			}
			if wantSegs > 0 && (off.Cells == 0 || off.Rows == 0 || off.Bytes == 0) {
				t.Fatalf("empty offload stats: %+v", off)
			}
			cs := db.ColdStats()
			if cs.Segments != wantSegs || cs.Cells != off.Cells {
				t.Fatalf("cold stats %+v disagree with offload %+v", cs, off)
			}
			expectFederatedMatch(t, db, twin, "offload")
		})
	}
}

// TestOffloadBytesUnchanged pins what Offload writes: the SHA-256 of the
// first segment object (four 64-row groups, flate, blooms) and of the
// manifest, computed when the writer first kept each chunk's light form
// where it was the smallest. A change that moves either digest changed
// the on-store format or the dimension-clustered row order, not just how
// the frame is assembled. testdata/segment-flate.ocf is the same object
// as the writer wrote it before the light forms (digest 3586c332…),
// every chunk plain or deflated: it still decodes, to the same cells.
func TestOffloadBytesUnchanged(t *testing.T) {
	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	db := New(tierOptions())
	seedTier(db)
	attachTier(t, db, store, ColdTierConfig{Prefix: "lake/", RowGroupRows: 64})
	if _, err := db.Offload(base.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	const segment = "lake/segments/01717200000000000000-000000.ocf"
	for key, want := range map[string]string{
		segment:         "025efd8d32381f239dbf455f24c2e4dd7fe5db62d7d1c7b5a65b3ee2fbe17fe6",
		"lake/manifest": "48433d21ce6f41297e2797e934294910bbbaa532ecadce6f035b0c7df8b74d6b",
	} {
		data, _, err := store.Get("lake", key)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: sha256 %s, want %s", key, got, want)
		}
	}
	data, _, err := store.Get("lake", segment)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile("testdata/segment-flate.ocf")
	if err != nil {
		t.Fatal(err)
	}
	got, err := columnar.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := columnar.ReadAll(old)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || len(data) >= len(old) {
		t.Fatalf("light-form object: %d rows in %d bytes; flate-only object: %d rows in %d bytes, want the same cells in fewer bytes",
			got.Len(), len(data), want.Len(), len(old))
	}
}

func TestManifestReloadAcrossAttach(t *testing.T) {
	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	db := New(tierOptions())
	twin := New(tierOptions())
	seedTier(db)
	seedTier(twin)
	attachTier(t, db, store, ColdTierConfig{Prefix: "lake/"})
	if _, err := db.Offload(base.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Segments != 0 {
		t.Fatalf("hot segments remain after full offload: %d", st.Segments)
	}
	// A fresh (restarted) DB attaching to the same store must see the
	// manifest and answer identically from cold data alone.
	db2 := New(tierOptions())
	ct2 := attachTier(t, db2, store, ColdTierConfig{Prefix: "lake/"})
	if ct2.Generation() == 0 {
		t.Fatal("reloaded tier lost its generation")
	}
	expectFederatedMatch(t, db2, twin, "reload")
}

func TestColdPruningCounters(t *testing.T) {
	opts := tierOptions()
	opts.QueryCacheSize = -1 // every leg scans
	db := New(opts)
	seedTier(db)
	// Small row groups: each chunk holds ~240 cells, so 64-row groups give
	// the intra-file pruning layers something to skip.
	attachTier(t, db, nil, ColdTierConfig{Prefix: "lake/", RowGroupRows: 64})
	if _, err := db.Offload(base.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	db.Instrument(reg)
	// Narrow time range: only one of six cold chunks overlaps.
	_, st, err := db.RunWithStats(Query{
		From: base.Add(2 * time.Minute), To: base.Add(4 * time.Minute), Agg: AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ColdSegmentsScanned != 1 || st.ColdSegmentsPruned != 5 {
		t.Fatalf("time pruning: scanned=%d pruned=%d, want 1/5",
			st.ColdSegmentsScanned, st.ColdSegmentsPruned)
	}
	// Rows are inflated a whole row group at a time and folded one by
	// one: every scanned group but the last holds 64, and only the rows
	// inside the two minutes are folded.
	if g := int64(st.ColdRowGroupsScanned); st.ColdCells == 0 || st.ColdRowsDecoded <= st.ColdCells ||
		st.ColdRowsDecoded <= 64*(g-1) || st.ColdRowsDecoded > 64*g {
		t.Fatalf("decoded %d rows of %d row groups, folded %d", st.ColdRowsDecoded, g, st.ColdCells)
	}
	if dec, fold, n := reg.Counter("oda_tsdb_cold_rows_decoded_total", "").Value(),
		reg.Counter("oda_tsdb_cold_cells_folded_total", "").Value(),
		reg.Histogram("oda_tsdb_cold_scan_seconds", "", nil).Count(); dec != st.ColdRowsDecoded || fold != st.ColdCells || n != 1 {
		t.Fatalf("exported decoded=%d folded=%d cold scans=%d, stats say %d/%d/1", dec, fold, n, st.ColdRowsDecoded, st.ColdCells)
	}
	// A metric that exists nowhere: blooms prune every segment.
	f, st, err := db.RunWithStats(Query{
		From: base, To: base.Add(time.Hour), Agg: AggAvg,
		Filters: map[string][]string{DimMetric: {"no_such_metric"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Fatalf("ghost metric returned %d rows", f.Len())
	}
	if st.ColdSegmentsPruned != 6 || st.ColdSegmentsScanned != 0 {
		t.Fatalf("bloom pruning: scanned=%d pruned=%d, want 0/6",
			st.ColdSegmentsScanned, st.ColdSegmentsPruned)
	}
	// Filtered wide query: row groups should be pruned within segments.
	pruned, st, err := db.RunWithStats(tierQueries[2])
	if err != nil {
		t.Fatal(err)
	}
	if st.ColdRowGroupsPruned == 0 {
		t.Fatalf("no row groups pruned for a 2-of-16-components filter: %+v", st)
	}
	// Pruning disabled: everything is scanned, answers unchanged. The
	// result cache is off, so this leg scans instead of answering with
	// the pruned leg's cached frame.
	db.ColdTier().SetPruning(false)
	f2, st2, err := db.RunWithStats(tierQueries[2])
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHit || st2.ColdSegmentsScanned == 0 {
		t.Fatalf("no-prune leg scanned nothing: %+v", st2)
	}
	if st2.ColdSegmentsPruned != 0 || st2.ColdRowGroupsPruned != 0 {
		t.Fatalf("pruning disabled but counters nonzero: %+v", st2)
	}
	if !f2.Equal(pruned) || st2.ColdCells != st.ColdCells {
		t.Fatalf("no-prune scan folded %d cells into %d rows, pruned scan %d into %d",
			st2.ColdCells, f2.Len(), st.ColdCells, pruned.Len())
	}
}

func TestOffloadAdvancesCacheGeneration(t *testing.T) {
	db := New(tierOptions())
	seedTier(db)
	ct := attachTier(t, db, nil, ColdTierConfig{Prefix: "lake/"})
	q := tierQueries[0]
	first, _, err := db.RunWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, _ := db.RunWithStats(q); !st.CacheHit {
		t.Fatal("warm query missed the cache")
	}
	gen := ct.Generation()
	if _, err := db.Offload(base.Add(30 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if ct.Generation() <= gen {
		t.Fatal("offload did not advance the tier generation")
	}
	f, st, err := db.RunWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("cache served a pre-offload entry after the tier changed")
	}
	if !f.Equal(first) {
		t.Fatal("post-offload result differs from pre-offload result")
	}
}

func TestGlacierRecallFlow(t *testing.T) {
	var mu sync.Mutex
	now := base.Add(2 * time.Hour)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	glacier := archive.New()
	glacier.SetClock(clock)
	db := New(tierOptions())
	twin := New(tierOptions())
	seedTier(db)
	seedTier(twin)
	attachTier(t, db, store, ColdTierConfig{Prefix: "lake/", Glacier: glacier})
	if _, err := db.Offload(base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Lifecycle ages one object out of OCEAN into GLACIER.
	objs, err := store.List("lake", "lake/segments/")
	if err != nil {
		t.Fatal(err)
	}
	victim := objs[0].Key
	data, _, err := store.Get("lake", victim)
	if err != nil {
		t.Fatal(err)
	}
	glacier.Freeze("lake/"+victim, data)
	if err := store.Delete("lake", victim); err != nil {
		t.Fatal(err)
	}

	q := tierQueries[0]
	partial, st, err := db.RunWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.GlacierSegments != 1 || st.GlacierRecalls != 1 || st.GlacierPending != 1 {
		t.Fatalf("first touch: %+v, want one pending recall", st)
	}
	if st.RecallWait != glacier.RecallLatency {
		t.Fatalf("recall wait %v, want the archive's %v", st.RecallWait, glacier.RecallLatency)
	}
	full, err := twin.RunSerial(q)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Equal(full) {
		t.Fatal("answer with a glacier-pending segment should be partial")
	}
	// Mid-recall: observed, not re-issued, never cached; the wait is
	// counted on the archive's clock.
	advance(time.Hour)
	_, st, err = db.RunWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("partial (glacier-pending) answer was cached")
	}
	if st.GlacierRecalls != 0 || st.GlacierPending != 1 || st.RecallWait != glacier.RecallLatency-time.Hour {
		t.Fatalf("mid-recall: %+v, want pending without a new recall, %v to wait", st, glacier.RecallLatency-time.Hour)
	}
	// Recall completes: the same query is whole again.
	advance(glacier.RecallLatency + time.Minute)
	got, st, err := db.RunWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.GlacierPending != 0 || st.GlacierSegments != 1 {
		t.Fatalf("post-recall: %+v, want staged read", st)
	}
	if !got.Equal(full) {
		t.Fatal("post-recall federated answer diverges from reference")
	}
}

func TestOffloadRollbackOnPutFailure(t *testing.T) {
	db := New(tierOptions())
	twin := New(tierOptions())
	seedTier(db)
	seedTier(twin)
	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	attachTier(t, db, store, ColdTierConfig{Prefix: "lake/"})
	// Every put fails hard (not transient, so retries can't mask it).
	var failPuts atomic.Bool
	failPuts.Store(true)
	store.SetFaultHook(func(op, target string) error {
		if op == "store.put" && failPuts.Load() {
			return errors.New("injected: store down")
		}
		return nil
	})
	if _, err := db.Offload(base.Add(2 * time.Hour)); err == nil {
		t.Fatal("offload succeeded through a failing store")
	}
	// The failed chunk must be back in the hot tier, fully queryable.
	if st := db.Stats(); st.Segments == 0 {
		t.Fatal("rollback lost the hot segments")
	}
	expectFederatedMatch(t, db, twin, "rollback")
	// Clearing the fault lets the same offload complete.
	failPuts.Store(false)
	off, err := db.Offload(base.Add(2 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if off.Segments != 6 {
		t.Fatalf("retried offload moved %d chunks, want 6", off.Segments)
	}
	expectFederatedMatch(t, db, twin, "retried offload")
}

// TestColdStoreRetriesOutlastABriefOutage: the store goes away for 3 ms
// of wall clock — a real transient, not a fault that clears after N calls —
// first under an offload's put, then under a federated query's get. The
// four attempts back off between calls, so both ride it out: the offload
// commits instead of rolling back and the query answers instead of
// erroring.
func TestColdStoreRetriesOutlastABriefOutage(t *testing.T) {
	db, twin := New(tierOptions()), New(tierOptions())
	seedTier(db)
	seedTier(twin)
	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	attachTier(t, db, store, ColdTierConfig{Prefix: "lake/"})
	var mu sync.Mutex
	var outageOp string
	var outageEnd time.Time // zero until the armed op is first called
	faulted := 0
	arm := func(op string) {
		mu.Lock()
		defer mu.Unlock()
		outageOp, outageEnd = op, time.Time{}
	}
	store.SetFaultHook(func(op, _ string) error {
		mu.Lock()
		defer mu.Unlock()
		if op != outageOp {
			return nil
		}
		if outageEnd.IsZero() {
			outageEnd = time.Now().Add(3 * time.Millisecond)
		}
		if !time.Now().Before(outageEnd) {
			return nil
		}
		faulted++
		return resilience.MarkTransient(errors.New("injected: store briefly away"))
	})
	arm("store.put")
	off, err := db.Offload(base.Add(2 * time.Hour))
	if err != nil {
		t.Fatalf("offload did not outlast a 3 ms outage: %v", err)
	}
	if off.Segments != 6 || faulted == 0 {
		t.Fatalf("offload moved %d chunks through %d faulted puts", off.Segments, faulted)
	}
	faulted = 0
	arm("store.get")
	expectFederatedMatch(t, db, twin, "get outage")
	if faulted == 0 {
		t.Fatal("no get was faulted")
	}
}

func TestLateDataReOffload(t *testing.T) {
	db := New(tierOptions())
	twin := New(tierOptions())
	seedTier(db)
	seedTier(twin)
	attachTier(t, db, nil, ColdTierConfig{Prefix: "lake/"})
	if _, err := db.Offload(base.Add(30 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Late data lands in an already-offloaded chunk: it opens a fresh hot
	// segment, and a second offload writes a second object for the chunk.
	late := func(d *DB) {
		for s := 0; s < 300; s += 15 {
			insert(d, ob(s, "node99999", "node_power_w", 9000+float64(s)))
		}
	}
	late(db)
	late(twin)
	expectFederatedMatch(t, db, twin, "late hot")
	off, err := db.Offload(base.Add(30 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if off.Segments != 1 {
		t.Fatalf("re-offload moved %d chunks, want 1", off.Segments)
	}
	if db.ColdStats().Segments != 3 {
		t.Fatalf("cold segments = %d, want 2 + 1 re-offloaded", db.ColdStats().Segments)
	}
	expectFederatedMatch(t, db, twin, "late re-offloaded")
}

func TestOffloadWithoutTierErrors(t *testing.T) {
	db := New(tierOptions())
	if _, err := db.Offload(base); err == nil {
		t.Fatal("offload without an attached tier must error")
	}
}

func TestAttachColdTierValidation(t *testing.T) {
	db := New(tierOptions())
	if _, err := db.AttachColdTier(ColdTierConfig{}); err == nil {
		t.Fatal("attach without store accepted")
	}
	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	// Missing bucket: manifest load must surface the store error.
	if _, err := db.AttachColdTier(ColdTierConfig{Store: store, Bucket: "ghost"}); !errors.Is(err, objstore.ErrNoBucket) {
		t.Fatalf("attach to missing bucket: %v", err)
	}
}

package tsdb

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"odakit/internal/columnar"
	"odakit/internal/objstore"
	"odakit/internal/resilience"
	"odakit/internal/schema"
)

// propTierDB builds the property-test dataset (propDB's exact seed, so
// an un-offloaded propDB twin is the reference), attaches an in-memory
// cold tier, and offloads everything older than cutoff. The data spans
// three 10-minute chunks, so cutoffs of base+0/+21m/+60m leave
// 0%/~66%/100% of the chunks cold.
func propTierDB(t *testing.T, cacheSize int, cutoff time.Duration) (*DB, *objstore.Store) {
	t.Helper()
	return propTier(t, propDB(cacheSize), 128, cutoff)
}

// propTier attaches an in-memory cold tier writing rowGroupRows-row
// groups (0 for the default) to db and offloads everything older than
// cutoff.
func propTier(t *testing.T, db *DB, rowGroupRows int, cutoff time.Duration) (*DB, *objstore.Store) {
	t.Helper()
	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.EnsureBucket("lake"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachColdTier(ColdTierConfig{
		Store: store, Bucket: "lake", Prefix: "lake/", RowGroupRows: rowGroupRows,
	}); err != nil {
		t.Fatal(err)
	}
	if cutoff > 0 {
		if _, err := db.Offload(base.Add(cutoff)); err != nil {
			t.Fatal(err)
		}
	}
	return db, store
}

// tierLayout is one way to lay propDB's data out in the cold tier: a name
// suffix for its subtests, its chunk length, row-group size, and offload
// cutoffs (none, partial, total) with the cold segments each leaves. In the default-row-group
// layout the first 25-minute chunk holds 1 200 cells, so its object has
// two row groups and the stripe runs of the series the boundary cuts
// straddle them.
type tierLayout struct {
	suffix       string
	chunk        time.Duration
	rowGroupRows int
	cutoffs      [3]time.Duration
	cold         [3]int
}

var tierLayouts = []tierLayout{
	{"", 10 * time.Minute, 128, [3]time.Duration{0, 21 * time.Minute, time.Hour}, [3]int{0, 2, 3}},
	{"-default-row-groups", 25 * time.Minute, 0, [3]time.Duration{0, 26 * time.Minute, time.Hour}, [3]int{0, 1, 2}},
}

// straddles reports whether some stripe has rows in two row groups of
// the tier's first object.
func straddles(t *testing.T, db *DB, store *objstore.Store) bool {
	t.Helper()
	data, _, err := store.Get("lake", db.ColdTier().segs[0].meta.Key)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := columnar.NewFileReader(data)
	if err != nil {
		t.Fatal(err)
	}
	groupOf := map[int64]int{}
	for g := 0; g < fr.NumRowGroups(); g++ {
		f, err := fr.ReadGroup(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range f.Col(0).Ints() {
			if prev, ok := groupOf[s]; ok && prev != g {
				return true
			}
			groupOf[s] = g
		}
	}
	return false
}

// TestFederatedMatchesSerialReference is the tentpole equivalence
// property: across random query shapes, offload fractions (none,
// partial, total) and cold layouts, a federated execution must return a
// frame byte-identical — same rows, same order, same float bits — to the
// serial reference running on an un-offloaded twin, and the cached
// re-run must match too.
func TestFederatedMatchesSerialReference(t *testing.T) {
	forceParallel(t)
	for _, layout := range tierLayouts {
		twin := propDBChunks(-1, layout.chunk)
		for i, cutoff := range layout.cutoffs {
			name := []string{"offload-none", "offload-partial", "offload-all"}[i] + layout.suffix
			t.Run(name, func(t *testing.T) {
				db, store := propTier(t, propDBChunks(64, layout.chunk), layout.rowGroupRows, cutoff)
				wantCold := layout.cold[i]
				if cs := db.ColdStats(); cs.Segments != wantCold {
					t.Fatalf("cold segments = %d, want %d", cs.Segments, wantCold)
				}
				if wantCold > 0 && layout.rowGroupRows == 0 && !straddles(t, db, store) {
					t.Fatal("no stripe run straddles a row-group boundary")
				}
				checkFederated(t, db, twin, wantCold)
			})
		}
	}
}

// checkFederated runs random queries and top-Ns on db and its
// un-offloaded twin and requires identical answers.
func checkFederated(t *testing.T, db, twin *DB, wantCold int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < 300; i++ {
		q := randomQuery(rng)
		want, err := twin.RunSerial(q)
		if err != nil {
			t.Fatalf("query %d: serial: %v (%+v)", i, err, q)
		}
		got, st, err := db.RunWithStats(q)
		if err != nil {
			t.Fatalf("query %d: federated: %v (%+v)", i, err, q)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: federated result diverges from all-hot serial\nquery: %+v\nserial:    %v\nfederated: %v",
				i, q, want.Rows(), got.Rows())
		}
		if scanned := st.ColdSegmentsScanned + st.ColdSegmentsPruned; scanned > wantCold {
			t.Fatalf("query %d: visited %d cold segments of %d", i, scanned, wantCold)
		}
		cached, st2, err := db.RunWithStats(q)
		if err != nil {
			t.Fatal(err)
		}
		if !st2.CacheHit {
			t.Fatalf("query %d: immediate federated re-run missed the cache", i)
		}
		if !cached.Equal(want) {
			t.Fatalf("query %d: cached federated result diverges", i)
		}
	}
	// TopN must agree as well: it is the same query path.
	for i := 0; i < 40; i++ {
		q := randomQuery(rng)
		dim := dimNames[rng.Intn(len(dimNames))]
		n := rng.Intn(12)
		got, _, err := TopN(db, q, dim, n)
		if err != nil {
			t.Fatal(err)
		}
		want := topNReference(t, twin, q, dim, n)
		if len(got) != len(want) {
			t.Fatalf("topn %d: len %d vs %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("topn %d: entry %d = %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
	// And it is federated and metered like one: a top-N over the
	// whole range reads every offloaded chunk and says so.
	q := Query{From: base, To: base.Add(time.Hour), Agg: AggMax}
	got, st, err := TopN(db, q, DimComponent, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := topNReference(t, twin, q, DimComponent, 3); !slices.Equal(got, want) {
		t.Fatalf("full-range topn = %+v, want %+v", got, want)
	}
	if st.ColdSegmentsScanned != wantCold {
		t.Fatalf("full-range topn scanned %d cold segments, want %d", st.ColdSegmentsScanned, wantCold)
	}
}

// TestColdDecodeTakesScanSlots: cold row-group decode fans out only onto
// helpers won from the DB's scan slots. With every slot held, a cold query
// decodes on its own goroutine and still answers exactly as the all-hot
// reference; with the slots free, the same query does fan out.
func TestColdDecodeTakesScanSlots(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	layout := tierLayouts[1]
	twin := propDBChunks(-1, layout.chunk)
	db, _ := propTier(t, propDBChunks(-1, layout.chunk), layout.rowGroupRows, time.Hour)
	q := Query{From: base, To: base.Add(time.Hour), GroupBy: []string{DimComponent}, Granularity: 5 * time.Minute, Agg: AggSum}
	want, err := twin.RunSerial(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap(db.scanSlots); i++ {
		db.scanSlots <- struct{}{}
	}
	got, st, err := db.RunWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.ColdWorkers != 1 || st.Workers != 1 {
		t.Fatalf("with every scan slot held: %d cold decode goroutines, %d scan goroutines, want 1 and 1", st.ColdWorkers, st.Workers)
	}
	if !got.Equal(want) {
		t.Fatal("inline cold decode diverges from the all-hot reference")
	}
	for i := 0; i < cap(db.scanSlots); i++ {
		<-db.scanSlots
	}
	got, st, err = db.RunWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.ColdWorkers < 2 {
		t.Fatalf("with the scan slots free: %d cold decode goroutines, want a helper", st.ColdWorkers)
	}
	if !got.Equal(want) {
		t.Fatal("parallel cold decode diverges from the all-hot reference")
	}
	if n := len(db.scanSlots); n != 0 {
		t.Fatalf("%d scan slots still held after the queries", n)
	}
}

// coldAnswer folds db's cold tier for q into ps and emits the result.
func coldAnswer(t *testing.T, ps *partialSet, db *DB, q Query) *schema.Frame {
	t.Helper()
	for i := range ps.tables {
		ps.tables[i].Reset()
	}
	p := Compile(q)
	var st QueryStats
	ct := db.ColdTier()
	ct.mu.RLock()
	err := ct.scanCold(&p, &st, ps)
	ct.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if st.ColdCells == 0 {
		t.Fatal("the query folded no cold cells")
	}
	for s := 1; s < shardCount; s++ {
		ps.tables[0].Merge(&ps.tables[s])
	}
	f, err := p.Frame(&ps.tables[0])
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestReusedPartialSetLeaksNoStaleRows: one partialSet folds a large
// segment and then smaller ones, and answers each smaller one exactly as
// the all-hot reference does — rows its vectors and selection kept from
// the large segment never reach a fold — serially and with decode
// helpers.
func TestReusedPartialSetLeaksNoStaleRows(t *testing.T) {
	large, bigQ := groupedFixture(t, 2)
	chunk := tierLayouts[1].chunk
	twin := propDBChunks(-1, chunk)
	small, _ := propTier(t, propDBChunks(-1, chunk), 0, time.Hour) // every chunk cold
	queries := []Query{
		{From: base, To: base.Add(time.Hour), GroupBy: []string{DimMetric}, Granularity: 5 * time.Minute, Agg: AggAvg},
		// Both row groups survive the zone maps and lose rows to the time
		// range, so the helpers' selection leaves gaps to compact.
		{From: base.Add(3 * time.Minute), To: base.Add(22 * time.Minute), GroupBy: []string{DimComponent}, Agg: AggLast},
		{From: base.Add(3 * time.Minute), To: base.Add(27 * time.Minute), GroupBy: []string{DimComponent}, Agg: AggLast,
			Filters: map[string][]string{DimMetric: {"cpu_temp_c"}}},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for qi, q := range queries {
			want, err := twin.RunSerial(q)
			if err != nil {
				t.Fatal(err)
			}
			ps := &partialSet{cold: columnar.Batch{Slots: small.scanSlots}}
			coldAnswer(t, ps, large, bigQ)
			grown := cap(ps.cold.Cols[0].Ints)
			got := coldAnswer(t, ps, small, q)
			if grown <= len(ps.cold.Cols[0].Ints) {
				t.Fatalf("procs %d query %d: the reused vectors (cap %d) are no larger than the small scan (%d rows)",
					procs, qi, grown, len(ps.cold.Cols[0].Ints))
			}
			if !got.Equal(want) {
				t.Fatalf("procs %d query %d: a reused partialSet answers differently from the all-hot reference", procs, qi)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestConcurrentColdQueriesSharePool runs cold queries from several
// goroutines at once, with the result cache off, so pooled partialSets —
// tables, decode vectors, ordering scratch — pass between queries and
// decode helpers contend for the scan slots. Every answer must equal the
// all-hot reference; -race checks the hand-offs.
func TestConcurrentColdQueriesSharePool(t *testing.T) {
	forceParallel(t)
	layout := tierLayouts[1]
	twin := propDBChunks(-1, layout.chunk)
	db, _ := propTier(t, propDBChunks(-1, layout.chunk), layout.rowGroupRows, time.Hour)
	rng := rand.New(rand.NewSource(31))
	queries := make([]Query, 16)
	wants := make([]*schema.Frame, len(queries))
	for i := range queries {
		queries[i] = randomQuery(rng)
		f, err := twin.RunSerial(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = f
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3*len(queries); k++ {
				i := (k + 5*w) % len(queries)
				got, err := db.Run(queries[i])
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				if !got.Equal(wants[i]) {
					t.Errorf("query %d: concurrent cold answer diverges from the all-hot reference", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentFederationAndOffload races queries against progressive
// offloads. The dataset never changes, so every query — no matter where
// the offload frontier stands when it runs — must equal the fixed serial
// reference. Run under -race this also exercises the tier/shard lock
// ordering.
func TestConcurrentFederationAndOffload(t *testing.T) {
	forceParallel(t)
	twin := propDB(-1)
	db, _ := propTierDB(t, 16, 0)
	rng := rand.New(rand.NewSource(77))
	queries := make([]Query, 24)
	frames := make([]*schema.Frame, len(queries))
	for i := range queries {
		queries[i] = randomQuery(rng)
		f, err := twin.RunSerial(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for _, cut := range []time.Duration{11 * time.Minute, 21 * time.Minute, time.Hour} {
			if _, err := db.Offload(base.Add(cut)); err != nil {
				t.Errorf("offload: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := qrng.Intn(len(queries))
				got, err := db.Run(queries[i])
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				if !got.Equal(frames[i]) {
					t.Errorf("query %d: result changed mid-offload", i)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// chaosStore injects deterministic transient faults into store gets:
// each get fails with probability p, so with 4 read attempts a query
// hard-fails with probability p^4 — rare but reachable, which is the
// point: hard failures must surface as errors, never as partial frames.
type chaosStore struct {
	mu        sync.Mutex
	rng       *rand.Rand
	p         float64
	injected  int64
	permanent bool
}

func (c *chaosStore) hook(op, target string) error {
	if op != "store.get" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() >= c.p {
		return nil
	}
	c.injected++
	err := fmt.Errorf("chaos: injected get fault on %s", target)
	if c.permanent {
		return err
	}
	return resilience.MarkTransient(err)
}

// TestFederationChaosGetFaults runs the equivalence property through a
// faulty object store: every federated query either errors cleanly or
// answers byte-identically to the reference — no partial frames, and
// failed executions are never cached.
func TestFederationChaosGetFaults(t *testing.T) {
	forceParallel(t)
	twin := propDB(-1)
	db, store := propTierDB(t, 64, time.Hour) // all data cold: every query reads the store
	chaos := &chaosStore{rng: rand.New(rand.NewSource(3)), p: 0.35}
	store.SetFaultHook(chaos.hook)
	rng := rand.New(rand.NewSource(2024))
	successes, failures := 0, 0
	for i := 0; i < 250; i++ {
		q := randomQuery(rng)
		want, err := twin.RunSerial(q)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := db.RunWithStats(q)
		if err != nil {
			failures++
			if got != nil {
				t.Fatalf("query %d: error %v returned a partial frame", i, err)
			}
			// A failed execution must not poison the cache: the retry path
			// recomputes and the answer is still exact.
			retry, rst, rerr := db.RunWithStats(q)
			if rerr == nil {
				if rst.CacheHit {
					t.Fatalf("query %d: failed execution was served from cache", i)
				}
				if !retry.Equal(want) {
					t.Fatalf("query %d: post-failure retry diverges", i)
				}
			}
			continue
		}
		successes++
		if !got.Equal(want) {
			t.Fatalf("query %d: chaos federated result diverges (stats %+v)", i, st)
		}
	}
	if successes == 0 {
		t.Fatal("chaos run produced no successful queries")
	}
	if chaos.injected == 0 {
		t.Fatal("chaos run injected no faults")
	}
	t.Logf("chaos: %d ok, %d failed, %d faults injected", successes, failures, chaos.injected)

	// Permanent faults abort every touching query instead of degrading.
	chaos.mu.Lock()
	chaos.permanent = true
	chaos.p = 1
	chaos.mu.Unlock()
	if _, _, err := db.RunWithStats(Query{
		From: base, To: base.Add(30 * time.Minute), Agg: AggSum,
	}); err == nil {
		t.Fatal("permanent store failure did not surface as a query error")
	}
}

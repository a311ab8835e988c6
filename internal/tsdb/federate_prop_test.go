package tsdb

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

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
	db := propDB(cacheSize)
	store, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.EnsureBucket("lake"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachColdTier(ColdTierConfig{
		Store: store, Bucket: "lake", Prefix: "lake/", RowGroupRows: 128,
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

// TestFederatedMatchesSerialReference is the tentpole equivalence
// property: across random query shapes and offload fractions (none,
// partial, total), a federated execution must return a frame
// byte-identical — same rows, same order, same float bits — to the
// serial reference running on an un-offloaded twin, and the cached
// re-run must match too.
func TestFederatedMatchesSerialReference(t *testing.T) {
	forceParallel(t)
	twin := propDB(-1)
	for _, tc := range []struct {
		name   string
		cutoff time.Duration
	}{
		{"offload-none", 0},
		{"offload-partial", 21 * time.Minute},
		{"offload-all", time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, _ := propTierDB(t, 64, tc.cutoff)
			wantCold := 0
			switch tc.cutoff {
			case 21 * time.Minute:
				wantCold = 2
			case time.Hour:
				wantCold = 3
			}
			if cs := db.ColdStats(); cs.Segments != wantCold {
				t.Fatalf("cold segments = %d, want %d", cs.Segments, wantCold)
			}
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
		})
	}
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

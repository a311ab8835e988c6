package logsearch

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"odakit/internal/schema"
)

// forceParallel raises GOMAXPROCS so the concurrent segment-scan branch
// runs even on a single-core box, restoring the old value on exit.
func forceParallel(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// bigIndex spreads events over 24 hourly segments so the concurrent scan
// has real fan-out: 4 hosts × 3 severities, one event per host per minute.
func bigIndex() *Index {
	ix := New()
	rng := rand.New(rand.NewSource(11))
	sevs := []string{"info", "warn", "error"}
	var events []schema.Event
	for m := 0; m < 24*60; m += 1 {
		h := fmt.Sprintf("node%05d", m%4)
		events = append(events, ev(m, h, sevs[rng.Intn(3)],
			fmt.Sprintf("gpu xid error code=%d pid=%d", rng.Intn(100), m)))
	}
	for _, e := range events {
		ix.Add(e)
	}
	return ix
}

// serialSearch is the pre-fan-out reference: scan candidate segments
// newest-first, one at a time, stopping once the limit fills.
func serialSearch(ix *Index, q Query) []schema.Event {
	if q.Limit <= 0 {
		q.Limit = 100
	}
	want := compileTerms(q.Terms)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []schema.Event
	for _, seg := range ix.candidates(&q) {
		out = append(out, seg.search(want, &q)...)
		if len(out) >= q.Limit {
			break
		}
	}
	if len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// TestSearchConcurrentMatchesSerial asserts the wave-based concurrent
// Search returns exactly the serial scan's results — same events, same
// newest-first order — across randomized query shapes.
func TestSearchConcurrentMatchesSerial(t *testing.T) {
	forceParallel(t)
	ix := bigIndex()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		q := Query{Limit: 1 + rng.Intn(200)}
		if rng.Intn(2) == 0 {
			q.Terms = []string{"gpu", "xid"}
		}
		if rng.Intn(3) == 0 {
			q.Host = fmt.Sprintf("node%05d", rng.Intn(5))
		}
		if rng.Intn(3) == 0 {
			q.Severity = []string{"info", "warn", "error"}[rng.Intn(3)]
		}
		if rng.Intn(2) == 0 {
			q.From = base.Add(time.Duration(rng.Intn(24*60)) * time.Minute)
			q.To = q.From.Add(time.Duration(1+rng.Intn(12*60)) * time.Minute)
		}
		got := ix.Search(q)
		want := serialSearch(ix, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (%+v): concurrent search diverges\ngot %d hits, want %d", i, q, len(got), len(want))
		}
	}
}

// TestCountMatchesSearch checks the counting scan agrees with the
// materializing path for every filter combination.
func TestCountMatchesSearch(t *testing.T) {
	forceParallel(t)
	ix := bigIndex()
	queries := []Query{
		{},
		{Terms: []string{"gpu"}},
		{Terms: []string{"nonexistent"}},
		{Severity: "error"},
		{Host: "node00002", Severity: "warn"},
		{From: base.Add(6 * time.Hour), To: base.Add(7 * time.Hour)},
		{Terms: []string{"xid"}, Severity: "info", From: base, To: base.Add(30 * time.Minute)},
	}
	for i, q := range queries {
		q.Limit = 1 << 20 // materialize everything for the reference
		want := len(ix.Search(q))
		if got := ix.Count(q); got != want {
			t.Fatalf("query %d (%+v): Count = %d, Search found %d", i, q, got, want)
		}
	}
}

// TestHistogramMatchesSearch cross-checks the count-during-scan
// histogram against a tally over materialized events.
func TestHistogramMatchesSearch(t *testing.T) {
	forceParallel(t)
	ix := bigIndex()
	q := Query{Terms: []string{"gpu"}, From: base.Add(2 * time.Hour), To: base.Add(20 * time.Hour)}
	ref := map[string]int{}
	all := q
	all.Limit = 1 << 20
	for _, e := range ix.Search(all) {
		ref[e.Severity]++
	}
	got := ix.Histogram(q)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("Histogram = %v, want %v", got, ref)
	}
	// A severity filter on the input query is ignored (the histogram
	// buckets by severity itself).
	q.Severity = "error"
	if got := ix.Histogram(q); !reflect.DeepEqual(got, ref) {
		t.Fatalf("Histogram with severity filter = %v, want %v", got, ref)
	}
}

// TestSearchEarlyExitAcrossWaves: a tiny limit against many segments
// must still return the newest matches, not whichever wave finished.
func TestSearchEarlyExitAcrossWaves(t *testing.T) {
	forceParallel(t)
	ix := bigIndex()
	hits := ix.Search(Query{Limit: 5})
	if len(hits) != 5 {
		t.Fatalf("hits = %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Ts.After(hits[i-1].Ts) {
			t.Fatalf("results not newest-first at %d: %v after %v", i, hits[i].Ts, hits[i-1].Ts)
		}
	}
	// The newest event overall must be first.
	if want := base.Add((24*60 - 1) * time.Minute); !hits[0].Ts.Equal(want) {
		t.Fatalf("first hit ts = %v, want %v", hits[0].Ts, want)
	}
}

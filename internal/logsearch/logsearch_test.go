package logsearch

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"odakit/internal/schema"
)

var base = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func ev(min int, host, sev, msg string) schema.Event {
	return schema.Event{
		Ts: base.Add(time.Duration(min) * time.Minute), System: "compass",
		Source: "syslog", Host: host, Severity: sev, Message: msg,
	}
}

func seeded() *Index {
	ix := New()
	for _, e := range []schema.Event{
		ev(0, "node00001", "error", "gpu xid error code=31 pid=4242"),
		ev(1, "node00001", "warn", "thermal throttle engaged, gpu temp 92 C"),
		ev(2, "node00002", "error", "link flap on port 3, retraining"),
		ev(3, "login01", "info", "session opened for user07"),
		ev(125, "node00002", "error", "gpu xid error code=43 pid=777"),
	} {
		ix.Add(e)
	}
	return ix
}

func TestTokenize(t *testing.T) {
	got := Tokenize("GPU Xid error: code=31, pid_4242!")
	want := []string{"gpu", "xid", "error", "code", "31", "pid_4242"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	if len(Tokenize("")) != 0 {
		t.Fatal("empty text should have no tokens")
	}
}

func TestTermSearchAND(t *testing.T) {
	ix := seeded()
	hits := ix.Search(Query{Terms: []string{"gpu", "xid"}})
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(hits))
	}
	// Newest first.
	if !hits[0].Ts.After(hits[1].Ts) {
		t.Fatal("results not newest-first")
	}
	// AND semantics: "gpu throttle" only matches the warn event.
	hits = ix.Search(Query{Terms: []string{"gpu", "throttle"}})
	if len(hits) != 1 || hits[0].Severity != "warn" {
		t.Fatalf("hits = %+v", hits)
	}
	if got := ix.Search(Query{Terms: []string{"nonexistent"}}); len(got) != 0 {
		t.Fatalf("missing term matched %d", len(got))
	}
}

func TestMatchAllAndFilters(t *testing.T) {
	ix := seeded()
	all := ix.Search(Query{})
	if len(all) != 5 {
		t.Fatalf("match-all = %d, want 5", len(all))
	}
	errs := ix.Search(Query{Severity: "error"})
	if len(errs) != 3 {
		t.Fatalf("errors = %d, want 3", len(errs))
	}
	host := ix.Search(Query{Host: "node00002"})
	if len(host) != 2 {
		t.Fatalf("host matches = %d, want 2", len(host))
	}
	both := ix.Search(Query{Severity: "error", Host: "node00001"})
	if len(both) != 1 {
		t.Fatalf("combined = %d, want 1", len(both))
	}
}

func TestTimeRange(t *testing.T) {
	ix := seeded()
	hits := ix.Search(Query{From: base.Add(1 * time.Minute), To: base.Add(3 * time.Minute)})
	if len(hits) != 2 {
		t.Fatalf("ranged = %d, want 2", len(hits))
	}
	// Unbounded From, bounded To.
	hits = ix.Search(Query{To: base.Add(1 * time.Minute)})
	if len(hits) != 1 {
		t.Fatalf("to-bounded = %d, want 1", len(hits))
	}
	// Query entirely in a segment with no docs.
	hits = ix.Search(Query{From: base.Add(10 * time.Hour), To: base.Add(11 * time.Hour)})
	if len(hits) != 0 {
		t.Fatalf("future range = %d, want 0", len(hits))
	}
}

func TestLimit(t *testing.T) {
	ix := New()
	for i := 0; i < 250; i++ {
		ix.Add(ev(i, "h", "info", fmt.Sprintf("event %d", i)))
	}
	hits := ix.Search(Query{})
	if len(hits) != 100 {
		t.Fatalf("default limit = %d, want 100", len(hits))
	}
	hits = ix.Search(Query{Limit: 7})
	if len(hits) != 7 {
		t.Fatalf("limit = %d, want 7", len(hits))
	}
	// Newest first across segments.
	if hits[0].Message != "event 249" {
		t.Fatalf("first hit = %q", hits[0].Message)
	}
}

func TestCount(t *testing.T) {
	ix := seeded()
	if got := ix.Count(Query{Severity: "error"}); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
}

func TestRetain(t *testing.T) {
	ix := seeded()
	if ix.Stats().Segments != 2 { // minutes 0-3 in hour 0, minute 125 in hour 2
		t.Fatalf("segments = %d", ix.Stats().Segments)
	}
	dropped := ix.Retain(base.Add(2 * time.Hour))
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	st := ix.Stats()
	if st.Docs != 1 || st.Segments != 1 {
		t.Fatalf("stats after retain = %+v", st)
	}
	if hits := ix.Search(Query{Terms: []string{"link", "flap"}}); len(hits) != 0 {
		t.Fatal("dropped segment still searchable")
	}
}

func TestDuplicateTermsInDoc(t *testing.T) {
	ix := New()
	ix.Add(ev(0, "h", "info", "error error error repeated"))
	hits := ix.Search(Query{Terms: []string{"error"}})
	if len(hits) != 1 {
		t.Fatalf("hits = %d, want 1 (no duplicate postings)", len(hits))
	}
}

func TestStatsTermCount(t *testing.T) {
	ix := New()
	ix.Add(ev(0, "h", "info", "alpha beta"))
	st := ix.Stats()
	// Terms: alpha beta h info syslog.
	if st.Terms != 5 || st.Docs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func BenchmarkIndexAdd(b *testing.B) {
	ix := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Add(ev(i%600, "node00042", "error", "gpu xid error code=31 pid=4242 retraining link"))
	}
}

func BenchmarkSearch(b *testing.B) {
	ix := New()
	for i := 0; i < 50000; i++ {
		sev := []string{"info", "info", "info", "warn", "error"}[i%5]
		ix.Add(ev(i%600, fmt.Sprintf("node%05d", i%512), sev, fmt.Sprintf("event %d gpu status ok", i)))
	}
	q := Query{Terms: []string{"gpu"}, Severity: "error", Limit: 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q)
	}
}

func TestHistogram(t *testing.T) {
	ix := seeded()
	h := ix.Histogram(Query{})
	if h["error"] != 3 || h["warn"] != 1 || h["info"] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	// Term-scoped histogram.
	h = ix.Histogram(Query{Terms: []string{"gpu"}})
	if h["error"] != 2 || h["warn"] != 1 {
		t.Fatalf("gpu histogram = %v", h)
	}
}

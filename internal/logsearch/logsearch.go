// Package logsearch implements the LAKE tier's unstructured-log store:
// the role ElasticSearch plays in the paper — real-time diagnostics and
// debugging over syslog and event streams. Events are tokenized into an
// inverted index held in hourly segments; queries combine full-text terms
// (AND semantics), field filters, and a time range, returning the newest
// matches first. Hourly segments give the same bounded retention story as
// the rest of the hot tier.
package logsearch

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"odakit/internal/schema"
)

// Tokenize splits text into lower-cased alphanumeric terms. Exported so
// dashboards can highlight matched terms the same way the index sees them.
func Tokenize(text string) []string {
	var terms []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			terms = append(terms, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return terms
}

type docRef struct {
	seg *segmentIdx
	id  int
}

type segmentIdx struct {
	start time.Time
	docs  []schema.Event
	terms map[string][]int // term -> sorted doc ids within segment
}

// Index is the searchable log store. Safe for concurrent use.
type Index struct {
	mu       sync.RWMutex
	segments map[int64]*segmentIdx
	segDur   time.Duration
	total    int64
}

// New returns an empty index with hourly segments.
func New() *Index {
	return &Index{segments: make(map[int64]*segmentIdx), segDur: time.Hour}
}

// Add indexes one event.
func (ix *Index) Add(e schema.Event) {
	chunk := e.Ts.Truncate(ix.segDur).UnixNano()
	ix.mu.Lock()
	seg, ok := ix.segments[chunk]
	if !ok {
		seg = &segmentIdx{start: e.Ts.Truncate(ix.segDur), terms: make(map[string][]int)}
		ix.segments[chunk] = seg
	}
	id := len(seg.docs)
	seg.docs = append(seg.docs, e)
	seen := map[string]bool{}
	for _, term := range Tokenize(e.Message + " " + e.Host + " " + e.Severity + " " + e.Source) {
		if seen[term] {
			continue
		}
		seen[term] = true
		seg.terms[term] = append(seg.terms[term], id)
	}
	ix.total++
	ix.mu.Unlock()
}

// Query describes a log search.
type Query struct {
	// Terms must all appear in the event (message or fields), after
	// tokenization. Empty means match-all.
	Terms []string
	// Severity restricts matches when non-empty.
	Severity string
	// Host restricts matches when non-empty.
	Host string
	// From and To bound the time range; zero values are unbounded.
	From, To time.Time
	// Limit caps returned events (default 100).
	Limit int
}

// searchWorkerCap bounds the segment-scan worker pool; beyond a handful
// of scanners the merge step, not the scan, dominates.
const searchWorkerCap = 8

// searchWorkers picks the concurrent fan-out for n candidate segments.
func searchWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > searchWorkerCap {
		w = searchWorkerCap
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// compileTerms tokenizes query terms once per query.
func compileTerms(terms []string) []string {
	want := make([]string, 0, len(terms))
	for _, t := range terms {
		want = append(want, Tokenize(t)...)
	}
	return want
}

// candidates returns the time-pruned segments newest-first. The caller
// must hold ix.mu (read) for as long as the segments are scanned.
func (ix *Index) candidates(q *Query) []*segmentIdx {
	keys := make([]int64, 0, len(ix.segments))
	for k := range ix.segments {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })
	segs := make([]*segmentIdx, 0, len(keys))
	for _, k := range keys {
		seg := ix.segments[k]
		segEnd := seg.start.Add(ix.segDur)
		if !q.From.IsZero() && !segEnd.After(q.From) {
			continue
		}
		if !q.To.IsZero() && !seg.start.Before(q.To) {
			continue
		}
		segs = append(segs, seg)
	}
	return segs
}

// accept reports whether an event passes the query's row-level filters.
func (q *Query) accept(e *schema.Event) bool {
	if !q.From.IsZero() && e.Ts.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && !e.Ts.Before(q.To) {
		return false
	}
	if q.Severity != "" && e.Severity != q.Severity {
		return false
	}
	if q.Host != "" && e.Host != q.Host {
		return false
	}
	return true
}

// search collects one segment's matches, filtered and sorted newest first.
func (s *segmentIdx) search(want []string, q *Query) []schema.Event {
	ids := s.match(want)
	var hits []schema.Event
	for _, id := range ids {
		if e := &s.docs[id]; q.accept(e) {
			hits = append(hits, *e)
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].Ts.After(hits[j].Ts) })
	return hits
}

// Search returns matching events, newest first. Segment indexes are
// scanned concurrently by a bounded worker pool; segments are visited
// newest-first in waves so a satisfied limit still stops the scan early.
func (ix *Index) Search(q Query) []schema.Event {
	if q.Limit <= 0 {
		q.Limit = 100
	}
	want := compileTerms(q.Terms)

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	segs := ix.candidates(&q)
	workers := searchWorkers(len(segs))

	var out []schema.Event
	if workers == 1 {
		for _, seg := range segs {
			out = append(out, seg.search(want, &q)...)
			if len(out) >= q.Limit {
				break
			}
		}
	} else {
		// One wave of `workers` segments at a time: results land in wave
		// order (newest first), and a filled limit stops the next wave.
		results := make([][]schema.Event, workers)
		for base := 0; base < len(segs) && len(out) < q.Limit; base += workers {
			wave := segs[base:min(base+workers, len(segs))]
			var wg sync.WaitGroup
			wg.Add(len(wave))
			for i, seg := range wave {
				go func(i int, seg *segmentIdx) {
					defer wg.Done()
					results[i] = seg.search(want, &q)
				}(i, seg)
			}
			wg.Wait()
			for i := range wave {
				out = append(out, results[i]...)
			}
		}
	}
	if len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// match returns doc ids containing every term (intersection of postings).
func (s *segmentIdx) match(terms []string) []int {
	if len(terms) == 0 {
		ids := make([]int, len(s.docs))
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	postings := make([][]int, 0, len(terms))
	for _, t := range terms {
		p, ok := s.terms[t]
		if !ok {
			return nil
		}
		postings = append(postings, p)
	}
	// Intersect starting from the rarest posting list.
	sort.Slice(postings, func(i, j int) bool { return len(postings[i]) < len(postings[j]) })
	cur := postings[0]
	for _, p := range postings[1:] {
		cur = intersect(cur, p)
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// count tallies one segment's matches without materializing events.
func (s *segmentIdx) count(want []string, q *Query, bySeverity map[string]int) int {
	n := 0
	for _, id := range s.match(want) {
		if e := &s.docs[id]; q.accept(e) {
			n++
			if bySeverity != nil {
				bySeverity[e.Severity]++
			}
		}
	}
	return n
}

// forEachSegment runs fn(i, seg) over segments with a bounded worker
// pool. The caller must hold ix.mu (read); fn must only write state
// owned by its index i.
func forEachSegment(segs []*segmentIdx, fn func(i int, seg *segmentIdx)) {
	workers := searchWorkers(len(segs))
	if workers <= 1 {
		for i, seg := range segs {
			fn(i, seg)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(segs) {
					return
				}
				fn(i, segs[i])
			}
		}()
	}
	wg.Wait()
}

// Count returns how many events match without materializing them: every
// candidate segment is counted concurrently during the index scan.
func (ix *Index) Count(q Query) int {
	want := compileTerms(q.Terms)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	segs := ix.candidates(&q)
	counts := make([]int, len(segs))
	forEachSegment(segs, func(i int, seg *segmentIdx) {
		counts[i] = seg.count(want, &q, nil)
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// Retain drops segments older than cutoff, returning the dropped count.
func (ix *Index) Retain(cutoff time.Time) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	dropped := 0
	for k, seg := range ix.segments {
		if seg.start.Add(ix.segDur).Before(cutoff) {
			ix.total -= int64(len(seg.docs))
			delete(ix.segments, k)
			dropped++
		}
	}
	return dropped
}

// Stats summarizes index contents.
type Stats struct {
	Docs     int64
	Segments int
	Terms    int
}

// Stats returns current counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := Stats{Docs: ix.total, Segments: len(ix.segments)}
	for _, s := range ix.segments {
		st.Terms += len(s.terms)
	}
	return st
}

// Histogram counts matching events per severity — the Kibana-style
// overview panel of the diagnostics UI. Counts are tallied during the
// concurrent segment scan (one small map per segment, merged at the
// end); no event slice is ever materialized.
func (ix *Index) Histogram(q Query) map[string]int {
	q.Severity = ""
	want := compileTerms(q.Terms)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	segs := ix.candidates(&q)
	partials := make([]map[string]int, len(segs))
	forEachSegment(segs, func(i int, seg *segmentIdx) {
		m := make(map[string]int, 8)
		seg.count(want, &q, m)
		partials[i] = m
	})
	out := map[string]int{}
	for _, m := range partials {
		for sev, n := range m {
			out[sev] += n
		}
	}
	return out
}

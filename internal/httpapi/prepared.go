package httpapi

// Prepared / parameterized queries (§V-C portals re-issue the same
// handful of query shapes on every dashboard refresh):
//
//	POST /api/v1/prepare?metric=&component=&agg=&granularity=&groupby=&from=&to=
//	GET  /api/v1/query?prep=<handle>&from=&to=
//
// Prepare validates the full parameter set once and returns a
// content-addressed handle derived from the query's canonical
// fingerprint — preparing the same logical query twice (from any client)
// yields the same handle, so handles are shareable and idempotent.
// Execution binds an optional from/to override to the prepared shape and
// streams the result with chunked flushes, so large frames start
// arriving before the encode finishes. The streamed bytes are exactly
// what the ad-hoc /api/v1/lake/query endpoint would have written.

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"time"

	"odakit/internal/schema"
	"odakit/internal/tsdb"
)

const (
	// preparedCap bounds the prepared-statement registry; least recently
	// executed handles fall off and clients re-prepare on 404.
	preparedCap = 1024
	// streamFlushEvery is how many series points are encoded between
	// http.Flusher flushes on the prepared execution path.
	streamFlushEvery = 256
)

type preparedEntry struct {
	handle string
	fp     string     // canonical fingerprint (collision guard)
	query  tsdb.Query // validated shape + default window
}

// preparedRegistry is an LRU of prepared statements keyed by handle.
type preparedRegistry struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // front = most recently used
}

func newPreparedRegistry() *preparedRegistry {
	return &preparedRegistry{entries: make(map[string]*list.Element, preparedCap)}
}

// put registers a validated query and returns its content-addressed
// handle. Re-preparing an existing shape refreshes its LRU position.
func (p *preparedRegistry) put(q tsdb.Query) string {
	fp := q.Fingerprint()
	p.mu.Lock()
	defer p.mu.Unlock()
	h := fnv.New64a()
	h.Write([]byte(fp))
	handle := fmt.Sprintf("p%016x", h.Sum64())
	// A 64-bit collision between live handles is vanishingly rare; salt
	// the hash until the slot is free or holds this same fingerprint.
	for salt := byte(0); ; salt++ {
		el, ok := p.entries[handle]
		if !ok || el.Value.(*preparedEntry).fp == fp {
			break
		}
		h.Write([]byte{salt})
		handle = fmt.Sprintf("p%016x", h.Sum64())
	}
	if el, ok := p.entries[handle]; ok {
		p.lru.MoveToFront(el)
		return handle
	}
	if p.lru.Len() >= preparedCap {
		oldest := p.lru.Back()
		p.lru.Remove(oldest)
		delete(p.entries, oldest.Value.(*preparedEntry).handle)
	}
	p.entries[handle] = p.lru.PushFront(&preparedEntry{handle: handle, fp: fp, query: q})
	return handle
}

// get looks up a handle, promoting it to most recently used.
func (p *preparedRegistry) get(handle string) (tsdb.Query, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.entries[handle]
	if !ok {
		return tsdb.Query{}, false
	}
	p.lru.MoveToFront(el)
	return el.Value.(*preparedEntry).query, true
}

// preparedInfo is the prepare response body.
type preparedInfo struct {
	Handle      string    `json:"handle"`
	DefaultFrom time.Time `json:"default_from"`
	DefaultTo   time.Time `json:"default_to"`
}

// prepare validates a full lake-query parameter set and registers it,
// amortizing request parsing for clients that re-execute the same shape.
func (s *Server) prepare(w http.ResponseWriter, r *http.Request) {
	query, err := s.parseLakeQuery(r)
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	handle := s.prepared.put(query)
	s.writeJSON(w, http.StatusOK, preparedInfo{
		Handle: handle, DefaultFrom: query.From, DefaultTo: query.To,
	})
}

// preparedRun executes a prepared handle, optionally rebinding the time
// window, and streams the result. Everything but the window was already
// validated at prepare time, so the per-execution parse cost is two
// timestamps and a map lookup.
func (s *Server) preparedRun(w http.ResponseWriter, r *http.Request) {
	handle, err := uniqueParam(r.URL.Query(), "prep")
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	if handle == "" {
		s.badRequest(w, "prep is required")
		return
	}
	query, ok := s.prepared.get(handle)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not-found",
			"no such prepared query "+handle+" (evicted or never prepared; re-prepare)")
		return
	}
	from, to, err := windowParams(r, query.From, query.To)
	if err != nil {
		s.badRequest(w, "bad from/to: "+err.Error())
		return
	}
	query.From, query.To = from, to
	s.serveQuery(w, r, query, func(fr *schema.Frame) {
		streamSeries(w, fr, query.GroupBy)
	})
}

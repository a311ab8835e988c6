// Package httpapi exposes a facility's data services over HTTP — the
// "web server data portals" that projects run on the Slate platform
// (§V-C). Endpoints are read-only JSON views over the LAKE, logs, RATS,
// datasets, and governance state, plus a liveness probe; the dashboards
// of §VII consume exactly these queries.
//
//	GET  /healthz
//	GET  /api/v1/lake/query?metric=&component=&from=&to=&agg=&granularity=
//	POST /api/v1/prepare?metric=&component=&agg=&granularity=&groupby=&from=&to=
//	GET  /api/v1/query?prep=<handle>&from=&to=
//	GET  /api/v1/lake/topn?metric=&n=&from=&to=
//	GET /api/v1/logs/search?q=&severity=&host=&limit=
//	GET /api/v1/rats/programs?from=&to=
//	GET /api/v1/datasets
//	GET /api/v1/governance/requests
//	GET /api/v1/jobs/{id}
//	GET /api/v1/pipelines
//	POST /api/v1/cq?window=&metric=&groupby=&agg=&granularity=&kind=&above=&maxscore=
//	GET /api/v1/cq
//	GET /api/v1/cq/{id}
//	GET /api/v1/cq/{id}/watch
//	GET /api/v1/cq/{id}/alerts
//	DELETE /api/v1/cq/{id}
//	GET /metrics
//	GET /api/v1/traces
//
// Under load the query endpoints degrade gracefully rather than pile
// onto a saturated LAKE: when every concurrent scan slot is busy, a
// query is answered from the stale side of the result cache (marked
// X-ODA-Stale: true) when possible, and shed with 503 + Retry-After
// otherwise.
//
// # Response headers
//
// Every error response carries X-ODA-Error with a machine-readable
// category — "bad-request", "not-found", "overloaded", "unavailable",
// "internal", or (behind the gateway) "quota" — and every 503 carries
// Retry-After. Query responses
// (lake/query, query?prep= and lake/topn alike — see serveQuery) carry
// the X-ODA-Query-* engine-cost headers and X-ODA-Stale marks a degraded
// (stale-cache) answer. /metrics serves the facility registry
// in Prometheus text format; /api/v1/traces dumps recently sampled
// pipeline trace trees.
//
// When served behind the multi-tenant gateway (internal/gateway), every
// response additionally carries the per-tenant quota headers
// X-ODA-Quota-Limit, X-ODA-Quota-Remaining, and X-ODA-Quota-Scan-Budget,
// and exhausted tenants receive 429 + Retry-After + X-ODA-Error: quota
// instead of reaching these handlers at all.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"odakit/internal/cluster"
	"odakit/internal/core"
	"odakit/internal/logsearch"
	"odakit/internal/obs"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/tsdb"
)

// shedLoad is the scan-slot utilization at or above which query
// endpoints start shedding (1.0 = every slot busy).
const shedLoad = 1.0

// Server wraps a facility with HTTP handlers.
type Server struct {
	f   *core.Facility
	mux *http.ServeMux

	// overloaded, when set, replaces the overload predicate: tests force
	// it to exercise the shed paths deterministically. Nil asks the
	// backend that answers (see lakeEngine).
	overloaded func() bool

	// stream and backend are the facility's data plane as of New:
	// /healthz lists stream's topics, backend serves the lake query
	// routes (SetQueryBackend swaps it).
	stream  plane.Stream
	backend plane.Lake

	// clusterHealth, when set, folds cluster replication state into
	// /healthz: an under-replicated cluster degrades the probe, a cluster
	// with unservable partitions or stripes reports down.
	clusterHealth func() cluster.Health

	// prepared holds registered parameterized queries (see prepared.go).
	prepared *preparedRegistry

	shedStale  *obs.Counter
	shedReject *obs.Counter
}

// New returns a server for the facility.
func New(f *core.Facility) *Server {
	s := &Server{f: f, mux: http.NewServeMux(), prepared: newPreparedRegistry()}
	s.stream, s.backend = f.Plane()
	s.shedStale = f.Obs.Counter("oda_http_shed_stale_total",
		"Overloaded queries answered from the stale cache side.")
	s.shedReject = f.Obs.Counter("oda_http_shed_rejected_total",
		"Overloaded queries rejected with 503 + Retry-After.")
	s.handle("GET /healthz", "healthz", s.health)
	s.handle("GET /api/v1/lake/query", "lake_query", s.lakeQuery)
	s.handle("POST /api/v1/prepare", "prepare", s.prepare)
	s.handle("GET /api/v1/query", "prepared_query", s.preparedRun)
	s.handle("GET /api/v1/lake/topn", "lake_topn", s.lakeTopN)
	s.handle("GET /api/v1/logs/search", "logs_search", s.logsSearch)
	s.handle("GET /api/v1/rats/programs", "rats_programs", s.ratsPrograms)
	s.handle("GET /api/v1/datasets", "datasets", s.datasets)
	s.handle("GET /api/v1/governance/requests", "governance_requests", s.governanceRequests)
	s.handle("GET /api/v1/jobs/{id}", "job", s.job)
	s.handle("GET /api/v1/pipelines", "pipelines", s.pipelines)
	s.handle("POST /api/v1/cq", "cq_register", s.cqRegister)
	s.handle("GET /api/v1/cq", "cq_list", s.cqList)
	s.handle("GET /api/v1/cq/{id}", "cq_read", s.cqRead)
	s.handle("GET /api/v1/cq/{id}/watch", "cq_watch", s.cqWatch)
	s.handle("GET /api/v1/cq/{id}/alerts", "cq_alerts", s.cqAlerts)
	s.handle("DELETE /api/v1/cq/{id}", "cq_unregister", s.cqUnregister)
	s.mux.Handle("GET /metrics", obs.MetricsHandler(f.Obs))
	s.mux.Handle("GET /api/v1/traces", obs.TracesHandler(f.Tracer))
	return s
}

// handle registers a route with a per-route request counter.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	c := s.f.Obs.Counter("oda_http_requests_total"+obs.Labels("route", route),
		"HTTP requests served, per route.")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		h(w, r)
	})
}

// SetOverloadCheck replaces the overload predicate (tests and custom
// deployments); nil goes back to asking the backend.
func (s *Server) SetOverloadCheck(fn func() bool) { s.overloaded = fn }

// SetQueryBackend routes the lake query endpoints through b instead of
// the facility plane's LAKE. Overload, stale answers and the /healthz
// lake_* fields are b's own when it is a lakeEngine, and absent otherwise.
func (s *Server) SetQueryBackend(b plane.Lake) { s.backend = b }

// lakeEngine is what a backend that is itself one query engine
// (*tsdb.DB) can say about itself, asked of the backend that answers at
// request time: scan-slot saturation, the stale side of its own result
// cache, and its store counters. A backend without it (a cluster, whose
// nodes each hold a part) is never "overloaded", has no stale answer —
// serving one from any other cache could be another topology's data —
// and reports no lake_* fields on /healthz rather than invented zeros.
type lakeEngine interface {
	ScanLoad() float64
	CachedStale(tsdb.Query) (*schema.Frame, bool)
	Stats() tsdb.Stats
}

// isOverloaded reports whether the backend is too busy for a fresh scan:
// every scan slot of the answering engine is in use.
func (s *Server) isOverloaded() bool {
	if s.overloaded != nil {
		return s.overloaded()
	}
	e, ok := s.backend.(lakeEngine)
	return ok && e.ScanLoad() >= shedLoad
}

// SetClusterHealth merges cluster replication health into /healthz.
// Pass the Cluster's Health method; nil disables the merge.
func (s *Server) SetClusterHealth(fn func() cluster.Health) { s.clusterHealth = fn }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// writeError writes a JSON error with the documented headers: X-ODA-Error
// carries the machine-readable category ("bad-request", "not-found",
// "overloaded", "unavailable", "internal"), and every 503 carries
// Retry-After so clients back off instead of hammering a saturated lake.
func (s *Server) writeError(w http.ResponseWriter, status int, category, msg string) {
	w.Header().Set("X-ODA-Error", category)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.f.Obs.Counter("oda_http_errors_total"+obs.Labels("category", category),
		"HTTP error responses, per category.").Inc()
	writeJSON(w, status, apiError{Error: msg})
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.writeError(w, http.StatusBadRequest, "bad-request", msg)
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	pipelines := s.f.Pipelines.Snapshot()
	// The probe degrades instead of flipping straight to dead: a failed
	// pipeline or a saturated LAKE is "degraded" (still 200 so pollers
	// keep scraping the detail), not "ok".
	status := "ok"
	for _, ps := range pipelines {
		if !ps.Healthy() {
			status = "degraded"
			break
		}
	}
	if status == "ok" && s.isOverloaded() {
		status = "degraded"
	}
	body := map[string]any{
		"status":    status,
		"log_docs":  s.f.Logs.Stats().Docs,
		"topics":    s.stream.Topics(),
		"pipelines": pipelines,
	}
	if e, ok := s.backend.(lakeEngine); ok {
		lake := e.Stats()
		body["lake_segments"] = lake.Segments
		body["lake_rows"] = lake.RawIngested
		body["lake_scan_load"] = e.ScanLoad()
	}
	if s.clusterHealth != nil {
		ch := s.clusterHealth()
		body["cluster"] = ch
		// A dead node with surviving replicas degrades the probe — the
		// cluster keeps serving, so the status must not scare pollers into
		// failing it over. Only unservable data (a leaderless partition, a
		// stripe with no live replica) reports down. Still 200 either way,
		// so scrapers keep reading the detail.
		switch ch.Status {
		case "down":
			body["status"] = "down"
		case "degraded":
			if status == "ok" {
				body["status"] = "degraded"
			}
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// pipelines reports every supervised pipeline's status: supervisor
// state, restart counts, breaker state, and job counters including
// retries and dead-lettered records.
func (s *Server) pipelines(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.f.Pipelines.Snapshot())
}

// serveQuery is how every LAKE read route answers, and the package's
// only call into the backend's engine: under overload the query is
// answered from the stale side of the backend's result cache when a prior
// result for the same shape exists (X-ODA-Stale: true) and shed with 503 +
// Retry-After otherwise; else it runs, the engine-cost headers go on, and
// emit writes the body. Metering, shedding and caching reach a route by
// its calling this, not by remembering to. So does the error split: only
// a query the engine calls malformed (tsdb.ErrBadQuery) is a 400; data the
// engine cannot reach right now (a transient fault, a stripe or partition
// with no live replica) is 503 "unavailable" + Retry-After — a retry may
// succeed — and any other engine failure is 500 "internal".
func (s *Server) serveQuery(w http.ResponseWriter, query tsdb.Query, emit func(*schema.Frame)) {
	if s.isOverloaded() {
		if e, ok := s.backend.(lakeEngine); ok {
			if fr, ok := e.CachedStale(query); ok {
				w.Header().Set("X-ODA-Stale", "true")
				s.shedStale.Inc()
				emit(fr)
				return
			}
		}
		s.shedReject.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "overloaded", "lake overloaded, retry later")
		return
	}
	frame, stats, err := s.backend.RunWithStats(query)
	if err != nil {
		status, category := http.StatusInternalServerError, "internal"
		switch {
		case errors.Is(err, tsdb.ErrBadQuery):
			status, category = http.StatusBadRequest, "bad-request"
		case resilience.IsTransient(err), errors.Is(err, cluster.ErrStripeDown), errors.Is(err, cluster.ErrPartitionDown):
			status, category = http.StatusServiceUnavailable, "unavailable"
		}
		s.writeError(w, status, category, err.Error())
		return
	}
	writeQueryStatHeaders(w, stats)
	emit(frame)
}

// parseWindow reads from/to query params (RFC3339); a missing pair
// defaults to the facility's schedule window. An inverted or empty
// window (from >= to) is rejected here, once, for every windowed route:
// letting it through used to silently produce an empty result set
// (or, on the shed path, a spurious 503) instead of telling the client
// its request can never match anything.
func (s *Server) parseWindow(r *http.Request) (time.Time, time.Time, error) {
	return windowParams(r, s.f.Opts.ScheduleFrom, s.f.Opts.ScheduleTo)
}

// windowParams overlays from/to request params on the given defaults and
// enforces the ordered-window contract, conflicting duplicates included.
// The prepared-query path reuses it with the window bound at prepare time
// as the default.
func windowParams(r *http.Request, from, to time.Time) (time.Time, time.Time, error) {
	q := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *time.Time
	}{{"from", &from}, {"to", &to}} {
		v, err := uniqueParam(q, p.name)
		if err != nil {
			return from, to, err
		}
		if v == "" {
			continue
		}
		if *p.dst, err = time.Parse(time.RFC3339, v); err != nil {
			return from, to, err
		}
	}
	if !to.After(from) {
		return from, to, fmt.Errorf("bad window: from %s is not before to %s",
			from.Format(time.RFC3339), to.Format(time.RFC3339))
	}
	return from, to, nil
}

// dimList splits a comma-separated dimension-value list, dropping empty
// elements (trailing or doubled commas). A non-empty parameter that
// yields no usable values is an error: the old behavior kept the empty
// strings as filter values that can never match, silently emptying the
// result set.
func dimList(param, v string) ([]string, error) {
	parts := strings.Split(v, ",")
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bad %s: no usable values in %q", param, v)
	}
	return out, nil
}

// uniqueParam returns the single value of a query parameter, rejecting
// conflicting duplicates (?agg=avg&agg=sum): Get silently taking the
// first one makes the request mean something the client didn't ask for.
// Repeating the same value is harmless and allowed.
func uniqueParam(q url.Values, name string) (string, error) {
	vals := q[name]
	if len(vals) == 0 {
		return "", nil
	}
	for _, v := range vals[1:] {
		if v != vals[0] {
			return "", fmt.Errorf("conflicting %s parameters: %q vs %q", name, vals[0], v)
		}
	}
	return vals[0], nil
}

// Bounds on accepted-but-absurd parameter values: a granularity that
// would cut the window into more than maxQueryBuckets time buckets, a
// log limit or top-n beyond any dashboard's appetite. Each is a client
// error worth a 400, not a request worth executing.
const (
	maxQueryBuckets = 1_000_000
	maxLogLimit     = 100_000
	maxTopN         = 100_000
)

var aggNames = map[string]tsdb.AggKind{
	"avg": tsdb.AggAvg, "sum": tsdb.AggSum, "min": tsdb.AggMin,
	"max": tsdb.AggMax, "count": tsdb.AggCount, "last": tsdb.AggLast,
}

// seriesPoint is one output row of a lake query.
type seriesPoint struct {
	Ts    time.Time         `json:"ts"`
	Dims  map[string]string `json:"dims,omitempty"`
	Value float64           `json:"value"`
}

// parseShape reads what a lake query and a standing query have in common
// — metric / component / groupby / granularity / agg, everything but the
// time range — for a query over a window that long, applying the full
// 400-contract once for the ad-hoc, prepared and continuous routes: empty
// filter values, non-positive or window-exploding granularities, unknown
// aggregations, and conflicting duplicate parameters are all rejected
// here. From and To are left zero.
func parseShape(q url.Values, window time.Duration) (tsdb.Query, error) {
	query := tsdb.Query{Filters: map[string][]string{}}
	for _, p := range []struct{ param, dim string }{
		{"metric", tsdb.DimMetric}, {"component", tsdb.DimComponent},
	} {
		v, err := uniqueParam(q, p.param)
		if err != nil {
			return query, err
		}
		if v == "" {
			continue
		}
		if query.Filters[p.dim], err = dimList(p.param, v); err != nil {
			return query, err
		}
	}
	g, err := uniqueParam(q, "granularity")
	if err != nil {
		return query, err
	}
	if g != "" {
		d, err := time.ParseDuration(g)
		if err != nil {
			return query, fmt.Errorf("bad granularity: %w", err)
		}
		if d <= 0 {
			return query, fmt.Errorf("bad granularity: %s is not positive", d)
		}
		if buckets := window / d; buckets > maxQueryBuckets {
			return query, fmt.Errorf("bad granularity: %s cuts the window into %d buckets (max %d)",
				d, buckets, maxQueryBuckets)
		}
		query.Granularity = d
	}
	a, err := uniqueParam(q, "agg")
	if err != nil {
		return query, err
	}
	if a != "" {
		kind, ok := aggNames[a]
		if !ok {
			return query, fmt.Errorf("unknown agg %s", a)
		}
		query.Agg = kind
	}
	gb, err := uniqueParam(q, "groupby")
	if err != nil {
		return query, err
	}
	if gb != "" {
		if query.GroupBy, err = dimList("groupby", gb); err != nil {
			return query, err
		}
	}
	return query, nil
}

// parseLakeQuery builds a tsdb.Query from lake-query request params: the
// window (inverted ones rejected) plus parseShape.
func (s *Server) parseLakeQuery(r *http.Request) (tsdb.Query, error) {
	from, to, err := s.parseWindow(r)
	if err != nil {
		return tsdb.Query{}, fmt.Errorf("bad from/to: %w", err)
	}
	query, err := parseShape(r.URL.Query(), to.Sub(from))
	query.From, query.To = from, to
	return query, err
}

// writeQueryStatHeaders attaches the engine-cost headers shared by the
// ad-hoc and prepared query paths (§VII dashboards watch their own query
// cost): cache state, scan volume, wall time, and tier federation ride
// along as headers so the JSON body stays stable for existing clients.
func writeQueryStatHeaders(w http.ResponseWriter, stats tsdb.QueryStats) {
	cache := "miss"
	if stats.CacheHit {
		cache = "hit"
	}
	w.Header().Set("X-ODA-Query-Cache", cache)
	w.Header().Set("X-ODA-Query-Cells-Scanned", strconv.FormatInt(stats.CellsScanned, 10))
	w.Header().Set("X-ODA-Query-Cells-Matched", strconv.FormatInt(stats.CellsMatched, 10))
	w.Header().Set("X-ODA-Query-Segments-Pruned", strconv.Itoa(stats.SegmentsPruned))
	w.Header().Set("X-ODA-Query-Workers", strconv.Itoa(stats.Workers))
	w.Header().Set("X-ODA-Query-Micros", strconv.FormatInt(stats.TotalWall.Microseconds(), 10))
	// Tier federation: which storage tiers answered, and how much cold
	// data the pruning metadata let the engine skip without decoding.
	tier := "hot"
	if stats.ColdSegmentsScanned+stats.ColdSegmentsPruned > 0 {
		tier = "hot+cold"
	}
	if stats.GlacierSegments > 0 {
		tier += "+glacier"
	}
	w.Header().Set("X-ODA-Query-Tier", tier)
	w.Header().Set("X-ODA-Query-Cold-Segments-Scanned", strconv.Itoa(stats.ColdSegmentsScanned))
	w.Header().Set("X-ODA-Query-Cold-Segments-Pruned", strconv.Itoa(stats.ColdSegmentsPruned))
	w.Header().Set("X-ODA-Query-RowGroups-Pruned", strconv.Itoa(stats.ColdRowGroupsPruned))
	w.Header().Set("X-ODA-Query-Glacier-Pending", strconv.Itoa(stats.GlacierPending))
	w.Header().Set("X-ODA-Query-Recall-Wait-Ms", strconv.FormatInt(stats.RecallWait.Milliseconds(), 10))
}

func (s *Server) lakeQuery(w http.ResponseWriter, r *http.Request) {
	query, err := s.parseLakeQuery(r)
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	s.serveQuery(w, query, func(fr *schema.Frame) {
		writeJSON(w, http.StatusOK, framePoints(fr, query.GroupBy))
	})
}

// framePoints flattens a query result frame into the JSON series shape.
func framePoints(frame *schema.Frame, groupBy []string) []seriesPoint {
	out := make([]seriesPoint, 0, frame.Len())
	sch := frame.Schema()
	vi := sch.MustIndex("value")
	for i := 0; i < frame.Len(); i++ {
		row := frame.Row(i)
		p := seriesPoint{Ts: row[0].TimeVal(), Value: row[vi].FloatVal()}
		if len(groupBy) > 0 {
			p.Dims = map[string]string{}
			for _, d := range groupBy {
				p.Dims[d] = row[sch.MustIndex(d)].StrVal()
			}
		}
		out = append(out, p)
	}
	return out
}

func (s *Server) lakeTopN(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, to, err := s.parseWindow(r)
	if err != nil {
		s.badRequest(w, "bad from/to: "+err.Error())
		return
	}
	metric, err := uniqueParam(q, "metric")
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	if metric == "" {
		s.badRequest(w, "metric is required")
		return
	}
	metrics, err := dimList("metric", metric)
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	v, err := uniqueParam(q, "n")
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	n := 10
	if v != "" {
		if n, err = strconv.Atoi(v); err != nil || n <= 0 || n > maxTopN {
			s.badRequest(w, "bad n: want an integer in [1,"+strconv.Itoa(maxTopN)+"]")
			return
		}
	}
	query, err := tsdb.TopNQuery(tsdb.Query{
		From: from, To: to,
		Filters: map[string][]string{tsdb.DimMetric: metrics},
		Agg:     tsdb.AggAvg,
	}, tsdb.DimComponent)
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	s.serveQuery(w, query, func(fr *schema.Frame) {
		writeJSON(w, http.StatusOK, tsdb.TopNOf(fr, n))
	})
}

type logHit struct {
	Ts       time.Time `json:"ts"`
	Host     string    `json:"host"`
	Severity string    `json:"severity"`
	Message  string    `json:"message"`
}

func (s *Server) logsSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, to, err := s.parseWindow(r)
	if err != nil {
		s.badRequest(w, "bad from/to: "+err.Error())
		return
	}
	lq := logsearch.Query{Severity: q.Get("severity"), Host: q.Get("host"), From: from, To: to}
	if terms := q.Get("q"); terms != "" {
		lq.Terms = strings.Fields(terms)
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > maxLogLimit {
			s.badRequest(w, "bad limit: want an integer in [1,"+strconv.Itoa(maxLogLimit)+"]")
			return
		}
		lq.Limit = n
	}
	hits := s.f.Logs.Search(lq)
	out := make([]logHit, 0, len(hits))
	for _, e := range hits {
		out = append(out, logHit{Ts: e.Ts, Host: e.Host, Severity: e.Severity, Message: e.Message})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) ratsPrograms(w http.ResponseWriter, r *http.Request) {
	from, to, err := s.parseWindow(r)
	if err != nil {
		s.badRequest(w, "bad from/to: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.f.Rats.ByProgram(from, to))
}

func (s *Server) datasets(w http.ResponseWriter, r *http.Request) {
	type ds struct {
		Name  string `json:"name"`
		Stage string `json:"stage"`
		Rows  int64  `json:"rows"`
		Bytes int64  `json:"bytes"`
	}
	var out []ds
	for _, d := range s.f.Datasets.List() {
		out = append(out, ds{Name: d.Name, Stage: d.Stage.String(), Rows: d.Rows, Bytes: d.Bytes})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) governanceRequests(w http.ResponseWriter, r *http.Request) {
	type req struct {
		ID        string `json:"id"`
		Requester string `json:"requester"`
		Kind      string `json:"kind"`
		Status    string `json:"status"`
		ReleaseID string `json:"release_id,omitempty"`
	}
	var out []req
	for _, g := range s.f.DataRUC.List() {
		out = append(out, req{
			ID: g.ID, Requester: g.Requester, Kind: g.Kind.String(),
			Status: g.Status.String(), ReleaseID: g.ReleaseID,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.f.Sched.Job(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not-found", "no such job "+id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": j.ID, "user": j.User, "project": j.Project, "program": j.Program,
		"nodes": j.Nodes, "state": j.State.String(),
		"submit": j.Submit, "start": j.Start, "end": j.End,
		"node_list": j.NodeList,
	})
}

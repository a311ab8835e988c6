package httpapi

// Continuous queries (§VII dashboards without the re-scan):
//
//	POST   /api/v1/cq?name=&metric=&component=&groupby=&agg=&granularity=&window=&kind=&above=&below=&maxscore=&season=
//	GET    /api/v1/cq
//	GET    /api/v1/cq/{id}
//	GET    /api/v1/cq/{id}/watch        (SSE with Accept: text/event-stream, long-poll otherwise)
//	GET    /api/v1/cq/{id}/alerts
//	DELETE /api/v1/cq/{id}
//
// Registration is content-addressed and idempotent: POSTing the same
// query shape twice (from any client) returns the same view ID with its
// accumulated window intact. Reads are O(window) folds over in-memory
// cells — they never touch the LAKE, never take a scan slot, and report
// no X-ODA-Query-Cells-Scanned, so the gateway's scan-budget metering
// and admission gate both pass them through untouched even for tenants
// whose batch-query budget is exhausted.
//
// Every read-shaped response carries the view position as headers, set
// strictly before the first body write (see the streaming-header
// contract on writeQueryStatHeaders): X-ODA-CQ-Gen, X-ODA-CQ-Watermark,
// X-ODA-CQ-Window-From/-To, X-ODA-CQ-Cells, and X-ODA-CQ-Cache.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"odakit/internal/cq"
	"odakit/internal/tsdb"
)

const (
	// cqLongPollDefault / cqLongPollMax bound the ?wait= long-poll hold.
	cqLongPollDefault = 30 * time.Second
	cqLongPollMax     = 2 * time.Minute
)

// aggName reverses aggNames for response bodies.
func aggName(k tsdb.AggKind) string {
	for name, kind := range aggNames {
		if kind == k {
			return name
		}
	}
	return "avg"
}

// cqInfo is the registration / listing echo of a standing query.
type cqInfo struct {
	ID          string              `json:"id"`
	Name        string              `json:"name,omitempty"`
	Window      string              `json:"window"`
	Kind        string              `json:"kind"`
	Granularity string              `json:"granularity,omitempty"`
	Agg         string              `json:"agg"`
	GroupBy     []string            `json:"groupby,omitempty"`
	Filters     map[string][]string `json:"filters,omitempty"`
	Alert       *cq.AlertSpec       `json:"alert,omitempty"`
}

func viewInfo(v *cq.View) cqInfo {
	info := cqInfo{
		ID: v.ID, Name: v.Spec.Name,
		Window: v.Spec.Window.String(), Kind: v.Spec.Kind.String(),
		Agg: aggName(v.Spec.Agg), GroupBy: v.Spec.GroupBy, Filters: v.Spec.Filters,
		Alert: v.Spec.Alert,
	}
	if v.Spec.Granularity > 0 {
		info.Granularity = v.Spec.Granularity.String()
	}
	return info
}

// parseCQSpec builds a cq.Spec from request params: name, window, the
// query shape under the lake query's own 400-contract (parseShape), then
// the window kind and the alert thresholds.
func parseCQSpec(r *http.Request) (cq.Spec, error) {
	q := r.URL.Query()
	var spec cq.Spec
	var err error
	if spec.Name, err = uniqueParam(q, "name"); err != nil {
		return spec, err
	}
	win, err := uniqueParam(q, "window")
	if err != nil {
		return spec, err
	}
	if win == "" {
		return spec, fmt.Errorf("window is required")
	}
	if spec.Window, err = time.ParseDuration(win); err != nil {
		return spec, fmt.Errorf("bad window: %w", err)
	}
	sh, err := parseShape(q, spec.Window)
	if err != nil {
		return spec, err
	}
	spec.Filters, spec.GroupBy, spec.Granularity, spec.Agg = sh.Filters, sh.GroupBy, sh.Granularity, sh.Agg
	switch k, err := uniqueParam(q, "kind"); {
	case err != nil:
		return spec, err
	case k == "" || k == "sliding":
	case k == "tumbling":
		spec.Kind = cq.WindowTumbling
	default:
		return spec, fmt.Errorf("unknown kind %q (want sliding or tumbling)", k)
	}
	alert := &cq.AlertSpec{}
	hasAlert := false
	for _, p := range []struct {
		param string
		dst   **float64
	}{{"above", &alert.Above}, {"below", &alert.Below}} {
		v, err := uniqueParam(q, p.param)
		if err != nil {
			return spec, err
		}
		if v == "" {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return spec, fmt.Errorf("bad %s: %w", p.param, err)
		}
		*p.dst = &f
		hasAlert = true
	}
	if v, err := uniqueParam(q, "maxscore"); err != nil {
		return spec, err
	} else if v != "" {
		if alert.MaxScore, err = strconv.ParseFloat(v, 64); err != nil {
			return spec, fmt.Errorf("bad maxscore: %w", err)
		}
		hasAlert = true
	}
	if v, err := uniqueParam(q, "season"); err != nil {
		return spec, err
	} else if v != "" {
		if alert.Season, err = strconv.Atoi(v); err != nil {
			return spec, fmt.Errorf("bad season: %w", err)
		}
		hasAlert = true
	}
	if hasAlert {
		spec.Alert = alert
	}
	return spec, nil
}

func (s *Server) cqRegister(w http.ResponseWriter, r *http.Request) {
	spec, err := parseCQSpec(r)
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	v, err := s.f.CQ.Register(spec)
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, viewInfo(v))
}

func (s *Server) cqList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.f.CQ.Stats())
}

// cqView resolves {id} or answers 404.
func (s *Server) cqView(w http.ResponseWriter, r *http.Request) (*cq.View, bool) {
	id := r.PathValue("id")
	v, ok := s.f.CQ.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not-found", "no such continuous query "+id)
	}
	return v, ok
}

// writeCQHeaders attaches the view-position headers. Like every X-ODA-*
// header they MUST be set before the first body write: on flushed
// streaming responses anything set later never reaches the wire.
func writeCQHeaders(w http.ResponseWriter, info cq.WindowInfo) {
	h := w.Header()
	h.Set("X-ODA-CQ-Gen", strconv.FormatUint(info.Gen, 10))
	cache := "miss"
	if info.CacheHit {
		cache = "hit"
	}
	h.Set("X-ODA-CQ-Cache", cache)
	h.Set("X-ODA-CQ-Cells", strconv.FormatInt(info.Cells, 10))
	if !info.Watermark.IsZero() {
		h.Set("X-ODA-CQ-Watermark", info.Watermark.Format(time.RFC3339Nano))
		h.Set("X-ODA-CQ-Window-From", info.From.Format(time.RFC3339Nano))
		h.Set("X-ODA-CQ-Window-To", info.To.Format(time.RFC3339Nano))
	}
}

// writeCQWindow answers with the view's current window: read, position
// headers, points — the tail of a plain read and of a long-poll.
func (s *Server) writeCQWindow(w http.ResponseWriter, v *cq.View) {
	frame, info := v.Read()
	writeCQHeaders(w, info)
	s.writeSeries(w, frame, v.Spec.GroupBy)
}

func (s *Server) cqRead(w http.ResponseWriter, r *http.Request) {
	if v, ok := s.cqView(w, r); ok {
		s.writeCQWindow(w, v)
	}
}

func (s *Server) cqAlerts(w http.ResponseWriter, r *http.Request) {
	v, ok := s.cqView(w, r)
	if !ok {
		return
	}
	alerts := v.Alerts()
	out := make([]alertEntry, len(alerts))
	for i := range alerts {
		a := &alerts[i]
		out[i] = alertEntry{Alert: *a, Value: finiteOrNil(&a.Value), Score: finiteOrNil(&a.Score)}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// alertEntry is cq.Alert on the wire, a non-finite value or score null.
type alertEntry struct {
	cq.Alert
	Value *float64 `json:"value"`
	Score *float64 `json:"score"`
}

func (s *Server) cqUnregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.f.CQ.Unregister(id) {
		s.writeError(w, http.StatusNotFound, "not-found", "no such continuous query "+id)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

// cqWatch pushes view updates: Server-Sent Events when the client
// accepts text/event-stream, a single long-poll exchange otherwise.
func (s *Server) cqWatch(w http.ResponseWriter, r *http.Request) {
	v, ok := s.cqView(w, r)
	if !ok {
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.cqWatchSSE(w, r, v)
		return
	}
	s.cqLongPoll(w, r, v)
}

// cqWatchSSE streams one `update` event per view generation until the
// client disconnects (or ?count= events have been sent — handy for curl
// demos and tests). Wakeups are edge-triggered and coalescing: a burst
// of applies between two sends collapses into one event carrying the
// latest state, so a slow consumer sees fresh data, not a backlog.
func (s *Server) cqWatchSSE(w http.ResponseWriter, r *http.Request, v *cq.View) {
	count := 0
	c, err := uniqueParam(r.URL.Query(), "count")
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	if c != "" {
		n, err := strconv.Atoi(c)
		if err != nil || n <= 0 {
			s.badRequest(w, "bad count: want a positive integer")
			return
		}
		count = n
	}
	ch, cancel := v.Subscribe()
	defer cancel()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	sent := 0
	var lastGen uint64
	emit := func() bool {
		frame, info := v.Read()
		if sent > 0 && info.Gen == lastGen {
			return true // coalesced wakeup, nothing new
		}
		lastGen = info.Gen
		data, err := appendUpdate(seriesBuffer(frame.Len()), v.ID, info, v.Stats().Alerts, frame, v.Spec.GroupBy)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: update\nid: %d\ndata: %s\n\n", info.Gen, data); err != nil {
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		sent++
		return true
	}
	if !emit() { // current state first, so late subscribers start full
		return
	}
	for count == 0 || sent < count {
		select {
		case <-r.Context().Done():
			return
		case <-ch:
			if !emit() {
				return
			}
		}
	}
}

// cqLongPoll holds the request until the view advances past ?gen= (or
// ?wait= elapses), then answers exactly like a plain read. A client
// loops: read, then long-poll with the last gen it saw.
func (s *Server) cqLongPoll(w http.ResponseWriter, r *http.Request, v *cq.View) {
	q := r.URL.Query()
	g, err := uniqueParam(q, "gen")
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	ws, err := uniqueParam(q, "wait")
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	var since uint64
	if g != "" {
		n, err := strconv.ParseUint(g, 10, 64)
		if err != nil {
			s.badRequest(w, "bad gen: want an unsigned integer")
			return
		}
		since = n
	}
	wait := cqLongPollDefault
	if ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d <= 0 {
			s.badRequest(w, "bad wait: want a positive duration")
			return
		}
		if d > cqLongPollMax {
			d = cqLongPollMax
		}
		wait = d
	}
	if g != "" && v.Gen() == since {
		ch, cancel := v.Subscribe()
		defer cancel()
		timer := time.NewTimer(wait)
		defer timer.Stop()
		for v.Gen() == since {
			select {
			case <-r.Context().Done():
				return
			case <-timer.C:
				w.Header().Set("X-ODA-CQ-Timeout", "true")
				goto answer
			case <-ch:
			}
		}
	}
answer:
	s.writeCQWindow(w, v)
}

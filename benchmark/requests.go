package main

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// reqSpec is one dashboard or scan request: the URL the client sends and
// the engine query it amounts to, so a sampled request can be replayed
// one layer at a time.
type reqSpec struct {
	kind  string // mix class: cq, prepared, topn, adhoc, filtered, grouped, hot, repeat
	route string // cq_read, lake_query, prepared_query, lake_topn
	base  string // path and every parameter but the window
	q     query  // zero From/To for routes without a window (cq_read)
}

// path renders the request with its window shifted by shift. Shifting a
// replay by a second or two changes its cache fingerprint and nothing
// about its cost, so a replay never rides on the result its original
// just cached.
func (r reqSpec) path(shift time.Duration) string {
	if r.q.From.IsZero() {
		return r.base
	}
	sep := "&"
	if !strings.Contains(r.base, "?") {
		sep = "?"
	}
	return r.base + sep + "from=" + r.q.From.Add(shift).Format(time.RFC3339) +
		"&to=" + r.q.To.Add(shift).Format(time.RFC3339)
}

func (r reqSpec) shifted(shift time.Duration) query {
	q := r.q
	q.From, q.To = q.From.Add(shift), q.To.Add(shift)
	return q
}

func lakeQueryReq(kind string, q query, gran string) reqSpec {
	v := url.Values{}
	if m := q.Filters["metric"]; len(m) > 0 {
		v.Set("metric", strings.Join(m, ","))
	}
	if c := q.Filters["component"]; len(c) > 0 {
		v.Set("component", strings.Join(c, ","))
	}
	if len(q.GroupBy) > 0 {
		v.Set("groupby", strings.Join(q.GroupBy, ","))
	}
	v.Set("granularity", gran)
	v.Set("agg", aggName(q.Agg))
	return reqSpec{kind: kind, route: "lake_query", base: "/api/v1/lake/query?" + v.Encode(), q: q}
}

// layerSamples collects, per route, what the sampled replays measured.
type layerSamples struct {
	handler               map[string]*sample // bare httpapi handler, by route (ms)
	wire, gwOverhead      *sample            // per-request differences (ms)
	engine                *sample            // direct engine calls (ms)
	engineHot, engineCold *sample
	coldWall, scanWall    *sample
	mergeWall, emitWall   *sample
	viewHot, viewFold     *sample
	respBytes             *sample // bytes, one per replay
	rgScanned, rgPruned   float64 // cold row groups, summed over engine calls
}

func newLayerSamples() *layerSamples {
	return &layerSamples{
		handler: map[string]*sample{},
		wire:    &sample{}, gwOverhead: &sample{}, engine: &sample{},
		engineHot: &sample{}, engineCold: &sample{},
		coldWall: &sample{}, scanWall: &sample{}, mergeWall: &sample{}, emitWall: &sample{},
		viewHot: &sample{}, viewFold: &sample{}, respBytes: &sample{},
	}
}

func routeSample(m map[string]*sample, route string) *sample {
	s := m[route]
	if s == nil {
		s = &sample{}
		m[route] = s
	}
	return s
}

// replayLayers peels one request: the same request is timed again on
// the socket, then in-process against the gateway, against the bare
// httpapi handler, and as the bare engine call — each on its own shifted
// window so none is served from a cache the previous one filled. The
// differences are the wire, gateway and httpapi self times; the spans
// are recorded nested (socket ⊃ gateway ⊃ httpapi ⊃ engine) so the
// trace's self-time arithmetic yields the same numbers.
func replayLayers(p *plane, c *httpClient, r reqSpec, ls *layerSamples, tr *tracer, req int) error {
	const step = time.Second
	start := time.Now()
	resp, err := c.get(r.path(1 * step))
	if err != nil {
		return err
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("replay %s: status %d", r.route, resp.status)
	}
	sock := resp.latency

	t := time.Now()
	rec := serveInProcess(p.gwHandler(), r.path(2*step))
	gw := time.Since(t)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replay %s in-process gateway: status %d", r.route, rec.Code)
	}

	t = time.Now()
	rec = serveInProcess(p.apiHandler(), r.path(3*step))
	api := time.Since(t)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replay %s in-process handler: status %d", r.route, rec.Code)
	}

	var eng time.Duration
	switch {
	case r.route == "cq_read":
		t = time.Now()
		_, _, hot := readView(p.view)
		eng = time.Since(t)
		if hot {
			ls.viewHot.add(eng)
		} else {
			ls.viewFold.add(eng)
		}
	case r.route == "lake_query" || r.route == "prepared_query":
		t = time.Now()
		_, st, err := p.run(r.shifted(4 * step))
		eng = time.Since(t)
		if err != nil {
			return fmt.Errorf("replay %s engine: %w", r.route, err)
		}
		ls.engine.add(eng)
		if st.ColdSegmentsScanned > 0 {
			ls.engineCold.add(eng)
		} else {
			ls.engineHot.add(eng)
		}
		ls.coldWall.add(st.ColdWall)
		ls.scanWall.add(st.ScanWall)
		ls.mergeWall.add(st.MergeWall)
		ls.emitWall.add(st.EmitWall)
		ls.rgScanned += float64(st.ColdRowGroupsScanned)
		ls.rgPruned += float64(st.ColdRowGroupsPruned)
	}

	routeSample(ls.handler, r.route).add(api)
	ls.wire.add(sock - gw)
	ls.gwOverhead.add(gw - api)
	ls.respBytes.addValue(float64(rec.Body.Len()))

	s := tr.add("wire", start, sock, -1, req)
	g := tr.add("gateway", start, gw, s, req)
	h := tr.add("httpapi."+r.route, start, api, g, req)
	if eng > 0 {
		tr.add("engine."+r.route, start, eng, h, req)
	}
	return nil
}

// reportHTTPLayers fills the httpapi / gateway / wire / engine metrics.
func reportHTTPLayers(m metricSet, ls *layerSamples) {
	lake := &sample{}
	for _, route := range []string{"lake_query", "prepared_query"} {
		if s := ls.handler[route]; s != nil {
			lake.extend(s)
		}
	}
	if lake.n() > 0 {
		m.set("httpapi.lake_query_ms_p50", lake.p50())
	}
	if s := ls.handler["cq_read"]; s != nil {
		m.set("httpapi.cq_read_ms_p50", s.p50())
	}
	if s := ls.handler["lake_topn"]; s != nil {
		m.set("httpapi.topn_ms_p50", s.p50())
	}
	if ls.respBytes.n() > 0 {
		m.set("httpapi.response_bytes_p50", ls.respBytes.p50())
	}
	if ls.gwOverhead.n() > 0 {
		m.set("gateway.overhead_us_p50", ls.gwOverhead.p50()*1000)
		m.set("wire.overhead_us_p50", ls.wire.p50()*1000)
	}
	if ls.viewHot.n() > 0 {
		m.set("cq.read_hot_ns", ls.viewHot.p50()*1e6)
	}
	if ls.viewFold.n() > 0 {
		m.set("cq.read_fold_ms", ls.viewFold.p50())
	}
}

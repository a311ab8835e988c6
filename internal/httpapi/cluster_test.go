package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"odakit/internal/cluster"
	"odakit/internal/core"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// servedPlane is one facility behind the portal with the seeded window
// ingested into whatever plane it runs on and a CQ view pumped from it.
type servedPlane struct {
	f      *core.Facility
	api    *Server
	srv    *httptest.Server
	viewID string
}

// servePlane builds the seeded facility, lets attach move it onto another
// plane (nil keeps its own Broker + Lake), registers a standing query
// over HTTP, ingests one minute of power telemetry and drains the CQ
// pump — the odaserve composition order: attach, ingest, pump, serve.
func servePlane(t *testing.T, attach func(*core.Facility)) servedPlane {
	t.Helper()
	sys := telemetry.FrontierLike(17).Scaled(8)
	sys.LossRate = 0
	f, err := core.NewFacility(core.Options{
		System: sys, WorkloadSeed: 17,
		ScheduleFrom: t0.Add(-time.Hour), ScheduleTo: t0.Add(2 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if attach != nil {
		attach(f)
	}
	api := New(f)
	srv := httptest.NewServer(api)
	t.Cleanup(func() { srv.Close(); f.Close() })

	resp, err := http.Post(srv.URL+"/api/v1/cq?window=5m&metric=node_power_w&groupby=component&granularity=15s&agg=avg&name=power", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if err != nil || reg.ID == "" {
		t.Fatalf("cq register: status %d id %q err %v", resp.StatusCode, reg.ID, err)
	}
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	cqDrain(t, f)
	return servedPlane{f: f, api: api, srv: srv, viewID: reg.ID}
}

// serveClusteredPlane is servePlane on a 3-node RF=2 cluster.
func serveClusteredPlane(t *testing.T) (servedPlane, *cluster.Cluster) {
	t.Helper()
	var c *cluster.Cluster
	p := servePlane(t, func(f *core.Facility) {
		var err error
		c, err = cluster.New([]string{"n1", "n2", "n3"}, cluster.Config{
			RF: 2, LakeOptions: tsdb.Options{RollupInterval: f.Opts.SilverWindow},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AttachPlane(c, c); err != nil {
			t.Fatal(err)
		}
	})
	return p, c
}

// urls are the plane-served reads that must not depend on the plane.
func (p servedPlane) urls() map[string]string {
	from, to := t0.Format(time.RFC3339), t0.Add(time.Minute).Format(time.RFC3339)
	return map[string]string{
		"lake/query": fmt.Sprintf("%s/api/v1/lake/query?metric=node_power_w&agg=avg&granularity=15s&groupby=component&from=%s&to=%s", p.srv.URL, from, to),
		"lake/topn":  fmt.Sprintf("%s/api/v1/lake/topn?metric=node_power_w&n=5&from=%s&to=%s", p.srv.URL, from, to),
		"cq view":    p.srv.URL + "/api/v1/cq/" + p.viewID,
	}
}

func httpBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// TestClusterBackedServing ingests the same seeded window into a
// facility on its own plane and into one attached to a 3-node RF=2
// cluster, and requires every plane-served read — lake query, top-N, the
// CQ view — to be byte-identical over HTTP. The clustered facility's own
// broker and lake must stay empty (telemetry lands once, in the plane)
// and /healthz must list the serving plane's topics and omit the lake_*
// fields only a single engine can report. Then a node dies:
// /healthz degrades (not down) while the survivors keep answering with
// the same bytes, and repair after restart returns the probe to ok.
func TestClusterBackedServing(t *testing.T) {
	local := servePlane(t, nil)
	clustered, c := serveClusteredPlane(t)
	clusterOnly := "probe.cluster-only"
	if err := c.EnsureTopic(clusterOnly, stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}

	want := map[string]string{}
	for name, url := range local.urls() {
		want[name] = httpBody(t, url)
	}
	for _, name := range []string{"lake/query", "lake/topn", "cq view"} {
		if want[name] == "" || want[name] == "[]\n" {
			t.Fatalf("local %s served nothing: %q", name, want[name])
		}
	}
	requireIdentical := func(when string) {
		t.Helper()
		for name, url := range clustered.urls() {
			if got := httpBody(t, url); got != want[name] {
				t.Fatalf("%s: clustered %s diverged from the local plane\nlocal:   %s\ncluster: %s", when, name, want[name], got)
			}
		}
	}
	requireIdentical("full cluster")

	// Ingest went straight into the cluster: nothing was stored twice.
	topic := core.BronzeTopic(telemetry.SourcePowerTemp)
	var committed int64
	for p := 0; p < core.TopicPartitions; p++ {
		if end, err := clustered.f.Broker.EndOffset(topic, p); err != nil || end != 0 {
			t.Fatalf("clustered facility's own broker holds %s/%d end=%d err=%v, want empty", topic, p, end, err)
		}
		end, err := c.EndOffset(topic, p)
		if err != nil {
			t.Fatal(err)
		}
		committed += end
	}
	if rows := clustered.f.Lake.Stats().RawIngested; rows != 0 || committed == 0 {
		t.Fatalf("clustered facility: own lake rows=%d (want 0), cluster committed=%d (want > 0)", rows, committed)
	}

	health := func() map[string]any {
		t.Helper()
		var h map[string]any
		if code := getJSON(t, clustered.srv.URL+"/healthz", &h); code != 200 {
			t.Fatalf("healthz status = %d", code)
		}
		return h
	}
	// Health is asked of the backend that answers: the facility's own
	// engine reports its rows, the cluster (no one engine) reports no
	// lake_* field at all — not the idle facility lake's zeros — and is
	// not judged overloaded by it either.
	var lh map[string]any
	if code := getJSON(t, local.srv.URL+"/healthz", &lh); code != 200 || lh["lake_rows"].(float64) <= 0 || lh["lake_segments"].(float64) <= 0 {
		t.Fatalf("local healthz = %v (code %d), want its lake's rows and segments", lh, code)
	}
	ch0 := health()
	for _, k := range []string{"lake_rows", "lake_segments"} {
		if v, ok := ch0[k]; ok {
			t.Fatalf("clustered healthz reports %s = %v: that is the facility's own empty lake", k, v)
		}
	}
	if ch0["status"] != "ok" {
		t.Fatalf("clustered healthz status = %v", ch0["status"])
	}
	// No cluster health merged yet: the probe still reports the serving
	// plane's topics, including one the local broker never saw.
	var topics []string
	for _, v := range ch0["topics"].([]any) {
		topics = append(topics, v.(string))
	}
	if !reflect.DeepEqual(topics, c.Topics()) {
		t.Fatalf("healthz topics = %v, want the cluster's %v", topics, c.Topics())
	}
	hasBronze, hasProbe := false, false
	for _, name := range topics {
		hasBronze = hasBronze || name == topic
		hasProbe = hasProbe || name == clusterOnly
	}
	if !hasBronze || !hasProbe {
		t.Fatalf("healthz topics %v miss %s or %s", topics, topic, clusterOnly)
	}

	clustered.api.SetClusterHealth(c.Health)
	if h := health(); h["status"] != "ok" {
		t.Fatalf("health with full cluster = %v", h["status"])
	}

	if err := c.Kill("n2"); err != nil {
		t.Fatal(err)
	}
	h := health()
	if h["status"] != "degraded" {
		t.Fatalf("health after node death = %v, want degraded", h["status"])
	}
	ch, ok := h["cluster"].(map[string]any)
	if !ok || ch["nodes_alive"].(float64) != 2 {
		t.Fatalf("cluster health detail missing or wrong: %v", h["cluster"])
	}
	// Degraded means still serving: the surviving replicas answer with
	// the same bytes.
	requireIdentical("one node dead")

	if err := c.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	if h := health(); h["status"] != "ok" {
		b, _ := json.Marshal(h)
		t.Fatalf("health after repair = %s", b)
	}
	requireIdentical("repaired")
}

// TestClusterShedIsRejected: a clustered backend keeps no result cache
// of its own, so a query the gateway sheds has no stale answer even for
// a shape the cluster just served: 503 + Retry-After + overloaded.
func TestClusterShedIsRejected(t *testing.T) {
	clustered, _ := serveClusteredPlane(t)
	query := clustered.urls()["lake/query"]
	httpBody(t, query)
	gw := anonymousGateway(t, clustered.api, clustered.f.Obs)
	resp, err := http.Get(gw.URL + strings.TrimPrefix(query, clustered.srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	requireOverloaded(t, "shed query on the cluster", resp)
}

// TestClusterStripeDownIsUnavailable: with two of three RF=2 nodes dead
// some stripe has no live in-sync replica, so the scatter cannot answer.
// That is the engine's failure, not the client's: every read route —
// ad-hoc, top-N, prepared — must say 503 "unavailable" + Retry-After (a
// dashboard backs off and retries) instead of 400 "bad-request", count it
// under its category, and answer 200 again once the nodes are back and
// repaired.
func TestClusterStripeDownIsUnavailable(t *testing.T) {
	clustered, c := serveClusteredPlane(t)
	window := "from=" + url.QueryEscape(t0.Format(time.RFC3339)) + "&to=" + url.QueryEscape(t0.Add(time.Minute).Format(time.RFC3339))
	shape := "metric=node_power_w&agg=max&granularity=30s&groupby=component&" + window
	prep := postPrepare(t, clustered.srv.URL, shape)
	routes := map[string]string{
		"lake/query":  clustered.srv.URL + "/api/v1/lake/query?" + shape,
		"lake/topn":   clustered.srv.URL + "/api/v1/lake/topn?metric=node_power_w&n=3&" + window,
		"query?prep=": clustered.srv.URL + "/api/v1/query?prep=" + prep.Handle,
	}
	requireOK := func(when string) {
		t.Helper()
		for name, u := range routes {
			if resp, body := getRaw(t, u); resp.StatusCode != 200 {
				t.Fatalf("%s: %s = %d: %s", when, name, resp.StatusCode, body)
			}
		}
	}
	requireOK("full cluster")

	for _, id := range []string{"n2", "n3"} {
		if err := c.Kill(id); err != nil {
			t.Fatal(err)
		}
	}
	for name, u := range routes {
		resp, body := getRaw(t, u)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("X-ODA-Error") != "unavailable" || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s with a stripe down = %d, X-ODA-Error %q, Retry-After %q, body %s; want 503 / unavailable / a Retry-After",
				name, resp.StatusCode, resp.Header.Get("X-ODA-Error"), resp.Header.Get("Retry-After"), body)
		}
	}
	if _, metrics := getRaw(t, clustered.srv.URL+"/metrics"); !strings.Contains(string(metrics), `oda_http_errors_total{category="unavailable"} 3`) {
		t.Fatalf("/metrics does not count the three unavailable answers:\n%s", metrics)
	}
	for _, id := range []string{"n2", "n3"} {
		if err := c.Restart(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	requireOK("repaired")
	// A query the engine itself calls malformed is still the client's.
	if resp, _ := getRaw(t, clustered.srv.URL+"/api/v1/lake/query?metric=node_power_w&groupby=nonsense&"+window); resp.StatusCode != http.StatusBadRequest || resp.Header.Get("X-ODA-Error") != "bad-request" {
		t.Fatalf("unknown group-by dimension = %d / %q, want 400 / bad-request", resp.StatusCode, resp.Header.Get("X-ODA-Error"))
	}
}

// failingLake is a query backend whose engine always fails with err.
type failingLake struct {
	plane.Lake
	err error
}

func (l failingLake) RunWithStats(tsdb.Query) (*schema.Frame, tsdb.QueryStats, error) {
	return nil, tsdb.QueryStats{}, l.err
}

// TestQueryErrorCategories pins serveQuery's split of engine failures:
// malformed → 400, cannot answer right now → 503 + Retry-After, anything
// else → 500.
func TestQueryErrorCategories(t *testing.T) {
	p := servePlane(t, nil)
	u := p.urls()["lake/query"]
	for _, tc := range []struct {
		err      error
		status   int
		category string
	}{
		{fmt.Errorf("%w: empty time range", tsdb.ErrBadQuery), 400, "bad-request"},
		{resilience.MarkTransient(errors.New("node n2: link down")), 503, "unavailable"},
		{fmt.Errorf("%w: bronze/3", cluster.ErrPartitionDown), 503, "unavailable"},
		{errors.New("objstore: get lake/seg-7: checksum mismatch"), 500, "internal"},
	} {
		p.api.SetQueryBackend(failingLake{err: tc.err})
		resp, body := getRaw(t, u)
		if resp.StatusCode != tc.status || resp.Header.Get("X-ODA-Error") != tc.category ||
			(resp.Header.Get("Retry-After") != "") != (tc.status == 503) {
			t.Fatalf("engine error %q = %d / %q / Retry-After %q (%s), want %d / %q", tc.err, resp.StatusCode,
				resp.Header.Get("X-ODA-Error"), resp.Header.Get("Retry-After"), body, tc.status, tc.category)
		}
	}
}

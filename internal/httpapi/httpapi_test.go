package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"odakit/internal/core"
	"odakit/internal/governance"
	"odakit/internal/schema"
	"odakit/internal/telemetry"
)

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func testServer(t *testing.T) (*httptest.Server, *core.Facility) {
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
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(f))
	t.Cleanup(func() { srv.Close(); f.Close() })
	return srv, f
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	var h map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &h); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if h["status"] != "ok" || h["lake_rows"].(float64) == 0 {
		t.Fatalf("health = %v", h)
	}
}

func TestLakeQuery(t *testing.T) {
	srv, _ := testServer(t)
	url := fmt.Sprintf("%s/api/v1/lake/query?metric=node_power_w&agg=avg&granularity=15s&from=%s&to=%s",
		srv.URL, t0.Format(time.RFC3339), t0.Add(time.Minute).Format(time.RFC3339))
	var pts []struct {
		Ts    time.Time `json:"ts"`
		Value float64   `json:"value"`
	}
	if code := getJSON(t, url, &pts); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(pts) != 4 { // 1 min / 15 s
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Value <= 0 {
			t.Fatalf("value = %v", p.Value)
		}
	}
	// Group-by variant carries dims.
	url = fmt.Sprintf("%s/api/v1/lake/query?metric=node_power_w&agg=avg&groupby=component&from=%s&to=%s",
		srv.URL, t0.Format(time.RFC3339), t0.Add(time.Minute).Format(time.RFC3339))
	var grouped []struct {
		Dims map[string]string `json:"dims"`
	}
	if code := getJSON(t, url, &grouped); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(grouped) != 8 || grouped[0].Dims["component"] == "" {
		t.Fatalf("grouped = %+v", grouped)
	}
}

// TestLakeQueryTierHeaders drives a query before and after the lake's
// only chunk is offloaded to the OCEAN tier and checks the federation
// headers: tier attribution flips from hot to hot+cold, cold scan and
// prune counts surface, and the JSON body stays identical.
func TestLakeQueryTierHeaders(t *testing.T) {
	srv, f := testServer(t)
	url := fmt.Sprintf("%s/api/v1/lake/query?metric=node_power_w&agg=avg&granularity=15s&from=%s&to=%s",
		srv.URL, t0.Format(time.RFC3339), t0.Add(time.Minute).Format(time.RFC3339))
	getHeaders := func() (http.Header, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		return resp.Header, string(body)
	}
	h, hotBody := getHeaders()
	if got := h.Get("X-ODA-Query-Tier"); got != "hot" {
		t.Fatalf("tier before offload = %q, want hot", got)
	}
	if h.Get("X-ODA-Query-Cold-Segments-Scanned") != "0" {
		t.Fatalf("cold scans before offload = %q", h.Get("X-ODA-Query-Cold-Segments-Scanned"))
	}
	if h.Get("X-ODA-Query-Cold-Rows-Decoded") != "0" || h.Get("X-ODA-Query-Cold-Cells") != "0" {
		t.Fatalf("cold decode before offload: rows=%q cells=%q",
			h.Get("X-ODA-Query-Cold-Rows-Decoded"), h.Get("X-ODA-Query-Cold-Cells"))
	}

	off, err := f.Lake.Offload(t0.Add(2 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if off.Segments == 0 {
		t.Fatal("offload moved nothing")
	}
	h, coldBody := getHeaders()
	if got := h.Get("X-ODA-Query-Tier"); got != "hot+cold" {
		t.Fatalf("tier after offload = %q, want hot+cold", got)
	}
	if h.Get("X-ODA-Query-Cold-Segments-Scanned") == "0" {
		t.Fatal("no cold segments scanned after full offload")
	}
	// The decode amplification is readable over the wire: every folded
	// cold cell was decoded, and the filtered query decodes more rows of
	// its row groups than it folds.
	decoded, derr := strconv.ParseInt(h.Get("X-ODA-Query-Cold-Rows-Decoded"), 10, 64)
	cells, cerr := strconv.ParseInt(h.Get("X-ODA-Query-Cold-Cells"), 10, 64)
	if derr != nil || cerr != nil || cells == 0 || decoded <= cells {
		t.Fatalf("cold rows decoded %q, cold cells %q: want decoded > cells > 0",
			h.Get("X-ODA-Query-Cold-Rows-Decoded"), h.Get("X-ODA-Query-Cold-Cells"))
	}
	if h.Get("X-ODA-Query-Glacier-Pending") != "0" || h.Get("X-ODA-Query-Recall-Wait-Ms") != "0" {
		t.Fatalf("unexpected glacier involvement: pending=%q wait=%q",
			h.Get("X-ODA-Query-Glacier-Pending"), h.Get("X-ODA-Query-Recall-Wait-Ms"))
	}
	if coldBody != hotBody {
		t.Fatalf("federated body diverged from hot body:\nhot:  %s\ncold: %s", hotBody, coldBody)
	}

	// A ghost metric never clears the bloom filter: the cold segment is
	// pruned from the plan without a single object read.
	ghost := fmt.Sprintf("%s/api/v1/lake/query?metric=no_such_metric&agg=avg&from=%s&to=%s",
		srv.URL, t0.Format(time.RFC3339), t0.Add(time.Minute).Format(time.RFC3339))
	resp, err := http.Get(ghost)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-ODA-Query-Cold-Segments-Pruned") == "0" {
		t.Fatal("ghost metric did not prune the cold segment")
	}
	if resp.Header.Get("X-ODA-Query-Cold-Segments-Scanned") != "0" {
		t.Fatal("ghost metric still read a cold segment")
	}
}

// TestLakeQueryColdSegmentsCachedHeader: the second query of a shape over
// an offloaded chunk it covers whole — a window the result cache has not
// seen — merges the chunk's cached partial, says so in
// X-ODA-Query-Cold-Segments-Cached, decodes nothing, and answers the same
// body as the fold did.
func TestLakeQueryColdSegmentsCachedHeader(t *testing.T) {
	srv, f := testServer(t)
	if off, err := f.Lake.Offload(t0.Add(2 * time.Hour)); err != nil || off.Segments == 0 {
		t.Fatalf("offload moved %d chunks: %v", off.Segments, err)
	}
	get := func(to time.Time) (http.Header, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/api/v1/lake/query?metric=node_power_w&agg=avg&granularity=15s&from=%s&to=%s",
			srv.URL, t0.Format(time.RFC3339), to.Format(time.RFC3339)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("status %d: %v", resp.StatusCode, err)
		}
		return resp.Header, string(body)
	}
	h, folded := get(t0.Add(time.Hour))
	if h.Get("X-ODA-Query-Cold-Segments-Cached") != "0" || h.Get("X-ODA-Query-Cold-Cells") == "0" {
		t.Fatalf("first query: cached %q, cold cells %q", h.Get("X-ODA-Query-Cold-Segments-Cached"), h.Get("X-ODA-Query-Cold-Cells"))
	}
	h, merged := get(t0.Add(time.Hour + time.Second))
	if h.Get("X-ODA-Query-Cold-Segments-Cached") != h.Get("X-ODA-Query-Cold-Segments-Scanned") || h.Get("X-ODA-Query-Cold-Segments-Cached") == "0" ||
		h.Get("X-ODA-Query-Cold-Rows-Decoded") != "0" || h.Get("X-ODA-Query-Cache") == "hit" {
		t.Fatalf("second query: cached %q of %q scanned, %q rows decoded, result cache %q", h.Get("X-ODA-Query-Cold-Segments-Cached"),
			h.Get("X-ODA-Query-Cold-Segments-Scanned"), h.Get("X-ODA-Query-Cold-Rows-Decoded"), h.Get("X-ODA-Query-Cache"))
	}
	if merged != folded {
		t.Fatalf("merged body diverges from the folded one:\nfolded: %s\nmerged: %s", folded, merged)
	}
}

func TestLakeQueryValidation(t *testing.T) {
	srv, _ := testServer(t)
	cases := []string{
		"/api/v1/lake/query?from=notatime",
		"/api/v1/lake/query?granularity=bogus",
		"/api/v1/lake/query?agg=median",
		"/api/v1/lake/query?groupby=bogusdim",
	}
	for _, c := range cases {
		var e map[string]any
		if code := getJSON(t, srv.URL+c, &e); code != 400 {
			t.Fatalf("%s: status = %d, want 400", c, code)
		}
		if e["error"] == "" {
			t.Fatalf("%s: no error message", c)
		}
	}
}

func TestLakeTopN(t *testing.T) {
	srv, _ := testServer(t)
	url := fmt.Sprintf("%s/api/v1/lake/topn?metric=node_power_w&n=3&from=%s&to=%s",
		srv.URL, t0.Format(time.RFC3339), t0.Add(time.Minute).Format(time.RFC3339))
	var top []struct {
		Dim   string  `json:"Dim"`
		Value float64 `json:"Value"`
	}
	if code := getJSON(t, url, &top); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(top) != 3 || top[0].Value < top[1].Value {
		t.Fatalf("top = %+v", top)
	}
	var e map[string]any
	if code := getJSON(t, srv.URL+"/api/v1/lake/topn", &e); code != 400 {
		t.Fatalf("missing metric: status = %d", code)
	}
}

func TestLogsSearch(t *testing.T) {
	srv, _ := testServer(t)
	var hits []struct {
		Severity string `json:"severity"`
		Message  string `json:"message"`
	}
	url := srv.URL + "/api/v1/logs/search?limit=5"
	if code := getJSON(t, url, &hits); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(hits) == 0 || len(hits) > 5 {
		t.Fatalf("hits = %d", len(hits))
	}
	// Severity filter.
	var errs []struct {
		Severity string `json:"severity"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/logs/search?severity=info", &errs); code != 200 {
		t.Fatal("severity filter failed")
	}
	for _, h := range errs {
		if h.Severity != "info" {
			t.Fatalf("severity = %q", h.Severity)
		}
	}
}

func TestRatsAndDatasets(t *testing.T) {
	srv, _ := testServer(t)
	var rows []struct {
		Program string  `json:"Program"`
		Share   float64 `json:"Share"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/rats/programs", &rows); code != 200 {
		t.Fatal("rats failed")
	}
	if len(rows) == 0 {
		t.Fatal("no program rows")
	}
	var ds []struct {
		Name  string `json:"name"`
		Stage string `json:"stage"`
		Rows  int64  `json:"rows"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/datasets", &ds); code != 200 {
		t.Fatal("datasets failed")
	}
	found := false
	for _, d := range ds {
		if d.Name == "power_temp_bronze" && d.Rows > 0 && d.Stage == "bronze" {
			found = true
		}
	}
	if !found {
		t.Fatalf("datasets = %+v", ds)
	}
}

func TestGovernanceEndpoint(t *testing.T) {
	srv, f := testServer(t)
	id, err := f.DataRUC.Submit("pi", "proj", "test", []string{"d"}, governance.InternalUse)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Kind   string `json:"kind"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/governance/requests", &reqs); code != 200 {
		t.Fatal("governance failed")
	}
	if len(reqs) != 1 || reqs[0].ID != id || reqs[0].Status != "pending" || reqs[0].Kind != "internal_use" {
		t.Fatalf("requests = %+v", reqs)
	}
}

func TestJobEndpoint(t *testing.T) {
	srv, f := testServer(t)
	var target string
	for _, j := range f.Sched.Jobs {
		if !j.Start.IsZero() {
			target = j.ID
			break
		}
	}
	if target == "" {
		t.Fatal("no started job")
	}
	var job map[string]any
	if code := getJSON(t, srv.URL+"/api/v1/jobs/"+target, &job); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if job["id"] != target || job["nodes"].(float64) <= 0 {
		t.Fatalf("job = %v", job)
	}
	var e map[string]any
	if code := getJSON(t, srv.URL+"/api/v1/jobs/ghost", &e); code != 404 {
		t.Fatalf("ghost job status = %d", code)
	}
}

func TestMethodRouting(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", resp.StatusCode)
	}
}

// TestNonFiniteValuesEncodeAsNull: JSON has no number for ±Inf, so a
// series point holding one encodes as "value": null on every route that
// answers series points, a lake/topn entry as "Value": null, and the
// response is still a 200 with a body.
func TestNonFiniteValuesEncodeAsNull(t *testing.T) {
	srv, f := testServer(t)
	inf := schema.Observation{
		Ts: t0.Add(10 * time.Second), System: "sys", Source: "power_temp",
		Component: "n1", Metric: "inf_metric", Value: math.Inf(1),
	}
	if err := f.Lake.InsertBatch([]schema.Observation{inf}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/v1/cq?window=5m&metric=inf_metric&agg=max&above=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil || reg.ID == "" {
		t.Fatalf("register: id %q, %v", reg.ID, err)
	}
	resp.Body.Close()
	f.CQ.Apply("bronze.power_temp", 0, obsRows(inf))
	// A later record of another metric closes the infinite bucket: it alerts.
	later := inf
	later.Ts, later.Metric, later.Value = t0.Add(time.Minute), "other_metric", 1
	f.CQ.Apply("bronze.power_temp", 0, obsRows(later))

	span := "&from=" + t0.Format(time.RFC3339) + "&to=" + t0.Add(time.Minute).Format(time.RFC3339)
	window := "metric=inf_metric&agg=max" + span
	prep := postPrepare(t, srv.URL, window)
	for _, tc := range []struct {
		name, path, null string
		sse              bool
	}{
		{"lake query", "/api/v1/lake/query?" + window, `"value":null`, false},
		{"prepared query", "/api/v1/query?prep=" + prep.Handle, `"value":null`, false},
		{"lake topn", "/api/v1/lake/topn?metric=inf_metric" + span, `"Value":null`, false},
		{"cq read", "/api/v1/cq/" + reg.ID, `"value":null`, false},
		{"cq watch", "/api/v1/cq/" + reg.ID + "/watch", `"value":null`, false},
		{"cq watch sse", "/api/v1/cq/" + reg.ID + "/watch?count=1", `"value":null`, true},
		{"cq alerts", "/api/v1/cq/" + reg.ID + "/alerts", `"value":null`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodGet, srv.URL+tc.path, nil)
			if tc.sse {
				req.Header.Set("Accept", "text/event-stream")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if tc.sse {
				_, data, ok := strings.Cut(string(body), "\ndata: ")
				if !ok {
					t.Fatalf("no data line in the event %q", body)
				}
				data, _, _ = strings.Cut(data, "\n")
				var u struct {
					Points json.RawMessage `json:"points"`
				}
				if err := json.Unmarshal([]byte(data), &u); err != nil {
					t.Fatalf("event data %q: %v", data, err)
				}
				body = u.Points
			}
			var points []struct {
				Value *float64 `json:"value"`
			}
			if err := json.Unmarshal(body, &points); resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("status %d, body %q (%v)", resp.StatusCode, body, err)
			}
			if len(points) != 1 || points[0].Value != nil || !strings.Contains(string(body), tc.null) {
				t.Fatalf("body %s, want the one point with %s", body, tc.null)
			}
		})
	}
}

// TestWriteJSONRefusesUnencodableBody: a body encoding/json rejects is a
// 500 internal error with a JSON error body, never a 200 with no body.
func TestWriteJSONRefusesUnencodableBody(t *testing.T) {
	_, f := testServer(t)
	s := New(f)
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]float64{"value": math.Inf(1)})
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError ||
		rec.Header().Get("X-ODA-Error") != "internal" || e.Error == "" {
		t.Fatalf("status %d, X-ODA-Error %q, body %q", rec.Code, rec.Header().Get("X-ODA-Error"), rec.Body)
	}
}

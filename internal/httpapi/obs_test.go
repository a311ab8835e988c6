package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"odakit/internal/obs"
)

// TestErrorPathsCarryODAHeaders drives every documented error path of
// every endpoint and checks the response contract: X-ODA-Error carries
// the category, and 503s carry Retry-After.
func TestErrorPathsCarryODAHeaders(t *testing.T) {
	srv, f := testServer(t)
	cases := []struct {
		name     string
		path     string
		status   int
		category string
	}{
		{"query bad from", "/api/v1/lake/query?from=bogus", 400, "bad-request"},
		{"query bad to", "/api/v1/lake/query?to=bogus", 400, "bad-request"},
		{"query bad granularity", "/api/v1/lake/query?granularity=fast", 400, "bad-request"},
		{"query unknown agg", "/api/v1/lake/query?agg=median", 400, "bad-request"},
		{"query inverted window", "/api/v1/lake/query?from=2024-06-01T01:00:00Z&to=2024-06-01T00:00:00Z", 400, "bad-request"},
		{"query empty window", "/api/v1/lake/query?from=2024-06-01T00:00:00Z&to=2024-06-01T00:00:00Z", 400, "bad-request"},
		{"query empty filter values", "/api/v1/lake/query?metric=,,", 400, "bad-request"},
		{"query trailing groupby comma only", "/api/v1/lake/query?groupby=,", 400, "bad-request"},
		{"query negative granularity", "/api/v1/lake/query?granularity=-15s", 400, "bad-request"},
		{"query zero granularity", "/api/v1/lake/query?granularity=0s", 400, "bad-request"},
		{"query bucket explosion", "/api/v1/lake/query?granularity=1ns", 400, "bad-request"},
		{"query conflicting agg", "/api/v1/lake/query?agg=avg&agg=sum", 400, "bad-request"},
		{"query conflicting granularity", "/api/v1/lake/query?granularity=15s&granularity=30s", 400, "bad-request"},
		{"query conflicting metric", "/api/v1/lake/query?metric=a&metric=b", 400, "bad-request"},
		{"query conflicting from", "/api/v1/lake/query?from=2024-06-01T00:00:00Z&from=2024-06-01T00:01:00Z", 400, "bad-request"},
		{"query conflicting to", "/api/v1/lake/query?to=2024-06-01T01:00:00Z&to=2024-06-01T02:00:00Z", 400, "bad-request"},
		{"prepared missing handle", "/api/v1/query", 400, "bad-request"},
		{"prepared unknown handle", "/api/v1/query?prep=p0000000000000000", 404, "not-found"},
		{"prepared conflicting handle", "/api/v1/query?prep=p0000000000000000&prep=p0000000000000001", 400, "bad-request"},
		{"topn bad window", "/api/v1/lake/topn?metric=m&from=bogus", 400, "bad-request"},
		{"topn missing metric", "/api/v1/lake/topn", 400, "bad-request"},
		{"topn bad n", "/api/v1/lake/topn?metric=m&n=-3", 400, "bad-request"},
		{"topn huge n", "/api/v1/lake/topn?metric=m&n=100001", 400, "bad-request"},
		{"topn conflicting metric", "/api/v1/lake/topn?metric=a&metric=b", 400, "bad-request"},
		{"topn empty metric values", "/api/v1/lake/topn?metric=,,", 400, "bad-request"},
		{"topn conflicting n", "/api/v1/lake/topn?metric=m&n=3&n=5", 400, "bad-request"},
		{"topn conflicting from", "/api/v1/lake/topn?metric=m&from=2024-06-01T00:00:00Z&from=2024-06-01T00:01:00Z", 400, "bad-request"},
		{"logs bad window", "/api/v1/logs/search?from=bogus", 400, "bad-request"},
		{"logs inverted window", "/api/v1/logs/search?from=2024-06-01T01:00:00Z&to=2024-06-01T00:00:00Z", 400, "bad-request"},
		{"logs bad limit", "/api/v1/logs/search?limit=zero", 400, "bad-request"},
		{"logs huge limit", "/api/v1/logs/search?limit=100001", 400, "bad-request"},
		{"logs conflicting to", "/api/v1/logs/search?to=2024-06-01T01:00:00Z&to=2024-06-01T02:00:00Z", 400, "bad-request"},
		{"logs conflicting limit", "/api/v1/logs/search?limit=5&limit=7", 400, "bad-request"},
		{"logs conflicting q", "/api/v1/logs/search?q=ecc&q=thermal", 400, "bad-request"},
		{"logs conflicting severity", "/api/v1/logs/search?severity=error&severity=warn", 400, "bad-request"},
		{"logs conflicting host", "/api/v1/logs/search?host=a&host=b", 400, "bad-request"},
		{"logs repeated limit", "/api/v1/logs/search?limit=5&limit=5", 200, ""},
		{"rats bad window", "/api/v1/rats/programs?from=bogus", 400, "bad-request"},
		{"rats inverted window", "/api/v1/rats/programs?from=2024-06-01T01:00:00Z&to=2024-06-01T00:00:00Z", 400, "bad-request"},
		{"rats conflicting from", "/api/v1/rats/programs?from=2024-06-01T00:00:00Z&from=2024-06-01T00:01:00Z", 400, "bad-request"},
		{"job not found", "/api/v1/jobs/not-a-job", 404, "not-found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(srv.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if got := resp.Header.Get("X-ODA-Error"); got != tc.category {
				t.Fatalf("X-ODA-Error = %q, want %q", got, tc.category)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
		})
	}

	// The overload path: a query shed by a gateway whose queue is full,
	// with no cached result, gets 503 + Retry-After + the overloaded
	// category.
	shedSrv := anonymousGateway(t, New(f), f.Obs)
	resp, err := http.Get(shedSrv.URL + "/api/v1/lake/query?metric=never_queried_before")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	requireOverloaded(t, "shed query", resp)

	// The error categories surfaced as labeled counters.
	var buf strings.Builder
	if err := f.Obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`oda_http_errors_total{category="bad-request"}`,
		`oda_http_errors_total{category="not-found"}`,
		`oda_http_errors_total{category="overloaded"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %s", want)
		}
	}
}

// scrubSeconds blanks the values of wall-time-derived samples (any
// *_seconds histogram family) so the exposition diffs deterministically.
var secondsLine = regexp.MustCompile(`^(\S*_seconds(?:_bucket|_sum|_count)?(?:\{[^}]*\})?) \S+$`)

func scrubMetrics(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if m := secondsLine.FindStringSubmatch(l); m != nil {
			lines[i] = m[1] + " SCRUBBED"
		}
	}
	return strings.Join(lines, "\n")
}

// TestMetricsGolden locks the full /metrics exposition — families,
// help text, label sets, and every deterministic value — against a
// golden file. Regenerate with ODA_UPDATE_GOLDEN=1 go test.
func TestMetricsGolden(t *testing.T) {
	srv, _ := testServer(t)

	// One deterministic query so the engine counters are exercised.
	url := fmt.Sprintf("%s/api/v1/lake/query?metric=node_power_w&agg=avg&granularity=15s&from=%s&to=%s",
		srv.URL, t0.Format(time.RFC3339), t0.Add(time.Minute).Format(time.RFC3339))
	var pts []any
	if code := getJSON(t, url, &pts); code != 200 || len(pts) == 0 {
		t.Fatalf("seed query: status %d, %d points", code, len(pts))
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if err := obs.ValidatePrometheus(string(body)); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}

	got := scrubMetrics(string(body))
	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("ODA_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with ODA_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("/metrics diverged from golden.\nGot:\n%s\nWant:\n%s", got, want)
	}
}

// TestTracesEndpoint ensures a traced pipeline run is retrievable as a
// JSON trace tree from the public API.
func TestTracesEndpoint(t *testing.T) {
	srv, f := testServer(t)
	ctx, root := f.Tracer.StartRoot(t.Context(), "pipeline")
	if _, err := f.IngestWindow(ctx, t0.Add(time.Minute), t0.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	root.End()

	var traces []struct {
		Name       string `json:"name"`
		DurationUS int64  `json:"duration_us"`
		Children   []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/traces", &traces); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(traces) != 1 || traces[0].Name != "pipeline" {
		t.Fatalf("traces = %+v", traces)
	}
	if len(traces[0].Children) == 0 {
		t.Fatal("trace has no stage children")
	}
}

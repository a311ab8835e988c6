package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"odakit/internal/core"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/sproc"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// overloaded is a LAKE engine with every scan slot taken. Served through
// SetQueryBackend it makes the server shed, answering from the wrapped
// store's result cache where that holds the query's shape.
type overloaded struct{ *tsdb.DB }

func (overloaded) ScanLoad() float64 { return 1 }

// noStale is overloaded with nothing on the stale side of its cache.
type noStale struct{ overloaded }

func (noStale) CachedStale(tsdb.Query) (*schema.Frame, bool) { return nil, false }

// shedServer is testServer but keeps a handle on the *Server so its
// query backend can be swapped for an overloaded one.
func shedServer(t *testing.T) (*httptest.Server, *Server, *core.Facility) {
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
	s := New(f)
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); f.Close() })
	return srv, s, f
}

func TestLoadShedStaleAndReject(t *testing.T) {
	srv, s, f := shedServer(t)
	url := fmt.Sprintf("%s/api/v1/lake/query?metric=node_power_w&agg=avg&granularity=15s&from=%s&to=%s",
		srv.URL, t0.Format(time.RFC3339), t0.Add(time.Minute).Format(time.RFC3339))

	// Warm the query cache with a fresh (unshedded) run.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var fresh []seriesPoint
	if err := json.NewDecoder(resp.Body).Decode(&fresh); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(fresh) != 4 {
		t.Fatalf("warmup: status=%d points=%d", resp.StatusCode, len(fresh))
	}
	if resp.Header.Get("X-ODA-Stale") != "" {
		t.Fatal("unshedded response marked stale")
	}

	// Saturate: the same query shape is now answered from the stale cache.
	s.SetQueryBackend(overloaded{f.Lake})
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var stale []seriesPoint
	if err := json.NewDecoder(resp.Body).Decode(&stale); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stale path status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-ODA-Stale") != "true" {
		t.Fatal("stale response not marked X-ODA-Stale")
	}
	if len(stale) != len(fresh) {
		t.Fatalf("stale points = %d, want %d", len(stale), len(fresh))
	}

	// Stale answers come from the backend's own result cache: one with
	// nothing there sheds the warm shape with 503, and handing the cache
	// back restores the stale side.
	for _, tc := range []struct {
		backend plane.Lake
		status  int
	}{{noStale{overloaded{f.Lake}}, http.StatusServiceUnavailable}, {overloaded{f.Lake}, http.StatusOK}} {
		s.SetQueryBackend(tc.backend)
		resp, err = http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("warm shape on backend %T: status = %d, want %d", tc.backend, resp.StatusCode, tc.status)
		}
	}

	// A query shape never seen before has no stale fallback: shed with
	// 503 + Retry-After.
	coldURL := fmt.Sprintf("%s/api/v1/lake/query?metric=node_power_w&agg=max&granularity=30s&from=%s&to=%s",
		srv.URL, t0.Format(time.RFC3339), t0.Add(time.Minute).Format(time.RFC3339))
	resp, err = http.Get(coldURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold shed status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// Back under the load line, the cold query runs fresh again.
	s.SetQueryBackend(f.Lake)
	resp, err = http.Get(coldURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("recovered status = %d", resp.StatusCode)
	}
}

func TestHealthzDegradedUnderLoad(t *testing.T) {
	srv, s, f := shedServer(t)
	var h map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &h); code != 200 || h["status"] != "ok" {
		t.Fatalf("baseline health = %v (code %d)", h, code)
	}
	if _, ok := h["lake_scan_load"]; !ok {
		t.Fatal("healthz missing lake_scan_load")
	}
	s.SetQueryBackend(overloaded{f.Lake})
	if code := getJSON(t, srv.URL+"/healthz", &h); code != 200 || h["status"] != "degraded" {
		t.Fatalf("overloaded health = %v (code %d)", h, code)
	}
}

func TestPipelinesEndpoint(t *testing.T) {
	srv, _, _ := shedServer(t)
	var ps []map[string]any
	if code := getJSON(t, srv.URL+"/api/v1/pipelines", &ps); code != 200 {
		t.Fatalf("pipelines status = %d", code)
	}
	if len(ps) != 0 {
		t.Fatalf("expected empty registry, got %v", ps)
	}
}

func TestHealthzDegradedOnFailedPipeline(t *testing.T) {
	srv, _, f := shedServer(t)
	// A pipeline whose job can't even build fails fatally; its corpse in
	// the registry must flip /healthz to degraded.
	p := sproc.NewPipeline("doomed", resilience.SupervisorConfig{
		Backoff: resilience.Policy{BaseDelay: 50 * time.Microsecond},
	}, func() (*sproc.Job, error) {
		return nil, errors.New("sink misconfigured")
	})
	f.Pipelines.Register(p)
	if err := p.Run(context.Background()); err == nil {
		t.Fatal("doomed pipeline ran")
	}

	var h map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &h); code != 200 || h["status"] != "degraded" {
		t.Fatalf("health = %v (code %d)", h, code)
	}
	var ps []struct {
		Name       string `json:"name"`
		State      string `json:"state"`
		Supervisor struct {
			LastErr string `json:"LastErr"`
		} `json:"supervisor"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/pipelines", &ps); code != 200 {
		t.Fatalf("pipelines status = %d", code)
	}
	if len(ps) != 1 || ps[0].Name != "doomed" || ps[0].State != "failed" {
		t.Fatalf("pipelines = %+v", ps)
	}
}

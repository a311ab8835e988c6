package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"odakit/internal/core"
	"odakit/internal/gateway"
	"odakit/internal/obs"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/telemetry"
)

// shedServer is testServer but keeps a handle on the *Server so it can
// be put behind a gateway.
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

// fullGateway fronts h with a gateway whose admission queue is held full
// until the test ends: one slot, one waiter, a request of tenant's parked
// in the handler holding the slot and a second queued behind it. Every
// heavy request it serves is shed. Its clock is frozen, so no token
// bucket refills and a debit stays visible. The gateway's metrics land
// in reg.
func fullGateway(t *testing.T, h http.Handler, reg *obs.Registry, tenant gateway.TenantConfig) *gateway.Gateway {
	t.Helper()
	hold := make(chan struct{})
	frozen := time.Now()
	g := gateway.New(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/lake/hold" && !gateway.Shed(r.Context()) {
			<-hold
			return
		}
		h.ServeHTTP(w, r)
	}), gateway.Options{Registry: reg, Slots: 1, MaxQueue: 1, Now: func() time.Time { return frozen }})
	if err := g.RegisterTenant(tenant); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/api/v1/lake/hold", nil)
			req.Header.Set("X-ODA-Tenant", tenant.Name)
			g.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	for g.Stats().Queued < 1 {
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() { close(hold); wg.Wait() })
	return g
}

// anonymousGateway is fullGateway for credential-less requests, on a
// socket.
func anonymousGateway(t *testing.T, h http.Handler, reg *obs.Registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(fullGateway(t, h, reg, gateway.TenantConfig{Name: gateway.Anonymous, RatePerSec: 1e6}))
	t.Cleanup(srv.Close)
	return srv
}

// requireOverloaded fails unless resp is the shed rejection: 503 +
// Retry-After + X-ODA-Error: overloaded.
func requireOverloaded(t *testing.T, what string, resp *http.Response) {
	t.Helper()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
		resp.Header.Get("X-ODA-Error") != "overloaded" {
		t.Fatalf("%s: status %d, Retry-After %q, X-ODA-Error %q; want 503 + Retry-After + overloaded",
			what, resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get("X-ODA-Error"))
	}
}

// counterValue reads one sample of the registry's exposition.
func counterValue(t *testing.T, reg *obs.Registry, name string) string {
	t.Helper()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("metrics missing %s", name)
	return ""
}

// TestLoadShedStaleAndReject drives the one overload decision end to end:
// a gateway with its queue held full sheds, and httpapi answers the shed
// request from the stale side of the engine's cache when it has the
// query's shape (X-ODA-Stale: true) and with 503 + Retry-After otherwise.
func TestLoadShedStaleAndReject(t *testing.T) {
	srv, s, f := shedServer(t)
	window := fmt.Sprintf("&from=%s&to=%s", t0.Format(time.RFC3339), t0.Add(time.Minute).Format(time.RFC3339))
	warm := "/api/v1/lake/query?metric=node_power_w&agg=avg&granularity=15s" + window
	cold := "/api/v1/lake/query?metric=node_power_w&agg=max&granularity=30s" + window

	// Warm the query cache with a fresh run straight at the portal.
	var fresh []refPoint
	resp, err := http.Get(srv.URL + warm)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fresh); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(fresh) != 4 || resp.Header.Get("X-ODA-Stale") != "" {
		t.Fatalf("warmup: status=%d points=%d stale=%q", resp.StatusCode, len(fresh), resp.Header.Get("X-ODA-Stale"))
	}

	gw := anonymousGateway(t, s, f.Obs)
	// The warm shape is answered from the stale cache side.
	resp, err = http.Get(gw.URL + warm)
	if err != nil {
		t.Fatal(err)
	}
	var stale []refPoint
	if err := json.NewDecoder(resp.Body).Decode(&stale); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("X-ODA-Stale") != "true" {
		t.Fatalf("shed warm shape: status %d, X-ODA-Stale %q; want 200 + true", resp.StatusCode, resp.Header.Get("X-ODA-Stale"))
	}
	if len(stale) != len(fresh) {
		t.Fatalf("stale points = %d, want %d", len(stale), len(fresh))
	}
	if resp.Header.Get("X-ODA-Query-Cells-Scanned") != "" {
		t.Fatal("a stale answer reports scan cost it never paid")
	}

	// A shape never seen before and a log search have no stale answer:
	// 503 + Retry-After. (So has a clustered backend, which keeps no
	// result cache of its own: TestClusterShedIsRejected.)
	for _, path := range []string{cold, "/api/v1/logs/search?limit=5"} {
		resp, err = http.Get(gw.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		requireOverloaded(t, path, resp)
	}
	// Every shed request was answered once, stale or rejected.
	shed := counterValue(t, f.Obs, "oda_gateway_shed_total")
	staleN := counterValue(t, f.Obs, "oda_http_shed_stale_total")
	rejected := counterValue(t, f.Obs, "oda_http_shed_rejected_total")
	if shed != "3" || staleN != "1" || rejected != "2" {
		t.Fatalf("oda_gateway_shed_total %s, oda_http_shed_stale_total %s, oda_http_shed_rejected_total %s; want 3 = 1 + 2",
			shed, staleN, rejected)
	}

	// Straight at the portal (admitted, no shed mark) the cold shape runs
	// fresh.
	resp, err = http.Get(srv.URL + cold)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("X-ODA-Stale") != "" {
		t.Fatalf("admitted cold shape: status %d, X-ODA-Stale %q", resp.StatusCode, resp.Header.Get("X-ODA-Stale"))
	}
}

// TestAdmittedQueriesAnswerFresh: a query the gateway admitted is
// answered fresh however many scan helpers other queries hold. Bursts
// of 16 concurrent, cache-distinct LAKE queries through a gateway sized
// to the engine's scan-slot budget must all answer 200 without the stale
// mark at GOMAXPROCS 1, 2 and 8 — at 8 each query takes 7 helpers, so
// three running queries take all 16.
func TestAdmittedQueriesAnswerFresh(t *testing.T) {
	sys := telemetry.FrontierLike(17).Scaled(64)
	sys.LossRate = 0
	f, err := core.NewFacility(core.Options{
		System: sys, WorkloadSeed: 17,
		ScheduleFrom: t0.Add(-time.Hour), ScheduleTo: t0.Add(2 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(10*time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	g := gateway.New(New(f), gateway.Options{Slots: f.Lake.ScanSlotCap()})
	if err := g.RegisterTenant(gateway.TenantConfig{Name: gateway.Anonymous, RatePerSec: 1e6}); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const bursts, clients = 5, 16
	seq := 0
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for b := range bursts {
			start := make(chan struct{})
			codes := make([]int, clients)
			stale := make([]string, clients)
			var wg sync.WaitGroup
			for c := range clients {
				// A distinct window start per query: every one misses the
				// result cache and scans.
				seq++
				path := fmt.Sprintf("/api/v1/lake/query?metric=node_power_w&agg=avg&granularity=1s&groupby=component&from=%s&to=%s",
					t0.Add(time.Duration(seq)*time.Millisecond).Format(time.RFC3339Nano), t0.Add(10*time.Minute).Format(time.RFC3339))
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					rec := httptest.NewRecorder()
					g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
					codes[c], stale[c] = rec.Code, rec.Header().Get("X-ODA-Stale")
				}()
			}
			close(start)
			wg.Wait()
			for c := range clients {
				if codes[c] != 200 || stale[c] != "" {
					t.Errorf("GOMAXPROCS=%d burst %d query %d: status %d, X-ODA-Stale %q; want a fresh 200",
						procs, b, c, codes[c], stale[c])
				}
			}
		}
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
	p := plane.NewPipeline("doomed", resilience.SupervisorConfig{
		Backoff: resilience.Policy{BaseDelay: 50 * time.Microsecond},
	}, nil, func() (plane.Runner, error) {
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

package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"odakit/internal/core"
	"odakit/internal/gateway"
	"odakit/internal/telemetry"
)

// TestPreparedStreamOver256PointsDebits is the end-to-end streaming
// header regression: a prepared query whose result streams past the
// 256-point flush mark, served through a real HTTP server (real
// flushes) behind the gateway. The client must still see
// X-ODA-Query-Cells-Scanned — every X-ODA-* header is set before the
// first body write — and the tenant's scan budget must be debited by
// exactly that committed value. It lives here rather than in
// internal/gateway because core (via viz) imports gateway.
func TestPreparedStreamOver256PointsDebits(t *testing.T) {
	sys := telemetry.FrontierLike(7).Scaled(8)
	sys.LossRate = 0
	f, err := core.NewFacility(core.Options{
		System: sys, WorkloadSeed: 7,
		ScheduleFrom: t0.Add(-time.Hour), ScheduleTo: t0.Add(2 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// 10 minutes of 1 Hz power/temp over 8 nodes, grouped by component at
	// 15 s granularity: 40 buckets x 8 nodes = 320 points > 256.
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(10*time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	const burst = 1e9
	frozen := time.Now() // no refill: the budget moves by debits only
	g := gateway.New(New(f), gateway.Options{Registry: f.Obs, Now: func() time.Time { return frozen }})
	if err := g.RegisterTenant(gateway.TenantConfig{
		Name: "proj-s", RatePerSec: 100, ScanCellsPerSec: burst / 10,
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()

	do := func(method, url string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-ODA-Tenant", "proj-s")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	prepURL := fmt.Sprintf(
		"%s/api/v1/prepare?metric=node_power_w&agg=avg&granularity=15s&groupby=component&from=%s&to=%s",
		srv.URL, t0.Format(time.RFC3339), t0.Add(10*time.Minute).Format(time.RFC3339))
	resp := do(http.MethodPost, prepURL)
	var prep struct {
		Handle string `json:"handle"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&prep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || prep.Handle == "" {
		t.Fatalf("prepare: status %d handle %q", resp.StatusCode, prep.Handle)
	}

	resp = do(http.MethodGet, srv.URL+"/api/v1/query?prep="+prep.Handle)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	var points []struct {
		Ts time.Time `json:"ts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&points); err != nil {
		t.Fatal(err)
	}
	if len(points) <= 256 {
		t.Fatalf("only %d points: not past the flush boundary, test proves nothing", len(points))
	}
	cells, err := strconv.ParseFloat(resp.Header.Get("X-ODA-Query-Cells-Scanned"), 64)
	if err != nil || cells <= 0 {
		t.Fatalf("client-visible X-ODA-Query-Cells-Scanned = %q",
			resp.Header.Get("X-ODA-Query-Cells-Scanned"))
	}
	// The gateway debits once the handler has returned, which a client
	// that already holds the whole body can outrun; Close blocks until the
	// server is done with the request.
	srv.Close()
	var budget float64
	for _, ts := range g.Stats().Tenants {
		if ts.Name == "proj-s" {
			budget = ts.ScanBudget
		}
	}
	if budget > burst-cells+10 {
		t.Fatalf("scan budget %v after scanning %v cells: stream was not debited", budget, cells)
	}
}

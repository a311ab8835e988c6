package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"odakit/internal/gateway"
	"odakit/internal/obs"
)

// topNBody is /api/v1/lake/topn over the servePlane fixture as the engine
// answered it when top-N had its own entry point (DB.TopN's bounded heap):
// the body must not move, on either plane.
const topNBody = `[{"Dim":"node00006","Value":2448.3699236098446},{"Dim":"node00005","Value":2443.1569605936047},{"Dim":"node00004","Value":2440.6320925612363},{"Dim":"node00001","Value":2198.9861880550384},{"Dim":"node00000","Value":2190.686727586428}]` + "\n"

// TestTopNIsAQuery holds /api/v1/lake/topn to everything a LAKE read
// route gets from serveQuery, on both planes and through a real gateway:
// the engine-cost headers, a scan-budget debit (and per-tenant counter) of
// exactly the cells the header reports, the result cache, and, on the
// facility's engine, the shed path — stale for a warm shape, 503 +
// Retry-After for a cold one — with the body unmoved.
func TestTopNIsAQuery(t *testing.T) {
	clustered, _ := serveClusteredPlane(t)
	for _, tc := range []struct {
		name   string
		p      servedPlane
		cached bool // the backend keeps its own result cache
	}{
		{"facility", servePlane(t, nil), true},
		{"cluster", clustered, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const burst = 1e9
			frozen := time.Now() // no refill: the budget moves by debits only
			g := gateway.New(tc.p.api, gateway.Options{Registry: tc.p.f.Obs, Now: func() time.Time { return frozen }})
			if err := g.RegisterTenant(gateway.TenantConfig{
				Name: "proj-t", RatePerSec: 1000, ScanCellsPerSec: burst / 10,
			}); err != nil {
				t.Fatal(err)
			}
			budget := func() float64 {
				for _, ts := range g.Stats().Tenants {
					if ts.Name == "proj-t" {
						return ts.ScanBudget
					}
				}
				t.Fatal("tenant missing from gateway stats")
				return 0
			}
			// ServeHTTP on a recorder returns after the gateway's post-paid
			// debit, which a client on a socket could outrun.
			get := func(url string) *httptest.ResponseRecorder {
				t.Helper()
				req := httptest.NewRequest(http.MethodGet, url, nil)
				req.Header.Set("X-ODA-Tenant", "proj-t")
				rec := httptest.NewRecorder()
				g.ServeHTTP(rec, req)
				return rec
			}
			url := tc.p.urls()["lake/topn"]

			rec := get(url)
			if rec.Code != 200 || rec.Body.String() != topNBody {
				t.Fatalf("status %d body %s\nwant %s", rec.Code, rec.Body, topNBody)
			}
			h := rec.Header()
			for _, k := range []string{"X-ODA-Query-Cache", "X-ODA-Query-Cells-Matched", "X-ODA-Query-Workers", "X-ODA-Query-Micros", "X-ODA-Query-Tier"} {
				if h.Get(k) == "" {
					t.Fatalf("top-n response lacks %s: %v", k, h)
				}
			}
			cells, err := strconv.ParseInt(h.Get("X-ODA-Query-Cells-Scanned"), 10, 64)
			if err != nil || cells <= 0 || h.Get("X-ODA-Query-Cache") != "miss" {
				t.Fatalf("first top-n: cells scanned %q cache %q", h.Get("X-ODA-Query-Cells-Scanned"), h.Get("X-ODA-Query-Cache"))
			}
			if got := burst - budget(); got != float64(cells) {
				t.Fatalf("scan budget dropped by %v, header says %d cells", got, cells)
			}
			counter := tc.p.f.Obs.Counter("oda_gateway_scan_cells_total"+obs.Labels("tenant", "proj-t"), "")
			if counter.Value() != cells {
				t.Fatalf("oda_gateway_scan_cells_total = %d, want %d", counter.Value(), cells)
			}

			// The same request again: the facility engine's result cache
			// answers (and scans, so debits, nothing); the cluster rescans.
			rec = get(url)
			wantCache := "miss"
			if tc.cached {
				wantCache = "hit"
			}
			if rec.Code != 200 || rec.Body.String() != topNBody || rec.Header().Get("X-ODA-Query-Cache") != wantCache {
				t.Fatalf("repeat: status %d cache %q (want %s) body %s", rec.Code, rec.Header().Get("X-ODA-Query-Cache"), wantCache, rec.Body)
			}
			spent := burst - budget()
			if want := float64(cells); tc.cached && spent != want || !tc.cached && spent != 2*want {
				t.Fatalf("after the repeat the budget is down %v (first scan: %d cells)", spent, cells)
			}

			// Shed by a gateway whose queue is full: the warm shape is
			// answered stale from the engine's result cache and a cold shape
			// is rejected; neither is debited. A cluster is no single engine
			// and keeps no result cache (TestClusterShedIsRejected).
			if !tc.cached {
				return
			}
			full := fullGateway(t, tc.p.api, tc.p.f.Obs, gateway.TenantConfig{
				Name: "proj-t", RatePerSec: 1000, ScanCellsPerSec: burst / 10,
			})
			shed := func(url string) *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodGet, url, nil)
				req.Header.Set("X-ODA-Tenant", "proj-t")
				rec := httptest.NewRecorder()
				full.ServeHTTP(rec, req)
				return rec
			}
			rec = shed(url)
			if rec.Code != 200 || rec.Header().Get("X-ODA-Stale") != "true" || rec.Body.String() != topNBody {
				t.Fatalf("shed warm: status %d stale %q body %s", rec.Code, rec.Header().Get("X-ODA-Stale"), rec.Body)
			}
			cold := tc.p.srv.URL + "/api/v1/lake/topn?metric=node_temp_c&n=5&from=" + t0.Format(time.RFC3339) + "&to=" + t0.Add(30*time.Second).Format(time.RFC3339)
			rec = shed(cold)
			if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" || rec.Header().Get("X-ODA-Error") != "overloaded" {
				t.Fatalf("shed cold: status %d Retry-After %q X-ODA-Error %q", rec.Code, rec.Header().Get("Retry-After"), rec.Header().Get("X-ODA-Error"))
			}
			if snap := full.Stats(); snap.Tenants[0].ScanBudget != burst {
				t.Fatalf("shed requests were debited: scan budget %v, want %v", snap.Tenants[0].ScanBudget, float64(burst))
			}
		})
	}
}

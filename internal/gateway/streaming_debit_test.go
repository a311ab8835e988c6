package gateway

import (
	"net/http"
	"strconv"
	"testing"
)

// Regression tests for the streaming-header contract: the prepared
// execution path flushes every 256 points, and anything set in the
// header map after the first flush never reaches the wire. The gateway
// therefore debits the X-ODA-Query-Cells-Scanned value snapshotted when
// the response committed — the value the client actually saw — not
// whatever the header map holds after the handler returns.

// flushingHandler streams a body in n writes with a Flush between each,
// calling setHdr at the given point in the response lifecycle.
func flushingHandler(setEarly bool, cells int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		set := func() {
			w.Header().Set("X-ODA-Query-Cells-Scanned", strconv.FormatInt(cells, 10))
		}
		if setEarly {
			set()
		}
		fl, _ := w.(http.Flusher)
		for i := 0; i < 4; i++ {
			_, _ = w.Write([]byte("chunk"))
			if fl != nil {
				fl.Flush()
			}
			if !setEarly && i == 0 {
				set() // after the first flush: lost on the wire
			}
		}
	})
}

func scanBudget(t *testing.T, g *Gateway, tenant string) float64 {
	t.Helper()
	for _, ts := range g.Stats().Tenants {
		if ts.Name == tenant {
			return ts.ScanBudget
		}
	}
	t.Fatalf("tenant %s not in stats", tenant)
	return 0
}

func TestStreamingDebitUsesCommittedHeader(t *testing.T) {
	const burst = 1e6
	for _, tc := range []struct {
		name     string
		setEarly bool
		debited  bool
	}{
		{"header before first write is debited", true, true},
		{"header after first flush is lost, not debited", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := New(flushingHandler(tc.setEarly, 5000), Options{Now: newFakeClock().now}) // no refill
			if err := g.RegisterTenant(TenantConfig{
				Name: "proj-s", RatePerSec: 100, ScanCellsPerSec: burst / 10,
			}); err != nil {
				t.Fatal(err)
			}
			rec := get(t, g, "/api/v1/lake/query", map[string]string{"X-ODA-Tenant": "proj-s"})
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d", rec.Code)
			}
			got := scanBudget(t, g, "proj-s")
			if tc.debited && got > burst-5000+10 {
				t.Fatalf("scan budget %v: committed header was not debited", got)
			}
			if !tc.debited && got < burst-10 {
				t.Fatalf("scan budget %v: debited a header the client never saw", got)
			}
		})
	}
}

// TestCQReadsBypassScanBudget: continuous-query reads scan nothing, so
// a tenant whose batch scan budget is exhausted still gets its CQ reads
// (and they skip the admission gate — no heavyPath, no slot).
func TestCQReadsBypassScanBudget(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle("/api/v1/lake/query", stubHandler(5000))
	mux.Handle("/api/v1/cq/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`[]`))
	}))
	g := New(mux, Options{})
	if err := g.RegisterTenant(TenantConfig{
		Name: "proj-c", RatePerSec: 100, ScanCellsPerSec: 10,
	}); err != nil {
		t.Fatal(err)
	}
	hdr := map[string]string{"X-ODA-Tenant": "proj-c"}
	// One expensive scan overdraws the 100-cell budget to -4900.
	if rec := get(t, g, "/api/v1/lake/query", hdr); rec.Code != http.StatusOK {
		t.Fatalf("first scan: status %d", rec.Code)
	}
	if rec := get(t, g, "/api/v1/lake/query", hdr); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overdrawn tenant's batch query: status %d, want 429", rec.Code)
	}
	rec := get(t, g, "/api/v1/cq/cq0123/", hdr)
	if rec.Code != http.StatusOK {
		t.Fatalf("overdrawn tenant's CQ read: status %d, want 200", rec.Code)
	}
	if rec.Header().Get("X-ODA-Quota-Scan-Budget") == "" {
		t.Fatal("CQ response missing quota balance headers")
	}
}

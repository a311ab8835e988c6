package gateway

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odakit/internal/obs"
	"odakit/internal/platform"
)

// stubHandler answers 200 and reports a fixed scan cost the way the
// httpapi query endpoints do — through X-ODA-Query-Cells-Scanned.
func stubHandler(cells int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cells > 0 {
			w.Header().Set("X-ODA-Query-Cells-Scanned", strconv.FormatInt(cells, 10))
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`[]`))
	})
}

func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestUnknownTenantRejected(t *testing.T) {
	g := New(stubHandler(0), Options{})
	for name, hdr := range map[string]map[string]string{
		"no credentials": nil,
		"unknown name":   {"X-ODA-Tenant": "ghost"},
		"unknown key":    {"X-ODA-Key": "nope"},
		"unknown bearer": {"Authorization": "Bearer nope"},
	} {
		rec := get(t, g, "/api/v1/lake/query", hdr)
		if rec.Code != http.StatusUnauthorized {
			t.Fatalf("%s: status = %d, want 401", name, rec.Code)
		}
		if rec.Header().Get("X-ODA-Error") != "unauthorized" {
			t.Fatalf("%s: X-ODA-Error = %q", name, rec.Header().Get("X-ODA-Error"))
		}
	}
}

// TestQuotaExhaustion is the 429 contract test: an exhausted tenant gets
// 429 + Retry-After + the X-ODA-Quota-* balance headers, and recovers
// after refill.
func TestQuotaExhaustion(t *testing.T) {
	clk := newFakeClock()
	g := New(stubHandler(0), Options{Now: clk.now, Registry: obs.NewRegistry()})
	if err := g.RegisterTenant(TenantConfig{Name: "proj-a", RatePerSec: 1, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	hdr := map[string]string{"X-ODA-Tenant": "proj-a"}

	for i := 0; i < 2; i++ {
		rec := get(t, g, "/healthz", hdr)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, rec.Code)
		}
		if rec.Header().Get("X-ODA-Quota-Limit") != "2" {
			t.Fatalf("X-ODA-Quota-Limit = %q, want 2", rec.Header().Get("X-ODA-Quota-Limit"))
		}
		if want := strconv.Itoa(1 - i); rec.Header().Get("X-ODA-Quota-Remaining") != want {
			t.Fatalf("request %d: X-ODA-Quota-Remaining = %q, want %s",
				i, rec.Header().Get("X-ODA-Quota-Remaining"), want)
		}
	}

	rec := get(t, g, "/healthz", hdr)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("exhausted tenant: status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("X-ODA-Error") != "quota" {
		t.Fatalf("X-ODA-Error = %q, want quota", rec.Header().Get("X-ODA-Error"))
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want >= 1s", rec.Header().Get("Retry-After"))
	}
	if rec.Header().Get("X-ODA-Quota-Remaining") != "0" {
		t.Fatalf("X-ODA-Quota-Remaining = %q, want 0", rec.Header().Get("X-ODA-Quota-Remaining"))
	}

	clk.advance(2 * time.Second)
	if rec := get(t, g, "/healthz", hdr); rec.Code != http.StatusOK {
		t.Fatalf("post-refill status = %d", rec.Code)
	}

	snap := g.Stats()
	if len(snap.Tenants) != 1 || snap.Tenants[0].Throttled != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestScanBudgetDebit: scan cost is debited post-paid from the response
// header, and an overdrawn tenant is refused heavy routes (429) while
// cheap routes still pass on request tokens alone.
func TestScanBudgetDebit(t *testing.T) {
	clk := newFakeClock()
	g := New(stubHandler(5000), Options{Now: clk.now})
	err := g.RegisterTenant(TenantConfig{
		Name: "proj-b", RatePerSec: 100, ScanCellsPerSec: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	hdr := map[string]string{"X-ODA-Tenant": "proj-b"}

	// One expensive query overdraws the 1000-cell budget by 4000.
	if rec := get(t, g, "/api/v1/lake/query?metric=m", hdr); rec.Code != http.StatusOK {
		t.Fatalf("first query status = %d", rec.Code)
	}
	rec := get(t, g, "/api/v1/lake/query?metric=m", hdr)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overdrawn tenant heavy route: status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("scan-budget 429 without Retry-After")
	}
	// Cheap routes only need a request token.
	if rec := get(t, g, "/healthz", hdr); rec.Code != http.StatusOK {
		t.Fatalf("cheap route while overdrawn: status = %d", rec.Code)
	}
	// 41 seconds of refill clears the 4000-cell debt.
	clk.advance(41 * time.Second)
	if rec := get(t, g, "/api/v1/lake/query?metric=m", hdr); rec.Code != http.StatusOK {
		t.Fatalf("post-repayment status = %d", rec.Code)
	}
}

func TestAPIKeyResolution(t *testing.T) {
	g := New(stubHandler(0), Options{})
	if err := g.RegisterTenant(TenantConfig{
		Name: "proj-c", RatePerSec: 100, APIKeys: []string{"sekrit"},
	}); err != nil {
		t.Fatal(err)
	}
	for name, hdr := range map[string]map[string]string{
		"bearer":    {"Authorization": "Bearer sekrit"},
		"x-oda-key": {"X-ODA-Key": "sekrit"},
		"name":      {"X-ODA-Tenant": "proj-c"},
	} {
		if rec := get(t, g, "/healthz", hdr); rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d", name, rec.Code)
		}
	}
}

// TestPlatformBackedRegistration grounds tenants in platform capacity:
// a tenant that fits deploys a portal service against its project; one
// that exceeds the platform's physical capacity is refused at
// registration with platform.ErrCapacity.
func TestPlatformBackedRegistration(t *testing.T) {
	p := platform.New(platform.Resources{CPUCores: 4, MemoryGB: 16, StorageGB: 10})
	g := New(stubHandler(0), Options{Platform: p})
	if err := g.RegisterTenant(TenantConfig{Name: "fits", RatePerSec: 100}); err != nil {
		t.Fatal(err)
	}
	u, err := p.Usage("fits")
	if err != nil {
		t.Fatal(err)
	}
	if u.Running != 1 || u.Used.CPUCores != 2 {
		t.Fatalf("platform usage = %+v, want 1 running portal at 2 cores", u)
	}
	// 200 req/s costs 4 cores; only 2 remain.
	err = g.RegisterTenant(TenantConfig{Name: "too-big", RatePerSec: 200})
	if !errors.Is(err, platform.ErrCapacity) {
		t.Fatalf("oversized tenant registration = %v, want ErrCapacity", err)
	}
	if g.TenantCount() != 1 {
		t.Fatalf("tenant count = %d, want 1", g.TenantCount())
	}
	// Duplicate names are refused before touching the platform.
	if err := g.RegisterTenant(TenantConfig{Name: "fits", RatePerSec: 1}); !errors.Is(err, ErrTenant) {
		t.Fatalf("duplicate registration = %v, want ErrTenant", err)
	}
}

// TestGatewayConcurrentQuota hammers one tenant's bucket through the
// full middleware from many goroutines (run under -race): grants never
// exceed burst with a frozen clock, and every refusal is a well-formed
// 429.
func TestGatewayConcurrentQuota(t *testing.T) {
	clk := newFakeClock()
	const burst = 50
	g := New(stubHandler(0), Options{Now: clk.now})
	if err := g.RegisterTenant(TenantConfig{Name: "proj-d", RatePerSec: 1, Burst: burst}); err != nil {
		t.Fatal(err)
	}
	var ok, throttled atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rec := get(t, g, "/healthz", map[string]string{"X-ODA-Tenant": "proj-d"})
				switch rec.Code {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					if rec.Header().Get("X-ODA-Error") != "quota" {
						t.Errorf("429 without quota category")
					}
					throttled.Add(1)
				default:
					t.Errorf("unexpected status %d", rec.Code)
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() != burst {
		t.Fatalf("granted %d, want exactly burst %d", ok.Load(), burst)
	}
	if ok.Load()+throttled.Load() != 16*20 {
		t.Fatalf("accounted %d of %d requests", ok.Load()+throttled.Load(), 16*20)
	}
}

// TestAnonymousTenant: a request with no credentials at all resolves to
// Anonymous only when that tenant is registered; an unknown key or
// tenant name is refused and never falls through to Anonymous.
func TestAnonymousTenant(t *testing.T) {
	g := New(stubHandler(0), Options{})
	if rec := get(t, g, "/healthz", nil); rec.Code != http.StatusUnauthorized {
		t.Fatalf("no credentials, no Anonymous tenant: status = %d, want 401", rec.Code)
	}
	if err := g.RegisterTenant(TenantConfig{Name: Anonymous, RatePerSec: 100}); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, g, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("no credentials: status = %d, want 200 as Anonymous", rec.Code)
	}
	for name, hdr := range map[string]map[string]string{
		"unknown name":     {"X-ODA-Tenant": "ghost"},
		"unknown key":      {"X-ODA-Key": "nope"},
		"unknown bearer":   {"Authorization": "Bearer nope"},
		"non-bearer auth":  {"Authorization": "Basic Zm9vOmJhcg=="},
		"empty bearer key": {"Authorization": "Bearer "},
	} {
		if rec := get(t, g, "/healthz", hdr); rec.Code != http.StatusUnauthorized {
			t.Fatalf("%s with Anonymous registered: status = %d, want 401", name, rec.Code)
		}
	}
	if snap := g.Stats(); snap.Tenants[0].Requests != 1 {
		t.Fatalf("Anonymous served %d requests, want 1", snap.Tenants[0].Requests)
	}
}

// TestSaturatedRequestPassesOnShed: with the admission queue full the
// gateway writes no 503 of its own. The request reaches the handler
// marked shed, holding no slot, through the quota-header path; the
// handler's answer is what the client sees, and the shed is counted.
func TestSaturatedRequestPassesOnShed(t *testing.T) {
	reg := obs.NewRegistry()
	hold := make(chan struct{})
	var shedSeen atomic.Int64
	g := New(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case Shed(r.Context()):
			shedSeen.Add(1)
			w.Header().Set("X-ODA-Stale", "true")
		case r.URL.Path == "/api/v1/lake/hold":
			<-hold
		}
		w.WriteHeader(http.StatusOK)
	}), Options{Registry: reg, Slots: 1, MaxQueue: 1})
	if err := g.RegisterTenant(TenantConfig{Name: "proj-s", RatePerSec: 100}); err != nil {
		t.Fatal(err)
	}
	hdr := map[string]string{"X-ODA-Tenant": "proj-s"}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() { defer wg.Done(); get(t, g, "/api/v1/lake/hold", hdr) }()
	}
	for g.Stats().Queued < 1 {
		time.Sleep(time.Millisecond)
	}
	rec := get(t, g, "/api/v1/lake/query", hdr)
	if rec.Code != http.StatusOK || rec.Header().Get("X-ODA-Stale") != "true" || rec.Header().Get("X-ODA-Quota-Limit") == "" {
		t.Fatalf("shed request: status %d, stale %q, quota limit %q; want the handler's stale 200 with quota headers",
			rec.Code, rec.Header().Get("X-ODA-Stale"), rec.Header().Get("X-ODA-Quota-Limit"))
	}
	// Cheap routes are never shed.
	if rec := get(t, g, "/healthz", hdr); rec.Code != http.StatusOK || shedSeen.Load() != 1 {
		t.Fatalf("cheap route: status %d, shed requests seen %d", rec.Code, shedSeen.Load())
	}
	if g.Stats().Queued != 1 {
		t.Fatal("a shed request took a place in the queue")
	}
	close(hold)
	wg.Wait()
	if n := reg.Counter("oda_gateway_shed_total", "").Value(); n != 1 {
		t.Fatalf("oda_gateway_shed_total = %d, want 1", n)
	}
}

// TestRunLoadCountsStale: a 200 marked X-ODA-Stale is counted as stale,
// not as a fresh OK, in the run and per tenant.
func TestRunLoadCountsStale(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("seq") {
		case "0":
			w.Header().Set("X-ODA-Stale", "true")
		case "1":
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte(`[]`))
	})
	res := RunLoad(h, Scenario{
		Clients: 4, RequestsPerClient: 4,
		Mix:  []TenantShare{{Tenant: "a", Weight: 1}, {Tenant: "b", Weight: 1}},
		Path: func(_, seq int) string { return "/api/v1/lake/query?seq=" + strconv.Itoa(seq) },
	})
	if res.OK != 8 || res.Stale != 4 || res.Shed != 4 || res.StaleRate() != 0.25 {
		t.Fatalf("ok %d stale %d shed %d stale rate %v; want 8 / 4 / 4 / 0.25", res.OK, res.Stale, res.Shed, res.StaleRate())
	}
	for name, tl := range res.Tenants {
		if tl.OK != 4 || tl.Stale != 2 || tl.Shed != 2 {
			t.Fatalf("tenant %s: %+v, want 4 ok, 2 stale, 2 shed", name, tl)
		}
	}
}

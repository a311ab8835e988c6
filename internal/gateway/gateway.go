// Package gateway is the multi-tenant serving layer in front of the
// httpapi portal (§V-C: projects share the platform's web-facing data
// services, so one tenant's dashboard refresh storm must not starve
// another's). It layers three controls over the wrapped handler:
//
//   - Tenancy: requests resolve to a registered tenant via API key
//     (Authorization: Bearer or X-ODA-Key) or the X-ODA-Tenant header;
//     a request with no credentials at all resolves to the Anonymous
//     tenant when one is registered. Unknown callers get 401.
//   - Quotas: per-tenant token buckets on request rate and on scan cost
//     (debited post-paid with the X-ODA-Query-Cells-Scanned the engine
//     reports). Exhausted tenants get 429 + Retry-After, and every
//     response carries X-ODA-Quota-* balance headers.
//   - Admission: heavy query routes pass a priority-ordered admission
//     gate, so urgent tenants queue ahead of batch. The gate's full
//     queue is the one overload decision: the request is not queued but
//     passed on holding no slot and marked shed (see Shed), and the
//     wrapped handler answers it without a fresh scan. Waiters cancel
//     with the request context.
//
// Tenant registrations are backed by platform allocations: registering
// a tenant deploys a "portal" service against the tenant's project
// quota, so admission envelopes are grounded in the same capacity
// accounting every other platform service uses.
package gateway

import (
	"context"
	"errors"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odakit/internal/obs"
	"odakit/internal/platform"
)

// TenantConfig describes one tenant's serving envelope.
type TenantConfig struct {
	Name     string
	Priority Priority
	// RatePerSec sustains the request token bucket; Burst caps it
	// (default: RatePerSec rounded up, minimum 1).
	RatePerSec float64
	Burst      float64
	// ScanCellsPerSec sustains the scan-cost budget, which holds at
	// most 10 seconds of it. Zero disables scan metering.
	ScanCellsPerSec float64
	// APIKeys are bearer credentials resolving to this tenant. The
	// tenant name itself works via the X-ODA-Tenant header.
	APIKeys []string
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Burst <= 0 {
		c.Burst = math.Max(1, math.Ceil(c.RatePerSec))
	}
	return c
}

// tenant is the live state behind a TenantConfig.
type tenant struct {
	cfg  TenantConfig
	reqs *bucket
	scan *bucket // nil when scan metering is disabled

	requests  atomic.Uint64
	throttled atomic.Uint64

	mRequests  *obs.Counter
	mThrottled *obs.Counter
	mScanCells *obs.Counter
}

// Options configures a Gateway.
type Options struct {
	// Platform backs tenant registrations with project allocations.
	// Optional: without it tenants are purely in-memory.
	Platform *platform.Platform
	// Registry receives the oda_gateway_* metric families. Optional.
	Registry *obs.Registry
	// Slots bounds concurrently admitted heavy queries; default 16.
	// Sizing it to tsdb.DB.ScanSlotCap matches admitted queries to the
	// engine's fan-out budget.
	Slots int
	// MaxQueue bounds admission waiters before shedding (default 4×Slots).
	MaxQueue int
	// Now is the clock used by the token buckets (tests).
	Now func() time.Time
}

// Gateway wraps an http.Handler with tenancy, quotas, and admission.
type Gateway struct {
	next  http.Handler
	opts  Options
	admit *admitter

	mu      sync.RWMutex
	tenants map[string]*tenant // by name
	byKey   map[string]*tenant // by API key

	mUnauthorized *obs.Counter
	mShed         *obs.Counter
	mWait         *obs.Histogram
}

// New wraps next with a gateway.
func New(next http.Handler, opts Options) *Gateway {
	if opts.Slots <= 0 {
		opts.Slots = 16
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	g := &Gateway{
		next:    next,
		opts:    opts,
		admit:   newAdmitter(opts.Slots, opts.MaxQueue),
		tenants: make(map[string]*tenant),
		byKey:   make(map[string]*tenant),
	}
	if reg := opts.Registry; reg != nil {
		g.mUnauthorized = reg.Counter("oda_gateway_unauthorized_total",
			"Requests rejected for missing or unknown tenant credentials.")
		g.mShed = reg.Counter("oda_gateway_shed_total",
			"Heavy requests passed on shed, holding no slot, because the admission queue was full.")
		g.mWait = reg.Histogram("oda_gateway_admission_wait_seconds",
			"Time heavy queries spent queued at the admission gate.", obs.LatencySeconds())
		reg.RegisterCollector(func(emit func(obs.Sample)) {
			emit(obs.Sample{Name: "oda_gateway_queue_depth", Kind: obs.KindGauge,
				Help:  "Heavy queries currently waiting at the admission gate.",
				Value: float64(g.admit.Queued())})
			emit(obs.Sample{Name: "oda_gateway_tenants", Kind: obs.KindGauge,
				Help: "Registered tenants.", Value: float64(g.TenantCount())})
		})
	}
	return g
}

// portalCost converts a tenant's serving envelope into the platform
// footprint its registration reserves: a core per 50 sustained req/s
// plus a core per 5M scan cells/s, a GB of memory per 100 requests of
// burst headroom, and a flat GB of storage for the portal itself.
// Deliberately coarse — the point is that admission envelopes draw from
// the same project quotas as every other platform service, not that the
// constants model real hardware.
func portalCost(cfg TenantConfig) platform.Resources {
	return platform.Resources{
		CPUCores:  cfg.RatePerSec/50 + cfg.ScanCellsPerSec/5e6,
		MemoryGB:  math.Max(0.25, cfg.Burst/100),
		StorageGB: 1,
	}
}

// RegisterTenant admits a tenant, backing it with a platform project
// and a deployed "portal" service when a platform is configured.
// Registration fails if the platform cannot fit the tenant's footprint
// (platform.ErrQuota / platform.ErrCapacity) — capacity refusal happens
// at registration time, not per-request.
func (g *Gateway) RegisterTenant(cfg TenantConfig) error {
	cfg = cfg.withDefaults()
	if cfg.Name == "" || cfg.RatePerSec <= 0 {
		return ErrTenant
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.tenants[cfg.Name]; ok {
		return ErrTenant
	}
	if p := g.opts.Platform; p != nil {
		req := portalCost(cfg)
		if err := p.CreateProject(cfg.Name, req, 0); err != nil {
			return err
		}
		if _, err := p.Deploy(cfg.Name, "portal", req); err != nil {
			return err
		}
	}
	t := &tenant{
		cfg:  cfg,
		reqs: newBucket(cfg.RatePerSec, cfg.Burst, g.opts.Now),
	}
	if cfg.ScanCellsPerSec > 0 {
		t.scan = newBucket(cfg.ScanCellsPerSec, 10*cfg.ScanCellsPerSec, g.opts.Now)
	}
	if reg := g.opts.Registry; reg != nil {
		t.mRequests = reg.Counter("oda_gateway_requests_total"+obs.Labels("tenant", cfg.Name),
			"Requests handled per tenant (any status).")
		t.mThrottled = reg.Counter("oda_gateway_throttled_total"+obs.Labels("tenant", cfg.Name),
			"Requests answered 429 per tenant (rate or scan quota).")
		t.mScanCells = reg.Counter("oda_gateway_scan_cells_total"+obs.Labels("tenant", cfg.Name),
			"LAKE cells scanned on a tenant's behalf and debited from its scan budget.")
	}
	g.tenants[cfg.Name] = t
	for _, k := range cfg.APIKeys {
		g.byKey[k] = t
	}
	return nil
}

// ErrTenant covers invalid or duplicate tenant registrations.
var ErrTenant = errors.New("gateway: invalid or duplicate tenant")

// TenantCount reports registered tenants.
func (g *Gateway) TenantCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.tenants)
}

// Anonymous is the tenant a request carrying no credentials at all
// resolves to, when it is registered. A request with an unknown key or
// tenant name is refused, never demoted to Anonymous.
const Anonymous = "anonymous"

// shedKey marks a request's context as shed; only ServeHTTP sets it.
type shedKey struct{}

// Shed reports whether the gateway passed this request on shed (its
// admission queue was full): it holds no slot, and the handler must
// answer it without a fresh scan — stale, or 503 + Retry-After.
func Shed(ctx context.Context) bool {
	shed, _ := ctx.Value(shedKey{}).(bool)
	return shed
}

// resolve maps a request onto a tenant: bearer/X-ODA-Key API keys win,
// then the X-ODA-Tenant name header; no credentials at all is Anonymous.
func (g *Gateway) resolve(r *http.Request) *tenant {
	g.mu.RLock()
	defer g.mu.RUnlock()
	auth, key, name := r.Header.Get("Authorization"), r.Header.Get("X-ODA-Key"), r.Header.Get("X-ODA-Tenant")
	if auth == "" && key == "" && name == "" {
		return g.tenants[Anonymous]
	}
	if len(auth) > 7 && auth[:7] == "Bearer " {
		if t := g.byKey[auth[7:]]; t != nil {
			return t
		}
	}
	if key != "" {
		if t := g.byKey[key]; t != nil {
			return t
		}
	}
	return g.tenants[name]
}

// heavyPath reports whether a route passes the admission gate and is
// debited scan cost: the LAKE-scanning query endpoints. Cheap metadata
// routes only pay a request token. Continuous-query routes
// (/api/v1/cq...) are deliberately NOT heavy: a CQ read is an in-memory
// fold over a standing view — it scans zero LAKE cells — so it bypasses
// scan-slot admission and scan-budget refusal entirely, and stays fast
// even for tenants whose batch-query budget is exhausted.
func heavyPath(p string) bool {
	return strings.HasPrefix(p, "/api/v1/lake/") || p == "/api/v1/query" || p == "/api/v1/logs/search"
}

// quotaError answers with the httpapi error envelope plus quota headers.
func quotaError(w http.ResponseWriter, status int, category, msg string, retry time.Duration) {
	w.Header().Set("X-ODA-Error", category)
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write([]byte(`{"error":` + strconv.Quote(msg) + "}\n"))
}

// quotaWriter injects the per-tenant X-ODA-Quota-* balance headers just
// before the wrapped handler commits its status, so the values reflect
// this request's token. It forwards Flush for the streaming path.
//
// It also snapshots X-ODA-Query-Cells-Scanned at commit time: streaming
// handlers flush every streamFlushEvery points, and once the first
// chunk is on the wire the header map no longer reflects what the
// client saw — a value set (or cleared) after the first flush is
// silently lost. Debiting from the committed snapshot instead of the
// post-handler header map makes the scan charge match the headers the
// engine actually sent, however long the body streamed afterwards.
type quotaWriter struct {
	http.ResponseWriter
	t         *tenant
	wrote     bool
	scanCells float64 // X-ODA-Query-Cells-Scanned at commit
}

func (qw *quotaWriter) WriteHeader(code int) {
	if !qw.wrote {
		qw.wrote = true
		if v := qw.Header().Get("X-ODA-Query-Cells-Scanned"); v != "" {
			if cells, err := strconv.ParseFloat(v, 64); err == nil {
				qw.scanCells = cells
			}
		}
		setQuotaHeaders(qw.Header(), qw.t)
	}
	qw.ResponseWriter.WriteHeader(code)
}

func (qw *quotaWriter) Write(b []byte) (int, error) {
	if !qw.wrote {
		qw.WriteHeader(http.StatusOK)
	}
	return qw.ResponseWriter.Write(b)
}

func (qw *quotaWriter) Flush() {
	if f, ok := qw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// setQuotaHeaders writes the tenant's live balances: request burst
// ceiling, remaining request tokens, and remaining scan-cell budget.
func setQuotaHeaders(h http.Header, t *tenant) {
	h.Set("X-ODA-Quota-Limit", strconv.Itoa(int(t.cfg.Burst)))
	h.Set("X-ODA-Quota-Remaining", strconv.Itoa(int(math.Max(0, t.reqs.level()))))
	if t.scan != nil {
		h.Set("X-ODA-Quota-Scan-Budget", strconv.FormatInt(int64(t.scan.level()), 10))
	}
}

// ServeHTTP implements http.Handler: resolve tenant, charge quota,
// admit, execute, debit scan cost.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := g.resolve(r)
	if t == nil {
		g.mUnauthorized.Inc()
		quotaError(w, http.StatusUnauthorized, "unauthorized",
			"unknown tenant: supply X-ODA-Tenant or an API key", 0)
		return
	}
	t.requests.Add(1)
	t.mRequests.Inc()
	if !t.reqs.take(1) {
		throttle(w, t, t.reqs, "request rate")
		return
	}
	heavy := heavyPath(r.URL.Path)
	if t.scan != nil && heavy && t.scan.level() <= 0 {
		// Post-paid overdraft from earlier expensive scans: refuse heavy
		// work until refill pays the debt down past zero.
		throttle(w, t, t.scan, "scan budget")
		return
	}
	if heavy {
		start := g.opts.Now()
		err := g.admit.Acquire(r.Context(), t.cfg.Priority)
		g.mWait.Observe(g.opts.Now().Sub(start).Seconds())
		switch err {
		case nil:
			defer g.admit.Release()
		case ErrSaturated:
			g.mShed.Inc()
			r = r.WithContext(context.WithValue(r.Context(), shedKey{}, true))
		default:
			// Client went away while queued; nothing to answer.
			return
		}
	}
	qw := &quotaWriter{ResponseWriter: w, t: t}
	g.next.ServeHTTP(qw, r)
	if t.scan != nil && heavy && qw.scanCells > 0 {
		t.scan.debit(qw.scanCells)
		t.mScanCells.Add(int64(qw.scanCells))
	}
}

// throttle answers 429 to a tenant that is over one of its buckets.
func throttle(w http.ResponseWriter, t *tenant, b *bucket, what string) {
	t.throttled.Add(1)
	t.mThrottled.Inc()
	setQuotaHeaders(w.Header(), t)
	quotaError(w, http.StatusTooManyRequests, "quota", "tenant "+t.cfg.Name+" over "+what, b.retryAfter(1))
}

// TenantSnapshot is one tenant's live serving state.
type TenantSnapshot struct {
	Name       string  `json:"name"`
	Priority   string  `json:"priority"`
	Requests   uint64  `json:"requests"`
	Throttled  uint64  `json:"throttled"`
	Remaining  float64 `json:"remaining"`
	ScanBudget float64 `json:"scan_budget"`
}

// Snapshot reports per-tenant counters and the admission queue depth
// (the dashboard footer's gateway line).
type Snapshot struct {
	Tenants []TenantSnapshot `json:"tenants"`
	Queued  int              `json:"queued"`
}

// Stats returns a point-in-time snapshot, tenants by name.
func (g *Gateway) Stats() Snapshot {
	snap := Snapshot{Queued: g.admit.Queued()}
	g.mu.RLock()
	for n, t := range g.tenants {
		ts := TenantSnapshot{
			Name: n, Priority: t.cfg.Priority.String(),
			Requests: t.requests.Load(), Throttled: t.throttled.Load(),
			Remaining: math.Max(0, t.reqs.level()),
		}
		if t.scan != nil {
			ts.ScanBudget = t.scan.level()
		}
		snap.Tenants = append(snap.Tenants, ts)
	}
	g.mu.RUnlock()
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Name < snap.Tenants[j].Name })
	return snap
}

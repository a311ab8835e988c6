package gateway

// Open/closed-loop load harness for the serving gateway. It drives an
// http.Handler in-process (no sockets), so tens of thousands of
// simulated concurrent clients cost one goroutine each and the measured
// latency is the serving stack itself — tenant resolution, quota,
// admission, query execution, encode — not kernel TCP behavior.

import (
	"net/http"
	"sort"
	"sync"
	"time"
)

// TenantShare weights how a scenario's clients are spread over tenants.
type TenantShare struct {
	Tenant string
	Weight int
}

// Scenario describes one load-harness run.
type Scenario struct {
	Name    string
	Clients int
	// RequestsPerClient issued by each simulated client.
	RequestsPerClient int
	// Mix spreads clients over tenants proportionally to Weight.
	Mix []TenantShare
	// Path generates the request path for (client, seq); defaults to a
	// fixed lake query.
	Path func(client, seq int) string
	// OpenLoop fires each client's requests on a fixed arrival interval
	// without waiting for responses (arrival rate independent of service
	// rate — the configuration that exposes queueing collapse). Closed
	// loop (default) waits for each response before the next request.
	OpenLoop        bool
	ArrivalInterval time.Duration
}

// TenantLoad aggregates one tenant's outcomes within a run. OK counts
// fresh 200s; Stale counts 200s marked X-ODA-Stale (a shed request
// answered from the stale cache).
type TenantLoad struct {
	Requests  int     `json:"requests"`
	OK        int     `json:"ok"`
	Stale     int     `json:"stale"`
	Throttled int     `json:"throttled_429"`
	Shed      int     `json:"shed_503"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// Result is one scenario's aggregate outcome; OK and Stale split the
// 200s as TenantLoad's do.
type Result struct {
	Scenario  string                 `json:"scenario"`
	Clients   int                    `json:"clients"`
	Requests  int                    `json:"requests"`
	OK        int                    `json:"ok"`
	Stale     int                    `json:"stale"`
	Throttled int                    `json:"throttled_429"`
	Shed      int                    `json:"shed_503"`
	Other     int                    `json:"other"`
	WallMs    float64                `json:"wall_ms"`
	P50Ms     float64                `json:"p50_ms"`
	P95Ms     float64                `json:"p95_ms"`
	P99Ms     float64                `json:"p99_ms"`
	Tenants   map[string]*TenantLoad `json:"tenants"`
}

// ThrottleRate, StaleRate and ShedRate are the fractions of requests
// answered 429, 200 from the stale cache, and 503.
func (r Result) ThrottleRate() float64 { return r.rate(r.Throttled) }
func (r Result) StaleRate() float64    { return r.rate(r.Stale) }
func (r Result) ShedRate() float64     { return r.rate(r.Shed) }

func (r Result) rate(n int) float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(n) / float64(r.Requests)
}

// sample is one completed request.
type sample struct {
	tenant  int
	status  int
	stale   bool
	latency time.Duration
}

// nullWriter discards bodies; the harness only needs status codes and
// the X-ODA-Stale mark.
type nullWriter struct {
	h      http.Header
	status int
}

func (n *nullWriter) Header() http.Header { return n.h }
func (n *nullWriter) Write(b []byte) (int, error) {
	if n.status == 0 {
		n.status = http.StatusOK
	}
	return len(b), nil
}
func (n *nullWriter) WriteHeader(code int) {
	if n.status == 0 {
		n.status = code
	}
}

// RunLoad executes a scenario against a handler and aggregates outcomes.
func RunLoad(h http.Handler, sc Scenario) Result {
	if sc.Clients <= 0 {
		sc.Clients = 1
	}
	if sc.RequestsPerClient <= 0 {
		sc.RequestsPerClient = 1
	}
	if len(sc.Mix) == 0 {
		sc.Mix = []TenantShare{{Tenant: "", Weight: 1}}
	}
	path := sc.Path
	if path == nil {
		path = func(int, int) string { return "/api/v1/lake/query?metric=node_power_w" }
	}
	totalWeight := 0
	for _, m := range sc.Mix {
		if m.Weight > 0 {
			totalWeight += m.Weight
		}
	}
	if totalWeight == 0 {
		totalWeight = 1
	}
	// clientTenant maps a client index onto its tenant slot by weight.
	clientTenant := func(c int) int {
		slot := c * totalWeight / sc.Clients
		for i, m := range sc.Mix {
			if m.Weight <= 0 {
				continue
			}
			if slot < m.Weight {
				return i
			}
			slot -= m.Weight
		}
		return len(sc.Mix) - 1
	}

	samples := make([]sample, sc.Clients*sc.RequestsPerClient)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(sc.Clients)
	for c := 0; c < sc.Clients; c++ {
		go func(c int) {
			defer wg.Done()
			ti := clientTenant(c)
			tenantName := sc.Mix[ti].Tenant
			var inner sync.WaitGroup
			for seq := 0; seq < sc.RequestsPerClient; seq++ {
				fire := func(seq int) {
					req, err := http.NewRequest(http.MethodGet, path(c, seq), nil)
					if err != nil {
						return
					}
					if tenantName != "" {
						req.Header.Set("X-ODA-Tenant", tenantName)
					}
					w := &nullWriter{h: http.Header{}}
					t0 := time.Now()
					h.ServeHTTP(w, req)
					samples[c*sc.RequestsPerClient+seq] = sample{
						tenant: ti, status: w.status, latency: time.Since(t0),
						stale: w.h.Get("X-ODA-Stale") == "true",
					}
				}
				if sc.OpenLoop {
					inner.Add(1)
					go func(seq int) { defer inner.Done(); fire(seq) }(seq)
					if sc.ArrivalInterval > 0 {
						time.Sleep(sc.ArrivalInterval)
					}
				} else {
					fire(seq)
				}
			}
			inner.Wait()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	res := Result{
		Scenario: sc.Name, Clients: sc.Clients, Requests: len(samples),
		WallMs: float64(wall.Milliseconds()), Tenants: map[string]*TenantLoad{},
	}
	perTenant := make([][]time.Duration, len(sc.Mix))
	var all []time.Duration
	for i := range samples {
		s := samples[i]
		name := sc.Mix[s.tenant].Tenant
		tl := res.Tenants[name]
		if tl == nil {
			tl = &TenantLoad{}
			res.Tenants[name] = tl
		}
		tl.Requests++
		switch {
		case s.status == http.StatusOK && s.stale:
			res.Stale++
			tl.Stale++
		case s.status == http.StatusOK:
			res.OK++
			tl.OK++
		case s.status == http.StatusTooManyRequests:
			res.Throttled++
			tl.Throttled++
		case s.status == http.StatusServiceUnavailable:
			res.Shed++
			tl.Shed++
		default:
			res.Other++
		}
		perTenant[s.tenant] = append(perTenant[s.tenant], s.latency)
		all = append(all, s.latency)
	}
	res.P50Ms, res.P95Ms, res.P99Ms = percentilesMs(all)
	for i, m := range sc.Mix {
		if tl := res.Tenants[m.Tenant]; tl != nil {
			tl.P50Ms, tl.P95Ms, tl.P99Ms = percentilesMs(perTenant[i])
		}
	}
	return res
}

// percentilesMs returns p50/p95/p99 in milliseconds.
func percentilesMs(d []time.Duration) (p50, p95, p99 float64) {
	if len(d) == 0 {
		return 0, 0, 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	at := func(p float64) float64 {
		i := int(p * float64(len(d)-1))
		return float64(d[i]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.95), at(0.99)
}

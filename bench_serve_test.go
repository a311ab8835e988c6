package oda

// Serving-gateway benchmark: drives the full multi-tenant stack —
// tenant resolution, token buckets, priority admission, the httpapi
// query path — with the in-process load harness at >= 10k simulated
// concurrent clients per scenario. Four tenant mixes cover the cases
// the gateway exists for: a uniform interactive fleet, a mixed-priority
// population contending at the admission gate, an open-loop surge, and a
// noisy neighbor burning through its quota next to a well-behaved victim.
// Each row in BENCH_serve.json (via `make bench-serve`) carries
// p50/p95/p99 latency, the fresh / stale / 429 / 503 split (a request the
// gateway sheds is answered stale or 503), and — for the victim tenant —
// loaded p99 against its unloaded baseline (the isolation acceptance bar
// is 2x).

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odakit/internal/core"
	"odakit/internal/gateway"
	"odakit/internal/httpapi"
	"odakit/internal/telemetry"
)

var (
	serveOnce    sync.Once
	servePortal  http.Handler
	serveErr     error
	serveScanCap int
)

// servePortalHandler builds the shared facility + httpapi stack once:
// 8 nodes, one ingested minute — enough data that queries do real work,
// small enough that 30k+ of them finish in benchmark time.
func servePortalHandler(b *testing.B) http.Handler {
	b.Helper()
	serveOnce.Do(func() {
		sys := telemetry.FrontierLike(17).Scaled(8)
		sys.LossRate = 0
		f, err := core.NewFacility(core.Options{
			System: sys, WorkloadSeed: 17,
			ScheduleFrom: benchT0.Add(-time.Hour), ScheduleTo: benchT0.Add(2 * time.Hour),
		})
		if err != nil {
			serveErr = err
			return
		}
		if _, err := f.IngestWindow(context.Background(), benchT0, benchT0.Add(time.Minute), telemetry.SourcePowerTemp); err != nil {
			serveErr = err
			return
		}
		servePortal = httpapi.New(f)
		serveScanCap = f.Lake.ScanSlotCap()
	})
	if serveErr != nil {
		b.Fatal(serveErr)
	}
	return servePortal
}

func serveQueryPath(granularity string) string {
	return "/api/v1/lake/query?metric=node_power_w&agg=avg&granularity=" + granularity +
		"&from=" + url.QueryEscape(benchT0.Format(time.RFC3339)) +
		"&to=" + url.QueryEscape(benchT0.Add(time.Minute).Format(time.RFC3339))
}

// unloadedP99 measures a tenant's solo closed-loop p99 on a fresh
// gateway with no competing traffic — the baseline the loaded runs are
// compared against.
func unloadedP99(h http.Handler, cfg gateway.TenantConfig, path string) float64 {
	g := gateway.New(h, gateway.Options{Slots: serveScanCap})
	cfg.RatePerSec, cfg.Burst = 1e9, 1e9 // baseline must never throttle
	_ = g.RegisterTenant(cfg)
	res := gateway.RunLoad(g, gateway.Scenario{
		Name: "baseline", Clients: 4, RequestsPerClient: 50,
		Mix:  []gateway.TenantShare{{Tenant: cfg.Name, Weight: 1}},
		Path: func(int, int) string { return path },
	})
	return res.P99Ms
}

// BenchmarkGatewayServe runs the three tenant-mix scenarios. Use
// -benchtime 1x: the harness controls its own request volume.
func BenchmarkGatewayServe(b *testing.B) {
	h := servePortalHandler(b)
	path := serveQueryPath("15s")

	type scenario struct {
		name    string
		tenants []gateway.TenantConfig
		sc      gateway.Scenario
		victim  string // tenant whose loaded p99 is compared to baseline
		slots   int    // admission slots override (0 = lake scan-slot cap)
		maxQ    int    // admission queue override (0 = gateway default)
		path    func(client, seq int) string
		// delay injects synthetic backend latency behind the gate,
		// modeling slow cold-tier scans: the only way arrivals can outrun
		// service (and the queue actually build) when the real fixture
		// answers in microseconds. A shed request scans nothing, so it
		// does not pay it.
		delay time.Duration
	}
	scenarios := []scenario{
		{
			// Homogeneous interactive fleet on one warm query shape. Its
			// 10k closed-loop clients outrun the default queue (4x the scan
			// slots) whenever more than one core serves them, so at 2 cores
			// most requests are shed and answered from the stale cache: the
			// row is the shed path's cost as much as serving overhead.
			name: "uniform_interactive_10k",
			tenants: []gateway.TenantConfig{
				{Name: "dashboards", Priority: gateway.PriorityInteractive,
					RatePerSec: 1e6, Burst: 1e6},
			},
			sc: gateway.Scenario{
				Clients: 10_000, RequestsPerClient: 3,
				Mix: []gateway.TenantShare{{Tenant: "dashboards", Weight: 1}},
			},
		},
		{
			// Mixed priorities through a narrow admission gate with
			// cache-busting windows: every query misses the result cache
			// and does real scan work, so the row reports serving latency
			// under contention rather than cache-hit echo times (and a
			// shed query has no stale answer: it is a 503).
			name: "mixed_priority_12k",
			tenants: []gateway.TenantConfig{
				{Name: "dashboards", Priority: gateway.PriorityInteractive,
					RatePerSec: 1e6, Burst: 1e6},
				{Name: "batch-analytics", Priority: gateway.PriorityBatch,
					RatePerSec: 1e6, Burst: 1e6},
				{Name: "oncall", Priority: gateway.PriorityUrgent,
					RatePerSec: 1e6, Burst: 1e6},
			},
			sc: gateway.Scenario{
				Clients: 12_000, RequestsPerClient: 2,
				Mix: []gateway.TenantShare{
					{Tenant: "dashboards", Weight: 6},
					{Tenant: "batch-analytics", Weight: 3},
					{Tenant: "oncall", Weight: 1},
				},
			},
			victim: "oncall",
			slots:  2, maxQ: 16,
			path: func(c, seq int) string {
				// Shift the window start by a unique millisecond offset per
				// request so every query has a distinct fingerprint, misses
				// the result cache, and must take a scan slot.
				off := time.Duration(c*2+seq) * time.Millisecond
				return "/api/v1/lake/query?metric=node_power_w&agg=avg&granularity=1s" +
					"&from=" + url.QueryEscape(benchT0.Add(off).Format(time.RFC3339Nano)) +
					"&to=" + url.QueryEscape(benchT0.Add(time.Minute).Format(time.RFC3339))
			},
		},
		{
			// Open-loop surge: every request fired at arrival time without
			// waiting for responses, so ~20k requests hit the admission
			// gate at once while 2ms (synthetic cold-tier) queries hold
			// its slots. The gate sheds the excess instead of letting the
			// scan pool collapse — every request is the one warm shape, so
			// a shed one is answered stale — and the shed rate here IS the
			// success criterion, not a failure.
			name: "surge_open_loop_10k",
			tenants: []gateway.TenantConfig{
				{Name: "dashboards", Priority: gateway.PriorityInteractive,
					RatePerSec: 1e6, Burst: 1e6},
				{Name: "batch-analytics", Priority: gateway.PriorityBatch,
					RatePerSec: 1e6, Burst: 1e6},
				{Name: "oncall", Priority: gateway.PriorityUrgent,
					RatePerSec: 1e6, Burst: 1e6},
			},
			sc: gateway.Scenario{
				Clients: 10_000, RequestsPerClient: 2,
				Mix: []gateway.TenantShare{
					{Tenant: "dashboards", Weight: 6},
					{Tenant: "batch-analytics", Weight: 3},
					{Tenant: "oncall", Weight: 1},
				},
				OpenLoop: true,
			},
			slots: 4, maxQ: 32, delay: 2 * time.Millisecond,
		},
		{
			// Noisy neighbor: "greedy" exhausts a small quota (most of
			// its traffic answers 429); "victim" must keep its p99.
			name: "noisy_neighbor_10k",
			tenants: []gateway.TenantConfig{
				{Name: "greedy", Priority: gateway.PriorityBatch,
					RatePerSec: 100, Burst: 500},
				{Name: "victim", Priority: gateway.PriorityInteractive,
					RatePerSec: 1e6, Burst: 1e6},
			},
			sc: gateway.Scenario{
				Clients: 10_000, RequestsPerClient: 3,
				Mix: []gateway.TenantShare{
					{Tenant: "greedy", Weight: 4},
					{Tenant: "victim", Weight: 1},
				},
			},
			victim: "victim",
		},
	}

	for _, sn := range scenarios {
		b.Run(sn.name, func(b *testing.B) {
			var res gateway.Result
			var shed atomic.Int64 // requests the gateway passed on shed
			var baseline float64
			if sn.victim != "" {
				for _, tc := range sn.tenants {
					if tc.Name == sn.victim {
						baseline = unloadedP99(h, tc, path)
					}
				}
			}
			for i := 0; i < b.N; i++ {
				slots := sn.slots
				if slots == 0 {
					slots = serveScanCap
				}
				shed.Store(0)
				backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if gateway.Shed(r.Context()) {
						shed.Add(1)
					} else if sn.delay > 0 {
						time.Sleep(sn.delay)
					}
					h.ServeHTTP(w, r)
				})
				g := gateway.New(backend, gateway.Options{Slots: slots, MaxQueue: sn.maxQ})
				for _, tc := range sn.tenants {
					if err := g.RegisterTenant(tc); err != nil {
						b.Fatal(err)
					}
				}
				sc := sn.sc
				sc.Name = sn.name
				sc.Path = sn.path
				if sc.Path == nil {
					sc.Path = func(int, int) string { return path }
				}
				res = gateway.RunLoad(g, sc)
			}
			// Unshed requests are never stale and, on one engine, never
			// 503: every shed request is one of the two.
			if n := int(shed.Load()); n != res.Stale+res.Shed {
				b.Errorf("%d requests shed, %d answered stale + %d answered 503", n, res.Stale, res.Shed)
			}
			b.ReportMetric(res.P99Ms, "p99-ms")
			b.ReportMetric(100*res.StaleRate(), "%stale")
			b.ReportMetric(100*res.ThrottleRate(), "%429")
			b.ReportMetric(100*res.ShedRate(), "%503")
			row := map[string]any{
				"clients":    res.Clients,
				"requests":   res.Requests,
				"ok":         res.OK,
				"stale":      res.Stale,
				"throttled":  res.Throttled,
				"shed":       res.Shed,
				"rate_stale": res.StaleRate(),
				"rate_429":   res.ThrottleRate(),
				"rate_503":   res.ShedRate(),
				"p50_ms":     res.P50Ms,
				"p95_ms":     res.P95Ms,
				"p99_ms":     res.P99Ms,
				"wall_ms":    res.WallMs,
			}
			if sn.victim != "" {
				v := res.Tenants[sn.victim]
				row["victim"] = sn.victim
				row["victim_p99_ms"] = v.P99Ms
				row["victim_unloaded_p99_ms"] = baseline
				if baseline > 0 {
					row["victim_p99_ratio"] = v.P99Ms / baseline
				}
				row["victim_throttled"] = v.Throttled
			}
			recordBenchRow("GatewayServe/"+sn.name, row)
			printOnce("serve "+sn.name, fmt.Sprintf(
				"%d clients: ok=%d stale=%.1f%% 429=%.1f%% 503=%.1f%% p50=%.2fms p99=%.2fms",
				res.Clients, res.OK, 100*res.StaleRate(), 100*res.ThrottleRate(), 100*res.ShedRate(),
				res.P50Ms, res.P99Ms))
		})
	}
}

// odaload drives the multi-tenant serving gateway with an in-process
// open/closed-loop load harness: it stands up a facility, fronts the
// portal with the gateway, registers a tenant mix, and simulates
// thousands of concurrent clients, reporting p50/p95/p99 latency and
// 429/503 rates per scenario and per tenant.
//
// Usage:
//
//	odaload -clients 10000 -requests 5
//	odaload -clients 20000 -requests 3 -open -interval 1ms
//	odaload -nodes 8 -minutes 2 -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/url"
	"os"
	"time"

	oda "odakit"
	"odakit/internal/gateway"
	"odakit/internal/httpapi"
)

func main() {
	log.SetFlags(0)
	var (
		clients  = flag.Int("clients", 10000, "simulated concurrent clients")
		requests = flag.Int("requests", 3, "requests per client")
		nodes    = flag.Int("nodes", 8, "machine scale in nodes")
		minutes  = flag.Int("minutes", 2, "telemetry window to ingest")
		seed     = flag.Int64("seed", 1, "seed")
		open     = flag.Bool("open", false, "open loop (fire on arrival schedule, don't wait)")
		interval = flag.Duration("interval", time.Millisecond, "open-loop arrival interval per client")
		asJSON   = flag.Bool("json", false, "emit results as JSON")
	)
	flag.Parse()

	f, err := oda.NewFacility(oda.Options{
		System: oda.FrontierLike(*seed).Scaled(*nodes), WorkloadSeed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	from := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(time.Duration(*minutes) * time.Minute)
	if _, err := f.IngestWindow(context.Background(), from, to, oda.SourcePowerTemp); err != nil {
		log.Fatal(err)
	}

	g := gateway.New(httpapi.New(f), gateway.Options{
		Platform: f.Apps, Registry: f.Obs,
	})
	for _, tc := range []gateway.TenantConfig{
		{Name: "dashboards", Priority: gateway.PriorityInteractive, RatePerSec: 5000, Burst: 20000},
		{Name: "batch-analytics", Priority: gateway.PriorityBatch, RatePerSec: 2000, Burst: 8000},
		{Name: "oncall", Priority: gateway.PriorityUrgent, RatePerSec: 1000, Burst: 4000},
	} {
		if err := g.RegisterTenant(tc); err != nil {
			log.Fatal(err)
		}
	}

	qpath := "/api/v1/lake/query?metric=node_power_w&agg=avg&granularity=15s" +
		"&from=" + url.QueryEscape(from.Format(time.RFC3339)) +
		"&to=" + url.QueryEscape(to.Format(time.RFC3339))
	sc := gateway.Scenario{
		Name:    "cli",
		Clients: *clients, RequestsPerClient: *requests,
		Mix: []gateway.TenantShare{
			{Tenant: "dashboards", Weight: 6},
			{Tenant: "batch-analytics", Weight: 3},
			{Tenant: "oncall", Weight: 1},
		},
		Path:     func(int, int) string { return qpath },
		OpenLoop: *open, ArrivalInterval: *interval,
	}
	res := gateway.RunLoad(g, sc)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("scenario %s: %d clients x %d reqs in %.0f ms\n",
		res.Scenario, res.Clients, *requests, res.WallMs)
	fmt.Printf("  ok=%d stale=%d (%.1f%%) 429=%d (%.1f%%) 503=%d (%.1f%%) other=%d\n", res.OK, res.Stale, 100*res.StaleRate(),
		res.Throttled, 100*res.ThrottleRate(), res.Shed, 100*res.ShedRate(), res.Other)
	fmt.Printf("  latency p50=%.2fms p95=%.2fms p99=%.2fms\n", res.P50Ms, res.P95Ms, res.P99Ms)
	for name, tl := range res.Tenants {
		fmt.Printf("  tenant %-16s ok=%-6d stale=%-6d 429=%-6d 503=%-5d p99=%.2fms\n",
			name, tl.OK, tl.Stale, tl.Throttled, tl.Shed, tl.P99Ms)
	}
}

// odaserve stands up a facility, ingests a telemetry window, and serves
// the read-only data-portal API over HTTP — the self-service pattern the
// paper's Slate platform hosts for project dashboards.
//
// Usage:
//
//	odaserve -addr :8080 -nodes 16 -minutes 5
//	curl localhost:8080/healthz
//	curl 'localhost:8080/api/v1/lake/topn?metric=node_power_w&n=5'
//	curl localhost:8080/metrics
//	curl localhost:8080/api/v1/traces
//
// The portal is always behind the multi-tenant gateway, whose admission
// queue is the one overload decision. -gateway registers its demo
// tenants; without it the only tenant is the anonymous one, which a
// request carrying no credentials resolves to.
//
// With -debug-addr a second listener serves the operator surface:
// /metrics, /api/v1/traces, and net/http/pprof profiles kept off the
// public portal.
//
//	odaserve -addr :8080 -debug-addr :6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=5
//
// With -cq a demo continuous query is registered and a pump drains the
// bronze topics into it; reads and SSE watches never touch the LAKE:
//
//	odaserve -addr :8080 -cq
//	curl localhost:8080/api/v1/cq
//	curl -N -H 'Accept: text/event-stream' 'localhost:8080/api/v1/cq/<id>/watch?count=3'
//
// With -cluster-nodes the facility runs on an N-node in-process cluster
// (replication factor -rf) instead of its own broker and lake: the
// cluster is attached before ingest, so the window lands in it once, with
// quorum replication; lake queries are served by the replica-aware
// scatter-gather router (byte-identical results), the -cq pump reads the
// cluster's committed prefix, /healthz folds in replication health,
// oda_cluster_* metrics land on /metrics, and a background repair loop
// re-replicates after failures.
//
//	odaserve -addr :8080 -cluster-nodes=3 -rf=2
//	curl localhost:8080/healthz
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	oda "odakit"
	"odakit/internal/gateway"
	"odakit/internal/httpapi"
	"odakit/internal/obs"
	"odakit/internal/tsdb"
)

func main() {
	log.SetFlags(0)
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		debugAddr = flag.String("debug-addr", "", "debug listen address (pprof, metrics, traces); empty disables")
		nodes     = flag.Int("nodes", 16, "machine scale in nodes")
		minutes   = flag.Int("minutes", 5, "telemetry window to ingest at startup")
		seed      = flag.Int64("seed", 1, "seed")
		withGW    = flag.Bool("gateway", false, "register the gateway's demo tenants instead of the anonymous one")
		withCQ    = flag.Bool("cq", false, "register a demo continuous query and pump the bronze topics into it")
		cqDir     = flag.String("cq-checkpoint-dir", "", "CQ pump checkpoint directory (crash-consistent restore); empty disables")
		cnodes    = flag.Int("cluster-nodes", 0, "run the facility on an N-node replicated cluster; 0 keeps the single-node plane")
		rf        = flag.Int("rf", 2, "cluster replication factor (with -cluster-nodes)")
		walDir    = flag.String("wal-dir", "", "cluster per-node WAL directory (crash recovery from disk); empty keeps nodes memory-only")
	)
	flag.Parse()

	f, err := oda.NewFacility(oda.Options{System: oda.FrontierLike(*seed).Scaled(*nodes), WorkloadSeed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	var c *oda.Cluster
	if *cnodes > 0 {
		ids := make([]string, *cnodes)
		for i := range ids {
			ids[i] = fmt.Sprintf("n%d", i+1)
		}
		c, err = oda.NewCluster(ids, oda.ClusterConfig{
			RF: *rf, LakeOptions: tsdb.Options{RollupInterval: f.Opts.SilverWindow},
			WALDir: *walDir,
		})
		if err != nil {
			log.Fatal(err)
		}
		c.Instrument(f.Obs)
		if err := f.AttachPlane(c, c); err != nil {
			log.Fatal(err)
		}
		log.Printf("facility attached to a %d-node cluster (rf=%d)", *cnodes, *rf)
	}

	from := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(time.Duration(*minutes) * time.Minute)
	log.Printf("ingesting %d minutes of telemetry at %d nodes...", *minutes, *nodes)
	// Trace the startup ingest so /api/v1/traces has a journey to show.
	ctx, root := f.Tracer.StartRoot(context.Background(), "startup.ingest")
	stats, err := f.IngestWindow(ctx, from, to, oda.SourcePowerTemp, oda.SourceGPU)
	root.End()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ingested %d records, %d events", stats.TotalRecs, stats.Events)

	if *withCQ {
		// A demo standing query: per-node average power over a sliding
		// 5-minute window at the rollup granularity, with a generous
		// threshold alert. Clients can register more via POST /api/v1/cq.
		above := 10_000.0
		v, err := f.CQ.Register(oda.CQSpec{
			Name:        "node-power-5m",
			Filters:     map[string][]string{"metric": {"node_power_w"}},
			GroupBy:     []string{"component"},
			Granularity: 15 * time.Second,
			Window:      5 * time.Minute,
			Alert:       &oda.CQAlertSpec{Above: &above, MaxScore: 4},
		})
		if err != nil {
			log.Fatal(err)
		}
		pump, err := f.NewCQPump(*cqDir)
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := pump.Run(context.Background()); err != nil && err != context.Canceled {
				log.Printf("cq pump: %v", err)
			}
		}()
		fmt.Printf("continuous query %s registered; try:\n", v.ID)
		fmt.Printf("  curl localhost%s/api/v1/cq/%s\n", *addr, v.ID)
		fmt.Printf("  curl -N -H 'Accept: text/event-stream' 'localhost%s/api/v1/cq/%s/watch?count=3'\n", *addr, v.ID)
	}
	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.NewDebugMux(f.Obs, f.Tracer),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() { log.Fatal(dbg.ListenAndServe()) }()
		fmt.Printf("debug surface (pprof, /metrics, /api/v1/traces) on %s\n", *debugAddr)
	}
	api := httpapi.New(f)
	if c != nil {
		go func() {
			if err := c.RepairLoop(context.Background(), 2*time.Second); err != nil && err != context.Canceled {
				log.Printf("cluster repair loop: %v", err)
			}
		}()
		api.SetClusterHealth(c.Health)
		fmt.Printf("portal served by the %d-node cluster; /healthz carries replication state\n", *cnodes)
	}
	opts := gateway.Options{Registry: f.Obs}
	tenants := []gateway.TenantConfig{{Name: gateway.Anonymous, Priority: gateway.PriorityInteractive, RatePerSec: 1e6}}
	if *withGW {
		opts.Platform = f.Apps
		// Demo tenant mix: interactive dashboards, a batch analytics
		// project, and an urgent on-call lane. Keys double as docs.
		tenants = []gateway.TenantConfig{
			{Name: "dashboards", Priority: gateway.PriorityInteractive,
				RatePerSec: 200, ScanCellsPerSec: 2e6, APIKeys: []string{"demo-dash"}},
			{Name: "batch-analytics", Priority: gateway.PriorityBatch,
				RatePerSec: 50, ScanCellsPerSec: 5e6, APIKeys: []string{"demo-batch"}},
			{Name: "oncall", Priority: gateway.PriorityUrgent,
				RatePerSec: 100, ScanCellsPerSec: 2e6, APIKeys: []string{"demo-oncall"}},
		}
		fmt.Println("gateway tenants enabled; send X-ODA-Tenant: dashboards (or Bearer demo-dash)")
	}
	g := gateway.New(api, opts)
	for _, tc := range tenants {
		if err := g.RegisterTenant(tc); err != nil {
			log.Fatal(err)
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           g,
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Printf("serving the ODA data portal on %s\n", *addr)
	fmt.Println("try: curl localhost" + *addr + "/healthz")
	log.Fatal(srv.ListenAndServe())
}

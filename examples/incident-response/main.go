// Incident response: inject two incidents with known ground truth — a GPU
// failure burst and a thermal runaway — then walk the operator's detection
// path: copacetic fires on the event burst, the LAKE top-N query ranks the
// overheating node first, and the sparkline shows the thermal signature.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	oda "odakit"
	"odakit/internal/copacetic"
	"odakit/internal/tsdb"
)

func main() {
	log.SetFlags(0)
	t0 := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	sys := oda.FrontierLike(9).Scaled(12)
	sys.ErrorEventRate = 0.2
	sys.Anomalies = []oda.Anomaly{
		{Kind: oda.AnomalyGPUFailureBurst, Node: 5, Start: t0.Add(2 * time.Minute), End: t0.Add(6 * time.Minute)},
		{Kind: oda.AnomalyThermalRunaway, Node: 7, Start: t0.Add(1 * time.Minute), End: t0.Add(8 * time.Minute)},
	}
	f, err := oda.NewFacility(oda.Options{
		System: sys, WorkloadSeed: 9,
		ScheduleFrom: t0.Add(-time.Hour), ScheduleTo: t0.Add(time.Hour),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	fmt.Println("injected incidents: gpu_failure_burst on node00005, thermal_runaway on node00007")
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(10*time.Minute), oda.SourcePowerTemp); err != nil {
		log.Fatal(err)
	}

	// Copacetic watches the event feed.
	eng := copacetic.NewEngine(f.Logs)
	for _, r := range copacetic.DefaultRules() {
		if err := eng.AddRule(r); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.AddRule(copacetic.Rule{
		Name: "xid-burst", Description: "repeated GPU xid errors on one host",
		Window: 10 * time.Minute, Severity: "critical",
		Events: []copacetic.EventCond{{Terms: []string{"gpu", "xid", "error"}, MinCount: 5, PerHost: true}},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncopacetic alerts:")
	for _, a := range eng.Evaluate(t0.Add(9 * time.Minute)) {
		fmt.Printf("  [%s] %s — %v\n", a.Severity, a.Rule, a.Evidence)
	}

	// Triage: which node is hottest right now?
	top, _, err := tsdb.TopN(f.Lake, tsdb.Query{
		From: t0.Add(6 * time.Minute), To: t0.Add(8 * time.Minute),
		Filters: map[string][]string{tsdb.DimMetric: {"gpu_temp_c"}},
		Agg:     tsdb.AggMax,
	}, tsdb.DimComponent, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhottest nodes (LAKE top-N, last 2 minutes):")
	for _, e := range top {
		fmt.Printf("  %-12s %6.1f C\n", e.Dim, e.Value)
	}

	// The thermal signature a human confirms at a glance.
	series, err := f.Lake.Run(tsdb.Query{
		From: t0, To: t0.Add(9 * time.Minute),
		Filters:     map[string][]string{tsdb.DimMetric: {"gpu_temp_c"}, tsdb.DimComponent: {top[0].Dim}},
		Granularity: 30 * time.Second, Agg: tsdb.AggAvg,
	})
	if err != nil {
		log.Fatal(err)
	}
	var vals []float64
	for i := 0; i < series.Len(); i++ {
		vals = append(vals, series.Row(i)[1].FloatVal())
	}
	fmt.Printf("\n%s gpu temp: %s  (%.0f -> %.0f C)\n", top[0].Dim, oda.Sparkline(vals), vals[0], vals[len(vals)-1])
}

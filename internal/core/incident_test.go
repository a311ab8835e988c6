package core

import (
	"context"
	"testing"
	"time"

	"odakit/internal/copacetic"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
	"odakit/internal/viz"
)

// Incident-response integration: inject anomalies with known ground truth
// and verify the detection stack — copacetic fires on the event burst,
// the LAKE shows the thermal signature, and the top-N triage query ranks
// the afflicted node first.
func TestIncidentDetectionEndToEnd(t *testing.T) {
	sys := telemetry.FrontierLike(9).Scaled(12)
	sys.LossRate = 0
	sys.NoiseFrac = 0.005
	sys.ErrorEventRate = 0.2 // quiet background so the burst stands out
	sys.Anomalies = []telemetry.Anomaly{
		{Kind: telemetry.AnomalyGPUFailureBurst, Node: 5, Start: t0.Add(2 * time.Minute), End: t0.Add(6 * time.Minute)},
		{Kind: telemetry.AnomalyThermalRunaway, Node: 7, Start: t0.Add(1 * time.Minute), End: t0.Add(8 * time.Minute)},
	}
	f, err := NewFacility(Options{System: sys, WorkloadSeed: 9,
		ScheduleFrom: t0.Add(-time.Hour), ScheduleTo: t0.Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(10*time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}

	// 1. Copacetic: the xid burst on node 5 trips an event rule.
	eng := copacetic.NewEngine(f.Logs)
	if err := eng.AddRule(copacetic.Rule{
		Name: "xid-burst", Window: 10 * time.Minute, Severity: "critical",
		Events: []copacetic.EventCond{{Terms: []string{"gpu", "xid", "error"}, MinCount: 5, PerHost: true}},
	}); err != nil {
		t.Fatal(err)
	}
	alerts := eng.Evaluate(t0.Add(7 * time.Minute))
	if len(alerts) != 1 || alerts[0].Rule != "xid-burst" {
		t.Fatalf("alerts = %+v", alerts)
	}

	// 2. LAKE triage: hottest gpu_temp node over the window is node 7.
	top, _, err := tsdb.TopN(f.Lake, tsdb.Query{
		From: t0.Add(6 * time.Minute), To: t0.Add(8 * time.Minute),
		Filters: map[string][]string{tsdb.DimMetric: {"gpu_temp_c"}},
		Agg:     tsdb.AggMax,
	}, tsdb.DimComponent, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Dim != "node00007" {
		t.Fatalf("hottest node = %+v, want node00007", top)
	}

	// 3. The runaway's thermal signature is visible as a rising series.
	series, err := f.Lake.Run(tsdb.Query{
		From: t0, To: t0.Add(8 * time.Minute),
		Filters:     map[string][]string{tsdb.DimMetric: {"gpu_temp_c"}, tsdb.DimComponent: {"node00007"}},
		Granularity: time.Minute, Agg: tsdb.AggAvg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if series.Len() < 6 {
		t.Fatalf("series rows = %d", series.Len())
	}
	first := series.Row(0)[1].FloatVal()
	last := series.Row(series.Len() - 1)[1].FloatVal()
	if last-first < 15 {
		t.Fatalf("thermal runaway not visible: %.1f -> %.1f", first, last)
	}

	// 4. The sparkline a human would see trends upward.
	var vals []float64
	for i := 0; i < series.Len(); i++ {
		vals = append(vals, series.Row(i)[1].FloatVal())
	}
	spark := viz.Sparkline(vals)
	if len([]rune(spark)) != series.Len() {
		t.Fatalf("sparkline = %q", spark)
	}
}

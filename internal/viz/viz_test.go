package viz

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"odakit/internal/cq"
	"odakit/internal/gateway"
	"odakit/internal/jobsched"
	"odakit/internal/logsearch"
	"odakit/internal/medallion"
	"odakit/internal/schema"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if s != "▁▂▃▄▅▆▇█" {
		t.Fatalf("sparkline = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty")
	}
	flat := Sparkline([]float64{5, 5, 5})
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", flat)
	}
	withNaN := Sparkline([]float64{0, math.NaN(), 1})
	if []rune(withNaN)[1] != ' ' {
		t.Fatalf("NaN sparkline = %q", withNaN)
	}
	allNaN := Sparkline([]float64{math.NaN(), math.NaN()})
	if allNaN != "  " {
		t.Fatalf("all-NaN sparkline = %q", allNaN)
	}
}

func TestDownsample(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i % 10)
	}
	vals[500] = 1000 // spike
	down := Downsample(vals, 50)
	if len(down) != 50 {
		t.Fatalf("downsampled to %d points", len(down))
	}
	foundSpike := false
	for _, v := range down {
		if v == 1000 {
			foundSpike = true
		}
	}
	if !foundSpike {
		t.Fatal("downsampling erased the spike")
	}
	// No-op cases.
	same := Downsample(vals, 2000)
	if len(same) != len(vals) {
		t.Fatal("oversized maxPoints should keep everything")
	}
	if got := Downsample(vals, 0); len(got) != len(vals) {
		t.Fatal("maxPoints 0 should keep everything")
	}
}

func TestSVGLine(t *testing.T) {
	svg := SVGLine("power", map[string][]float64{
		"it":    {1, 2, 3, 2, 1},
		"input": {1.2, 2.3, 3.4, 2.3, 1.2},
	}, 640, 200)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatalf("not an svg: %q", svg[:40])
	}
	if strings.Count(svg, "<polyline") != 2 {
		t.Fatalf("series count wrong:\n%s", svg)
	}
	if !strings.Contains(svg, "power") {
		t.Fatal("title missing")
	}
	empty := SVGLine("x", nil, 0, 0)
	if !strings.Contains(empty, "no data") {
		t.Fatalf("empty svg = %q", empty)
	}
}

func TestHeatmap(t *testing.T) {
	hm := Heatmap([]float64{0, 1, 2, 3}, 2, 2)
	lines := strings.Split(strings.TrimRight(hm, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("heatmap lines = %d", len(lines))
	}
	if !strings.Contains(hm, "█") || !strings.Contains(hm, " ") {
		t.Fatalf("heatmap range wrong:\n%s", hm)
	}
}

// buildStack assembles the UA dashboard backends from simulated data.
func buildStack(t *testing.T) (*UADashboard, *jobsched.Job) {
	t.Helper()
	cfg := telemetry.FrontierLike(7).Scaled(16)
	cfg.LossRate = 0
	sim := jobsched.New(jobsched.Config{Nodes: 16, Workload: jobsched.WorkloadConfig{Seed: 31, MeanInterarrival: 25 * time.Second}})
	sched := sim.Run(t0.Add(-time.Hour), t0.Add(2*time.Hour))
	gen := telemetry.NewGenerator(cfg, sched)

	lake := tsdb.New(tsdb.Options{})
	if err := gen.EmitSource(telemetry.SourcePowerTemp, t0, t0.Add(30*time.Minute), func(o schema.Observation) error {
		return lake.InsertBatch([]schema.Observation{o})
	}); err != nil {
		t.Fatal(err)
	}
	if err := gen.EmitSource(telemetry.SourceGPU, t0, t0.Add(30*time.Minute), func(o schema.Observation) error {
		return lake.InsertBatch([]schema.Observation{o})
	}); err != nil {
		t.Fatal(err)
	}
	logs := logsearch.New()
	events, err := gen.CollectEvents(t0, t0.Add(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		logs.Add(e)
	}

	// Pick a job overlapping the telemetry window.
	var target *jobsched.Job
	for _, j := range sched.Jobs {
		if j.Start.IsZero() {
			continue
		}
		if j.Start.Before(t0.Add(25*time.Minute)) && j.End.After(t0.Add(5*time.Minute)) && j.Runtime() > 5*time.Minute {
			target = j
			break
		}
	}
	if target == nil {
		t.Fatal("no suitable job in window")
	}
	return &UADashboard{Lake: lake, Logs: logs, Sched: sched}, target
}

func TestUADashboardBuildJobView(t *testing.T) {
	d, job := buildStack(t)
	v, err := d.BuildJobView(job.ID, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v.JobID != job.ID || v.User != job.User || v.Nodes != job.Nodes {
		t.Fatalf("metadata = %+v", v)
	}
	if len(v.PowerSeries) == 0 {
		t.Fatal("no power series")
	}
	for _, p := range v.PowerSeries {
		if p <= 0 {
			t.Fatalf("nonpositive power %v", p)
		}
	}
	if len(v.TopNodes) == 0 || len(v.TopNodes) > 5 {
		t.Fatalf("top nodes = %d", len(v.TopNodes))
	}
	if v.QueriesIssued < 3 {
		t.Fatalf("queries issued = %d", v.QueriesIssued)
	}
	out := v.RenderText()
	for _, want := range []string{job.ID, "power", "hottest nodes", "backend queries"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if _, err := d.BuildJobView("ghost", 5); err == nil {
		t.Fatal("ghost job accepted")
	}
}

// TestUADashboardGatewayFooter: with a gateway attached, the rendered
// view carries the serving footer — tenant counters and queue depth.
func TestUADashboardGatewayFooter(t *testing.T) {
	d, job := buildStack(t)
	g := gateway.New(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), gateway.Options{})
	if err := g.RegisterTenant(gateway.TenantConfig{
		Name: "dashboards", Priority: gateway.PriorityInteractive, RatePerSec: 100,
	}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-ODA-Tenant", "dashboards")
	g.ServeHTTP(httptest.NewRecorder(), req)

	d.Gateway = g
	v, err := d.BuildJobView(job.ID, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := v.RenderText()
	for _, want := range []string{"gateway: 1 tenants, 0 queued", "tenant dashboards", "reqs=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestUADashboardCQPanel: with a CQ engine attached, the rendered view
// carries the continuous-query panel — view position, cells, alerts.
func TestUADashboardCQPanel(t *testing.T) {
	d, job := buildStack(t)
	e := cq.NewEngine(cq.Config{RollupInterval: 15 * time.Second})
	if _, err := e.Register(cq.Spec{Name: "power", Window: 5 * time.Minute, GroupBy: []string{"component"}}); err != nil {
		t.Fatal(err)
	}
	e.Apply("bronze.power_temp", 0, obsRows(schema.Observation{
		Ts: t0, System: "sys", Source: "power_temp",
		Component: "n1", Metric: "node_power_w", Value: 100,
	}))
	d.CQ = e
	v, err := d.BuildJobView(job.ID, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.CQViews) != 1 || v.CQViews[0].Applied != 1 {
		t.Fatalf("cq views = %+v", v.CQViews)
	}
	out := v.RenderText()
	for _, want := range []string{"continuous queries: 1 standing", "cq power", "sliding/5m0s", "cells=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func lvaFixture(t *testing.T) *LVA {
	t.Helper()
	profiles := []medallion.JobProfile{
		{JobID: "job1", Program: "INCITE", EnergyKWh: 500, Vector: []float64{0.1, 0.9, 0.5}},
		{JobID: "job2", Program: "INCITE", EnergyKWh: 100, Vector: []float64{0.5, 0.5, 0.5}},
		{JobID: "job3", Program: "ALCC", EnergyKWh: 900, Vector: []float64{0.9, 0.1, 0.9}},
	}
	sys := schema.NewFrame(schema.New(
		schema.Field{Name: "window", Kind: schema.KindTime},
		schema.Field{Name: "value", Kind: schema.KindFloat},
	))
	for i := 0; i < 100; i++ {
		_ = sys.AppendRow(schema.Row{
			schema.Time(t0.Add(time.Duration(i) * 15 * time.Second)),
			schema.Float(10000 + float64(i)),
		})
	}
	l, err := NewLVA(profiles, sys)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLVAQueries(t *testing.T) {
	l := lvaFixture(t)
	view := l.SystemView(t0, t0.Add(25*time.Minute), 20)
	if len(view) == 0 || len(view) > 20 {
		t.Fatalf("system view = %d points", len(view))
	}
	incite := l.JobsByProgram("INCITE")
	if len(incite) != 2 {
		t.Fatalf("INCITE jobs = %d", len(incite))
	}
	if len(l.JobsByProgram("GHOST")) != 0 {
		t.Fatal("ghost program matched")
	}
	top := l.TopEnergyJobs(2)
	if len(top) != 2 || top[0].JobID != "job3" || top[1].JobID != "job1" {
		t.Fatalf("top energy = %+v", top)
	}
	p, ok := l.Profile("job2")
	if !ok || p.EnergyKWh != 100 {
		t.Fatalf("profile = %+v, %v", p, ok)
	}
	if _, ok := l.Profile("ghost"); ok {
		t.Fatal("ghost profile resolved")
	}
	n, mean := l.QueryStats()
	if n != 6 || mean <= 0 {
		t.Fatalf("query stats = %d, %v", n, mean)
	}
}

func TestLVASystemViewRange(t *testing.T) {
	l := lvaFixture(t)
	// Range covering only the first 10 points.
	view := l.SystemView(t0, t0.Add(9*15*time.Second), 100)
	if len(view) != 10 {
		t.Fatalf("ranged view = %d points, want 10", len(view))
	}
	if view[0] != 10000 || view[9] != 10009 {
		t.Fatalf("ranged values = %v..%v", view[0], view[9])
	}
	// Empty range.
	if got := l.SystemView(t0.Add(-time.Hour), t0.Add(-time.Minute), 10); len(got) != 0 {
		t.Fatalf("empty range = %d points", len(got))
	}
}

func TestLVAValidation(t *testing.T) {
	bad := schema.NewFrame(schema.New(schema.Field{Name: "x", Kind: schema.KindInt}))
	if _, err := NewLVA(nil, bad); err == nil {
		t.Fatal("bad system series accepted")
	}
	l, err := NewLVA(nil, nil)
	if err != nil || l == nil {
		t.Fatal("nil series should be acceptable")
	}
}

// obsRows returns the observations as the rows a pump hands the engine.
func obsRows(obs ...schema.Observation) []schema.Row {
	rows := make([]schema.Row, len(obs))
	for i := range obs {
		rows[i] = obs[i].Row()
	}
	return rows
}

package oda_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	oda "odakit"
	"odakit/internal/sproc"
	"odakit/internal/tsdb"
)

var apiT0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func apiFacility(t testing.TB) *oda.Facility {
	t.Helper()
	sys := oda.FrontierLike(13).Scaled(8)
	sys.LossRate = 0
	f, err := oda.NewFacility(oda.Options{
		System: sys, WorkloadSeed: 13,
		ScheduleFrom: apiT0.Add(-time.Hour), ScheduleTo: apiT0.Add(2 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tt, ok := t.(*testing.T); ok {
		tt.Cleanup(f.Close)
	}
	return f
}

func TestPublicAPIEndToEnd(t *testing.T) {
	f := apiFacility(t)
	stats, err := f.IngestWindow(context.Background(), apiT0, apiT0.Add(2*time.Minute), oda.SourcePowerTemp)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalRecs == 0 {
		t.Fatal("no records ingested through the public API")
	}
	m, err := f.DrainSilver(context.Background(), oda.SilverPipelineConfig{Source: oda.SourcePowerTemp})
	if err != nil {
		t.Fatal(err)
	}
	if m.RowsOut == 0 {
		t.Fatal("no silver rows through the public API")
	}
	gold, err := f.BuildGold(context.Background(), oda.SourcePowerTemp, "node_power_w", 16)
	if err != nil {
		t.Fatal(err)
	}
	if gold.SystemSeries.Len() == 0 {
		t.Fatal("no gold series")
	}
	lva, err := oda.NewLVA(gold.Profiles, gold.SystemSeries)
	if err != nil {
		t.Fatal(err)
	}
	if view := lva.SystemView(apiT0, apiT0.Add(2*time.Minute), 20); len(view) == 0 {
		t.Fatal("LVA served nothing")
	}
	if s := oda.Sparkline([]float64{1, 2, 3}); len([]rune(s)) != 3 {
		t.Fatalf("sparkline = %q", s)
	}
}

func TestPublicAPISQLOverSilver(t *testing.T) {
	f := apiFacility(t)
	if _, err := f.IngestWindow(context.Background(), apiT0, apiT0.Add(time.Minute), oda.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DrainSilver(context.Background(), oda.SilverPipelineConfig{Source: oda.SourcePowerTemp}); err != nil {
		t.Fatal(err)
	}
	silver, err := f.ReadSilver(context.Background(), oda.SourcePowerTemp, nil, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sproc.Query(silver,
		"SELECT component, avg(node_power_w) AS p FROM silver GROUP BY component ORDER BY p DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 || out.Len() > 3 {
		t.Fatalf("sql rows = %d", out.Len())
	}
}

func TestPublicAPITwinAndClassifier(t *testing.T) {
	cfg := oda.DefaultTwinConfig()
	cfg.Nodes = 8
	sim, err := oda.NewTwin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := oda.HPLTrace(oda.HPLConfig{
		Nodes: cfg.Nodes, IdlePowerW: cfg.IdlePowerW, MaxPowerW: cfg.MaxPowerW,
		Duration: 10 * time.Minute, Step: 15 * time.Second,
	}, apiT0)
	if _, err := sim.Run(trace); err != nil {
		t.Fatal(err)
	}
	if sum := sim.Summary(); sum.ITkWh <= 0 {
		t.Fatalf("summary = %+v", sum)
	}

	vecs := [][]float64{{0, 1, 0, 1}, {1, 1, 1, 1}, {0, 0.5, 1, 0.5}, {1, 0.5, 0, 0.5}}
	clf, err := oda.TrainClassifier(vecs, oda.ClassifierConfig{Seed: 1, Epochs: 5, GridW: 2, GridH: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(clf.Map(vecs)) != 4 {
		t.Fatal("classifier grid wrong")
	}
}

func TestPublicAPIGovernance(t *testing.T) {
	f := apiFacility(t)
	id, err := f.DataRUC.Submit("pi", "proj", "release", []string{"d"}, oda.Publication)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range oda.GovernanceStages() {
		if _, err := f.DataRUC.Decide(id, s, "r", true, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.DataRUC.Release(id); err != nil {
		t.Fatal(err)
	}
}

// ExampleNewFacility shows the minimal end-to-end flow: ingest, refine,
// inspect.
func ExampleNewFacility() {
	sys := oda.FrontierLike(1).Scaled(4)
	sys.LossRate = 0
	f, err := oda.NewFacility(oda.Options{System: sys, WorkloadSeed: 1})
	if err != nil {
		panic(err)
	}
	defer f.Close()

	from := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	stats, err := f.IngestWindow(context.Background(), from, from.Add(30*time.Second), oda.SourcePowerTemp)
	if err != nil {
		panic(err)
	}
	// 4 nodes × 10 metrics × 30 ticks.
	fmt.Println(stats.TotalRecs - stats.Events)

	if _, err := f.DrainSilver(context.Background(), oda.SilverPipelineConfig{Source: oda.SourcePowerTemp}); err != nil {
		panic(err)
	}
	silver, err := f.ReadSilver(context.Background(), oda.SourcePowerTemp, nil, time.Time{}, time.Time{})
	if err != nil {
		panic(err)
	}
	fmt.Println(silver.Len()) // 4 nodes × 2 windows
	// Output:
	// 1200
	// 8
}

// ExampleSparkline renders a tiny terminal chart.
func ExampleSparkline() {
	fmt.Println(oda.Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}))
	// Output: ▁▂▃▄▅▆▇█
}

func TestPublicAPIHTTPHandler(t *testing.T) {
	f := apiFacility(t)
	if _, err := f.IngestWindow(context.Background(), apiT0, apiT0.Add(30*time.Second), oda.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(oda.NewHTTPHandler(f))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Fatalf("health = %v", h)
	}
}

// TestBenchmarkModuleBuilds vets the benchmark module, which the root
// `go build/vet/test ./...` never compile: an internal API it calls that
// changes under it fails here, not in the benchmark's own run.
func TestBenchmarkModuleBuilds(t *testing.T) {
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}

// TestPublicAPIClusterRefusesStraddlingBuckets: a cluster refuses LAKE
// options whose chunk width is not a whole multiple of the rollup bucket,
// naming both, because a stripe resync would merge a bucket that
// straddles a chunk start. Every geometry a cluster is built with here
// (10 min or the default hour, over 15 s buckets) is a multiple.
func TestPublicAPIClusterRefusesStraddlingBuckets(t *testing.T) {
	ids := []string{"n1", "n2"}
	_, err := oda.NewCluster(ids, oda.ClusterConfig{
		LakeOptions: tsdb.Options{SegmentDuration: 100 * time.Second, RollupInterval: 15 * time.Second},
	})
	if err == nil || !strings.Contains(err.Error(), "1m40s") || !strings.Contains(err.Error(), "15s") {
		t.Fatalf("100 s chunks of 15 s buckets: err = %v, want a refusal naming both durations", err)
	}
	// A silver window that does not divide the default hour is refused too.
	if _, err := oda.NewCluster(ids, oda.ClusterConfig{LakeOptions: tsdb.Options{RollupInterval: 7 * time.Second}}); err == nil {
		t.Fatal("7 s buckets in 1 h chunks were accepted")
	}
	for _, o := range []tsdb.Options{
		{SegmentDuration: 10 * time.Minute, RollupInterval: 15 * time.Second},
		{RollupInterval: 15 * time.Second},
		{},
	} {
		if _, err := oda.NewCluster(ids, oda.ClusterConfig{LakeOptions: o}); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"odakit/internal/columnar"
	"odakit/internal/governance"
	"odakit/internal/medallion"
	"odakit/internal/schema"
	"odakit/internal/telemetry"
)

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func testFacility(t testing.TB) *Facility {
	t.Helper()
	sys := telemetry.FrontierLike(1).Scaled(12)
	sys.LossRate = 0
	sys.SkewMax = 0
	f, err := NewFacility(Options{
		System: sys, WorkloadSeed: 11,
		ScheduleFrom: t0.Add(-time.Hour), ScheduleTo: t0.Add(4 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tt, ok := t.(*testing.T); ok {
		tt.Cleanup(f.Close)
	}
	return f
}

// TestFacilityRefusesStraddlingSilverWindow: a SilverWindow that does not
// divide the Lake's hour chunks is refused before the facility exists —
// its CQ checkpoints would not restore — naming both durations.
func TestFacilityRefusesStraddlingSilverWindow(t *testing.T) {
	_, err := NewFacility(Options{System: telemetry.FrontierLike(1).Scaled(2), SilverWindow: 7 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "7s") || !strings.Contains(err.Error(), "1h0m0s") {
		t.Fatalf("a 7 s SilverWindow: err = %v, want a refusal naming 7s and the 1h chunk", err)
	}
}

func TestFacilityWiring(t *testing.T) {
	f := testFacility(t)
	// All bronze topics exist.
	topics := f.Broker.Topics()
	want := len(telemetry.MetricSources) + 1 // + syslog
	if len(topics) != want {
		t.Fatalf("topics = %d (%v), want %d", len(topics), topics, want)
	}
	// OCEAN buckets exist.
	buckets := f.Ocean.Buckets()
	if len(buckets) < 3 {
		t.Fatalf("buckets = %v", buckets)
	}
	// Datasets registered at bronze.
	list := f.Datasets.List()
	if len(list) < len(telemetry.MetricSources) {
		t.Fatalf("datasets = %d", len(list))
	}
	// RATS already has the schedule ingested.
	if f.Rats.Stats().Jobs == 0 {
		t.Fatal("RATS not fed from schedule")
	}
}

func TestIngestWindow(t *testing.T) {
	f := testFacility(t)
	stats, err := f.IngestWindow(context.Background(), t0, t0.Add(time.Minute), telemetry.SourcePowerTemp, telemetry.SourceGPU)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Sources) != 2 {
		t.Fatalf("sources = %d", len(stats.Sources))
	}
	// power_temp: 12 nodes × 10 metrics × 60 ticks.
	if stats.Sources[0].Records != 7200 {
		t.Fatalf("power_temp records = %d, want 7200", stats.Sources[0].Records)
	}
	if stats.TotalByte <= 0 || stats.TotalRecs <= stats.Sources[0].Records {
		t.Fatalf("stats = %+v", stats)
	}
	// Broker holds the records.
	ts, err := f.Broker.Stats(BronzeTopic(telemetry.SourcePowerTemp))
	if err != nil || ts.TotalRecords != 7200 {
		t.Fatalf("broker stats = %+v, %v", ts, err)
	}
	// LAKE rolled them up.
	if f.Lake.Stats().RawIngested != stats.Sources[0].Records+stats.Sources[1].Records {
		t.Fatalf("lake ingested = %d", f.Lake.Stats().RawIngested)
	}
	// Events indexed.
	if f.Logs.Stats().Docs == 0 {
		t.Fatal("no events indexed")
	}
}

func TestExtrapolateDaily(t *testing.T) {
	f := testFacility(t)
	stats, err := f.IngestWindow(context.Background(), t0, t0.Add(30*time.Second), telemetry.SourcePowerTemp)
	if err != nil {
		t.Fatal(err)
	}
	daily := f.ExtrapolateDaily(stats, telemetry.FrontierLike(1))
	tb := daily[telemetry.SourcePowerTemp] / 1e12
	// The paper's Frontier power stream is ~0.5 TB/day.
	if tb < 0.2 || tb > 1.2 {
		t.Fatalf("extrapolated power_temp = %.3f TB/day, want ~0.5", tb)
	}
}

func TestSilverPipelineEndToEnd(t *testing.T) {
	f := testFacility(t)
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(2*time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	m, err := f.DrainSilver(context.Background(), SilverPipelineConfig{Source: telemetry.SourcePowerTemp})
	if err != nil {
		t.Fatal(err)
	}
	if m.RecordsIn != 14400 || m.RowsOut == 0 {
		t.Fatalf("metrics = %+v", m)
	}
	silver, err := f.ReadSilver(context.Background(), telemetry.SourcePowerTemp, nil, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	// 12 nodes × 8 windows.
	if silver.Len() != 96 {
		t.Fatalf("silver rows = %d, want 96", silver.Len())
	}
	sch := silver.Schema()
	for _, c := range []string{"window", "component", "node_power_w", "job_id", "program"} {
		if !sch.Has(c) {
			t.Fatalf("silver schema missing %q: %s", c, sch)
		}
	}
	// Ranged read with pushdown.
	ranged, err := f.ReadSilver(context.Background(), telemetry.SourcePowerTemp, nil, t0.Add(time.Minute), t0.Add(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if ranged.Len() >= silver.Len() || ranged.Len() == 0 {
		t.Fatalf("ranged silver rows = %d of %d", ranged.Len(), silver.Len())
	}
	// Dataset registry tracked the silver writes.
	d, err := f.Datasets.Get("power_temp_silver")
	if err != nil || d.Rows == 0 || d.Stage != medallion.Silver {
		t.Fatalf("silver dataset = %+v, %v", d, err)
	}
}

func TestBatchMatchesStreaming(t *testing.T) {
	f := testFacility(t)
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DrainSilver(context.Background(), SilverPipelineConfig{Source: telemetry.SourcePowerTemp}); err != nil {
		t.Fatal(err)
	}
	streamed, err := f.ReadSilver(context.Background(), telemetry.SourcePowerTemp, nil, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := f.BatchSilverize(telemetry.SourcePowerTemp, t0, t0.Add(time.Minute), nil)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Len() != batch.Len() {
		t.Fatalf("streamed %d rows vs batch %d", streamed.Len(), batch.Len())
	}
	byWindow := []schema.SortKey{{Col: "window"}, {Col: "component"}}
	if streamed, err = streamed.SortBy(byWindow...); err != nil {
		t.Fatal(err)
	}
	if batch, err = batch.SortBy(byWindow...); err != nil {
		t.Fatal(err)
	}
	bs := batch.Schema()
	ss := streamed.Schema()
	pi, pj := bs.MustIndex("node_power_w"), ss.MustIndex("node_power_w")
	for i := 0; i < batch.Len(); i++ {
		a, b := batch.Row(i)[pi].FloatVal(), streamed.Row(i)[pj].FloatVal()
		if a != b {
			t.Fatalf("row %d power %v vs %v", i, a, b)
		}
	}
}

func TestBuildGold(t *testing.T) {
	f := testFacility(t)
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(10*time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DrainSilver(context.Background(), SilverPipelineConfig{Source: telemetry.SourcePowerTemp}); err != nil {
		t.Fatal(err)
	}
	gold, err := f.BuildGold(context.Background(), telemetry.SourcePowerTemp, "node_power_w", 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(gold.Profiles) == 0 {
		t.Fatal("no job profiles")
	}
	if gold.SystemSeries.Len() != 40 { // 10 min / 15 s
		t.Fatalf("system series rows = %d, want 40", gold.SystemSeries.Len())
	}
	// Persisted to the gold bucket.
	if _, _, err := f.Ocean.Get(BucketGold, gold.ProfilesKey); err != nil {
		t.Fatalf("profiles object: %v", err)
	}
	if _, _, err := f.Ocean.Get(BucketGold, gold.SeriesKey); err != nil {
		t.Fatalf("series object: %v", err)
	}
	// Gold without silver fails cleanly.
	if _, err := f.BuildGold(context.Background(), telemetry.SourceGPU, "gpu_util_pct", 16); err == nil {
		t.Fatal("gold from missing silver accepted")
	}
}

func TestApplyRetention(t *testing.T) {
	f := testFacility(t)
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	// Stage an aged bronze object with a lifecycle rule.
	clock := t0
	f.Ocean.SetClock(func() time.Time { return clock })
	if _, err := f.Ocean.Put(BucketBronze, "perf/2024-05.ocf", []byte("cold bronze")); err != nil {
		t.Fatal(err)
	}
	if err := f.Ocean.SetLifecycle(BucketBronze, 24*time.Hour); err != nil {
		t.Fatal(err)
	}
	clock = t0.Add(48 * time.Hour)

	st, err := f.ApplyRetention(t0.Add(7*24*time.Hour), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if st.LakeSegmentsDropped == 0 || st.LogSegmentsDropped == 0 {
		t.Fatalf("retention = %+v", st)
	}
	if st.OceanExpired != 1 || st.GlacierFrozen != 1 {
		t.Fatalf("glacier freeze = %+v", st)
	}
	// The frozen object is recallable from GLACIER.
	items := f.Glacier.List("")
	if len(items) != 1 || items[0].Key != BucketBronze+"/perf/2024-05.ocf" {
		t.Fatalf("glacier items = %+v", items)
	}

	// On a cluster plane the LAKE step is an error naming the attached
	// lake, not a sweep of the idle local store reporting zero work; the
	// log index is still retained.
	fc := testFacility(t)
	attachCluster(t, fc)
	if _, err := fc.IngestWindow(context.Background(), t0, t0.Add(time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	st, err = fc.ApplyRetention(t0.Add(7*24*time.Hour), 24*time.Hour)
	if err == nil || !strings.Contains(err.Error(), "*cluster.Cluster") {
		t.Fatalf("retention on a cluster plane: err = %v, want one naming the attached lake", err)
	}
	if st.LakeRowsOffloaded != 0 || st.LakeSegmentsDropped != 0 || st.LogSegmentsDropped == 0 {
		t.Fatalf("retention on a cluster plane = %+v, want no LAKE work and the log index retained", st)
	}
}

func TestRunLifeCycle(t *testing.T) {
	f := testFacility(t)
	rep, err := f.RunLifeCycle(context.Background(), t0, t0.Add(10*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != len(LifeCycleStages()) {
		t.Fatalf("stages = %d, want %d", len(rep.Stages), len(LifeCycleStages()))
	}
	for i, s := range rep.Stages {
		if s.Stage != LifeCycleStage(i) {
			t.Fatalf("stage order wrong at %d: %v", i, s.Stage)
		}
		if s.Duration <= 0 {
			t.Fatalf("stage %v has no duration", s.Stage)
		}
	}
	if rep.Total <= 0 {
		t.Fatal("no total duration")
	}
	// The loop's governance stage produced a release.
	if len(f.DataRUC.Releases()) != 1 {
		t.Fatalf("releases = %d", len(f.DataRUC.Releases()))
	}
	// And the ML stage registered a model (enough jobs in 10 min window).
	versions, err := f.ML.ModelVersions("profile-classifier")
	if err != nil || len(versions) == 0 {
		t.Logf("model versions = %v, %v (acceptable if too few jobs)", versions, err)
	}
	_ = governance.StageManagement
}

// TestRunLifeCycleCancelled: a cancelled ctx stops the loop in its first
// stage, before any telemetry reaches the LAKE.
func TestRunLifeCycleCancelled(t *testing.T) {
	f := testFacility(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.RunLifeCycle(ctx, t0, t0.Add(10*time.Minute)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled life cycle returned %v, want context.Canceled", err)
	}
	if rows := f.Lake.Stats().RawIngested; rows != 0 {
		t.Fatalf("cancelled life cycle landed %d LAKE rows, want 0", rows)
	}
}

func TestControlLoopsRegistry(t *testing.T) {
	if len(ControlLoops) != 5 {
		t.Fatalf("control loops = %d, want 5", len(ControlLoops))
	}
	for i := 1; i < len(ControlLoops); i++ {
		if ControlLoops[i].Timescale <= ControlLoops[i-1].Timescale {
			t.Fatal("control loops must be ordered fastest first")
		}
	}
	for _, cl := range ControlLoops {
		if cl.Name == "" || cl.Tier == "" || cl.Consumer == "" {
			t.Fatalf("incomplete loop %+v", cl)
		}
	}
}

func TestLifeCycleStageStrings(t *testing.T) {
	for _, s := range LifeCycleStages() {
		if s.String() == "" || s.String()[:5] == "stage" {
			t.Fatalf("stage %d lacks a name", s)
		}
	}
	if LifeCycleStage(99).String() != "stage(99)" {
		t.Fatal("unknown stage fallback wrong")
	}
}

func TestReadSilverColumns(t *testing.T) {
	f := testFacility(t)
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DrainSilver(context.Background(), SilverPipelineConfig{Source: telemetry.SourcePowerTemp}); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadSilver(context.Background(), telemetry.SourcePowerTemp,
		[]string{"window", "component", "node_power_w"}, t0, t0.Add(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Len() != 3 {
		t.Fatalf("projected schema = %s", got.Schema())
	}
	// 12 nodes × 3 windows (0,15,30s inclusive bounds).
	if got.Len() != 36 {
		t.Fatalf("rows = %d, want 36", got.Len())
	}
	full, err := f.ReadSilver(context.Background(), telemetry.SourcePowerTemp, nil, t0, t0.Add(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := full.Select("window", "component", "node_power_w")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sel) {
		t.Fatal("projected read differs from full read projection")
	}
	if _, err := f.ReadSilver(context.Background(), telemetry.SourcePowerTemp, []string{"ghost"}, t0, t0.Add(time.Minute)); err == nil {
		t.Fatal("ghost column accepted")
	}
	if _, err := f.ReadSilver(context.Background(), telemetry.SourceGPU, []string{"window"}, t0, t0.Add(time.Minute)); err == nil {
		t.Fatal("missing silver object accepted")
	}
}

// TestReadSilverMatchesReadAll: unranged and unprojected, the one scan
// returns the appended Silver object exactly as columnar.ReadAll decodes
// it, and a projected read is that read's projection.
func TestReadSilverMatchesReadAll(t *testing.T) {
	ctx := context.Background()
	f := testFacility(t)
	if _, err := f.IngestWindow(ctx, t0, t0.Add(time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DrainSilver(ctx, SilverPipelineConfig{Source: telemetry.SourcePowerTemp}); err != nil {
		t.Fatal(err)
	}
	data, _, err := f.Ocean.Get(BucketSilver, SilverObjectKey(telemetry.SourcePowerTemp))
	if err != nil {
		t.Fatal(err)
	}
	if fr, err := columnar.NewFileReader(data); err != nil || fr.NumRowGroups() < 2 {
		t.Fatalf("silver object: %v, want at least two appended windows", err)
	}
	want, err := columnar.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadSilver(ctx, telemetry.SourcePowerTemp, nil, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := columnar.Encode(got, columnar.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := columnar.Encode(want, columnar.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("ReadSilver: %d rows of %s, ReadAll: %d rows of %s", got.Len(), got.Schema(), want.Len(), want.Schema())
	}
	cols := []string{"node_power_w", "component", "window"}
	projected, err := f.ReadSilver(ctx, telemetry.SourcePowerTemp, cols, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if sel, err := got.Select(cols...); err != nil || !projected.Equal(sel) {
		t.Fatalf("projected read differs from the full read's projection (%v)", err)
	}
}

package core

import (
	"context"
	"testing"
	"time"

	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// testFacilityBatch is testFacility with an explicit ingest batch size.
func testFacilityBatch(t testing.TB, batch int) *Facility {
	t.Helper()
	sys := telemetry.FrontierLike(1).Scaled(12)
	sys.LossRate = 0
	sys.SkewMax = 0
	f, err := NewFacility(Options{
		System: sys, WorkloadSeed: 11, IngestBatch: batch,
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

// TestIngestBatchSizeInvariant: the landed state (broker offsets, LAKE
// rollups, per-source stats) must not depend on the flush size.
func TestIngestBatchSizeInvariant(t *testing.T) {
	perRecord := testFacilityBatch(t, 1)
	batched := testFacilityBatch(t, 1024)
	s1, err := perRecord.IngestWindow(t0, t0.Add(time.Minute), telemetry.SourcePowerTemp)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := batched.IngestWindow(t0, t0.Add(time.Minute), telemetry.SourcePowerTemp)
	if err != nil {
		t.Fatal(err)
	}
	if s1.TotalRecs != s2.TotalRecs || s1.TotalByte != s2.TotalByte || s1.Events != s2.Events {
		t.Fatalf("ingest stats diverge: per-record %+v, batched %+v", s1, s2)
	}
	l1, l2 := perRecord.Lake.Stats(), batched.Lake.Stats()
	if l1 != l2 {
		t.Fatalf("lake stats diverge: per-record %+v, batched %+v", l1, l2)
	}
	topic := BronzeTopic(telemetry.SourcePowerTemp)
	b1, err := perRecord.Broker.Stats(topic)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := batched.Broker.Stats(topic)
	if err != nil {
		t.Fatal(err)
	}
	if b1.TotalRecords != b2.TotalRecords || b1.TotalBytes != b2.TotalBytes {
		t.Fatalf("broker stats diverge: per-record %+v, batched %+v", b1, b2)
	}
}

// TestReplayBronzeToLake: a wiped LAKE rebuilt from the retained bronze
// log answers queries identically to the original.
func TestReplayBronzeToLake(t *testing.T) {
	f := testFacility(t)
	if _, err := f.IngestWindow(t0, t0.Add(time.Minute), telemetry.SourcePowerTemp); err != nil {
		t.Fatal(err)
	}
	q := tsdb.Query{
		From: t0, To: t0.Add(time.Minute),
		Filters:     map[string][]string{tsdb.DimMetric: {"node_power_w"}},
		GroupBy:     []string{tsdb.DimComponent},
		Granularity: 15 * time.Second, Agg: tsdb.AggAvg,
	}
	want, err := f.Lake.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a LAKE restart: fresh store, replay from STREAM.
	f.Lake = tsdb.New(tsdb.Options{RollupInterval: f.Opts.SilverWindow})
	if err := f.AttachPlane(f.Broker, f.Lake); err != nil {
		t.Fatal(err)
	}
	n, quarantined, err := f.ReplayBronzeToLake(context.Background(), telemetry.SourcePowerTemp)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing replayed")
	}
	if quarantined != 0 {
		t.Fatalf("clean topic quarantined %d records", quarantined)
	}
	got, err := f.Lake.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || want.Len() != got.Len() {
		t.Fatalf("rows: want %d got %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		w, g := want.Row(i), got.Row(i)
		for c := range w {
			if w[c] != g[c] {
				t.Fatalf("row %d col %d: want %v got %v", i, c, w, g)
			}
		}
	}
}

package core

import (
	"context"
	"testing"
	"time"

	"odakit/internal/faults"
	"odakit/internal/stream"
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

// TestReplayBronzeWhileRetentionTrims is the recovery scenario the replay
// exists for: the LAKE is rebuilt from STREAM while ingest keeps running,
// and ingest's publishes push byte retention past the head the replay
// was about to read. The replay must carry on from the oldest record
// still held, report exactly the retained records it was entitled to
// (those committed before it started), and leave what ingest commits
// meanwhile to ingest — not abort on the first trimmed fetch.
func TestReplayBronzeWhileRetentionTrims(t *testing.T) {
	src := telemetry.SourcePowerTemp
	topic := BronzeTopic(src)
	build := func() *Facility {
		sys := telemetry.FrontierLike(1).Scaled(12)
		sys.LossRate = 0
		sys.SkewMax = 0
		f, err := NewFacility(Options{
			System: sys, WorkloadSeed: 11, StreamRetentionBytes: 300 << 10,
			ScheduleFrom: t0.Add(-time.Hour), ScheduleTo: t0.Add(4 * time.Hour),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		return f
	}
	minute := func(f *Facility, m int) {
		t.Helper()
		if _, err := f.IngestWindow(t0.Add(time.Duration(m)*time.Minute), t0.Add(time.Duration(m+1)*time.Minute), src); err != nil {
			t.Fatal(err)
		}
	}
	ref := build() // never loses its LAKE
	minute(ref, 0)
	minute(ref, 1)

	f := build()
	minute(f, 0)
	ends := make([]int64, TopicPartitions)
	for p := range ends {
		ends[p], _ = f.Broker.EndOffset(topic, p)
		if oldest, _ := f.Broker.OldestOffset(topic, p); oldest != 0 || ends[p] == 0 {
			t.Fatalf("partition %d before the replay: oldest %d, end %d — want an untrimmed, non-empty log", p, oldest, ends[p])
		}
	}
	f.Lake = tsdb.New(tsdb.Options{RollupInterval: f.Opts.SilverWindow})
	if err := f.AttachPlane(f.Broker, f.Lake); err != nil {
		t.Fatal(err)
	}
	// The replay's first fetch finds ingest a minute further on.
	f.Broker.SetFaultHook(func(op, target string) error {
		if op == faults.OpBrokerFetch && target == topic {
			f.Broker.SetFaultHook(nil)
			minute(f, 1)
		}
		return nil
	})
	n, _, err := f.ReplayBronzeToLake(context.Background(), src)
	if err != nil {
		t.Fatalf("replay across a moving retention horizon: %v", err)
	}
	var want int64
	for p := range ends {
		oldest, _ := f.Broker.OldestOffset(topic, p)
		if oldest == 0 || oldest >= ends[p] {
			t.Fatalf("partition %d: horizon %d after the concurrent ingest, want inside (0, %d)", p, oldest, ends[p])
		}
		want += ends[p] - oldest
	}
	if n != want {
		t.Fatalf("replayed %d observations, the topic retained %d of those committed before the replay", n, want)
	}
	// Minute 1 reached the LAKE through ingest alone: counts match a
	// facility that never replayed.
	q := tsdb.Query{
		From: t0.Add(time.Minute), To: t0.Add(2 * time.Minute),
		GroupBy: []string{tsdb.DimComponent, tsdb.DimMetric}, Granularity: 15 * time.Second, Agg: tsdb.AggCount,
	}
	wantFr, err := ref.Lake.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	gotFr, err := f.Lake.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if wantFr.Len() == 0 || !wantFr.Equal(gotFr) {
		t.Fatalf("the replay re-inserted records ingest had already rolled up (%d vs %d rows)", gotFr.Len(), wantFr.Len())
	}
}

// shortLog is a broker whose EndOffset claims more than a fetch returns —
// what a log whose tail was trimmed away looks like to a
// reader that snapshotted the end first.
type shortLog struct{ *stream.Broker }

func (s shortLog) EndOffset(topic string, part int) (int64, error) {
	end, err := s.Broker.EndOffset(topic, part)
	return end + 3, err
}

// TestReplayEndsWhenNothingIsHeldBelowTheEnd: a pass that delivers no
// page while the cursors are still short of the snapshotted ends is the
// end of the replay, not a reason to poll again.
func TestReplayEndsWhenNothingIsHeldBelowTheEnd(t *testing.T) {
	f := testFacilityBatch(t, 256)
	src := telemetry.SourcePowerTemp
	if _, err := f.IngestWindow(t0, t0.Add(time.Minute), src); err != nil {
		t.Fatal(err)
	}
	bs, err := f.Broker.Stats(BronzeTopic(src))
	if err != nil {
		t.Fatal(err)
	}
	f.Lake = tsdb.New(tsdb.Options{RollupInterval: f.Opts.SilverWindow})
	if err := f.AttachPlane(shortLog{f.Broker}, f.Lake); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n, _, err := f.ReplayBronzeToLake(ctx, src)
	if err != nil || n != bs.TotalRecords {
		t.Fatalf("replay = %d observations, %v; want the %d the topic holds and no error", n, err, bs.TotalRecords)
	}
}

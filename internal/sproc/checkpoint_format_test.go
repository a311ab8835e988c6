package sproc

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
)

// pr17World publishes the log the fixture's job had read (up=40) or that
// log plus the suffix it had not (up=75): one series, one record a
// second, spread unevenly over four partitions.
func pr17World(t *testing.T, up int) *stream.Broker {
	t.Helper()
	b := stream.NewBroker()
	t.Cleanup(b.Close)
	if err := b.CreateTopic("bronze", stream.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	spread := []int{0, 1, 2, 3, 0, 0, 1}
	for s := 0; s < up; s++ {
		o := schema.Observation{
			Ts: tbase.Add(time.Duration(s) * time.Second), System: "compass",
			Source: "power_temp", Component: "node0", Metric: "power", Value: float64(s),
		}
		if _, err := b.PublishBatchTo("bronze", spread[s%len(spread)], []stream.Message{{Key: []byte("node0"), Value: schema.EncodeRow(o.Row())}}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestRestoreFromPR17FormatCheckpoint restores a checkpoint file written
// while jobs still read through the broker's own Consumer (testdata,
// generated by the code at PR 17: windowJob "pr17" run over pr17World(40),
// which leaves offsets [17 11 6 6], two windows emitted and one open),
// proving the on-disk format did not move with the reader: the restored
// job re-serializes to the file's exact bytes, and resuming over the
// unread suffix it emits exactly the windows an uninterrupted job emits
// after the two the fixture's job already had.
func TestRestoreFromPR17FormatCheckpoint(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "pr17_format.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "pr17.ckpt.json")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	var sink collectSink
	j := windowJob(t, pr17World(t, 75), "pr17", dir, sink.sink)
	if err := j.start(); err != nil {
		t.Fatal(err)
	}
	if !j.Metrics().Recovered {
		t.Fatal("the fixture was not restored")
	}
	if err := j.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, fixture) {
		t.Fatalf("re-serialized checkpoint differs from the PR 17 file (err %v):\n got  %s\n want %s", err, again, fixture)
	}
	if err := j.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := j.Metrics(); m.RecordsIn != 35 || m.RecordsLate != 0 {
		t.Fatalf("resumed job read %d records (%d late), want exactly the 35 past the fixture's offsets", m.RecordsIn, m.RecordsLate)
	}

	var ref collectSink
	if err := windowJob(t, pr17World(t, 75), "ref", "", ref.sink).Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, want := sink.rows(), ref.rows()
	if len(want) != 5 || len(got) != len(want)-2 {
		t.Fatalf("resumed job emitted %d windows, uninterrupted %d — want 3 of 5", len(got), len(want))
	}
	for i, row := range got {
		if !row.Equal(want[i+2]) {
			t.Fatalf("window %d after the restore: %v, uninterrupted %v", i+2, row, want[i+2])
		}
	}
}

// TestNonFiniteStateCheckpoints: one ±Inf observation in an open window
// (and the NaN sum a +Inf and a -Inf leave) must checkpoint — a JSON
// number cannot hold it, and a job that cannot marshal its state fails
// every later step, restarting into the same record for ever. The job is
// killed mid-window, rebuilt from the file, and must drain to the frames
// of an uninterrupted run.
func TestNonFiniteStateCheckpoints(t *testing.T) {
	publish := func(b *stream.Broker, from, to int) {
		for s := from; s < to; s++ {
			v0, v1 := float64(s), float64(100+s)
			switch s {
			case 3:
				v0, v1 = math.Inf(1), math.Inf(-1)
			case 7:
				v0 = math.Inf(-1) // node0's sum is now Inf - Inf
			}
			publishObs(t, b, s, "node0", "power", v0)
			publishObs(t, b, s, "node1", "power", v1)
		}
	}
	job := func(b *stream.Broker, name, dir string, sink func(*schema.Frame) error) *Job {
		j, err := NewJob(b, JobConfig{Name: name, Topic: "bronze", InputSchema: schema.ObservationSchema, CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return j.Window(WindowSpec{
			TimeCol: "ts", Window: time.Minute, Keys: []string{"component"},
			Aggs: []Agg{{Col: "value", Kind: AggSum}, {Col: "value", Kind: AggMin}, {Col: "value", Kind: AggMax}, {Col: "value", Kind: AggLast}},
		}).To(sink)
	}
	ctx := context.Background()

	bRef := newBrokerWithTopic(t)
	publish(bRef, 0, 30)
	var ref collectSink
	if err := job(bRef, "ref", "", ref.sink).Drain(ctx); err != nil {
		t.Fatal(err)
	}

	b, dir := newBrokerWithTopic(t), t.TempDir()
	publish(b, 0, 10)
	var sink collectSink
	first := job(b, "inf", dir, sink.sink)
	if err := first.start(); err != nil {
		t.Fatal(err)
	}
	if err := first.step(ctx); err != nil {
		t.Fatalf("micro-batch over ±Inf values: %v", err)
	}
	if len(sink.frames) != 0 {
		t.Fatal("the minute window closed before the kill: nothing non-finite was checkpointed")
	}
	publish(b, 10, 30)
	second := job(b, "inf", dir, sink.sink)
	if err := second.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if m := second.Metrics(); !m.Recovered || m.RecordsIn != 40 {
		t.Fatalf("second incarnation: recovered=%v, read %d records; want a restore and only the 40 unread", m.Recovered, m.RecordsIn)
	}
	got, want := sink.rows(), ref.rows()
	if len(got) != 2 || len(got) != len(want) {
		t.Fatalf("restored run emitted %d rows, uninterrupted %d, want 2", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d after the restore: %v, uninterrupted %v", i, got[i], want[i])
		}
	}
	if sum, min := want[0][2].FloatVal(), want[1][3].FloatVal(); !math.IsNaN(sum) || !math.IsInf(min, -1) {
		t.Fatalf("fixture lost its point: node0 sum %v (want NaN), node1 min %v (want -Inf)", sum, min)
	}
}

package cq

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// TestRestoreParentFormatCheckpoint: a cq.ckpt.json of format 3 written
// before pumps kept watermarks (testdata: two views, one with alerts, over
// two partitions) restores into a pump of plain views, and that pump
// checkpoints it back byte for byte.
func TestRestoreParentFormatCheckpoint(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "format3_pump.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cq.ckpt.json")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	b := stream.NewBroker()
	defer b.Close()
	if err := b.CreateTopic("bronze.alpha", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 270; i++ { // the 180 + 90 records the checkpoint covers
		o := obsAt(unitT0, "n1", "cpu", 1)
		if _, err := b.PublishBatchTo("bronze.alpha", i%2, []stream.Message{{Value: schema.EncodeRow(o.Row())}}); err != nil {
			t.Fatal(err)
		}
	}
	e := testEngine()
	p, err := NewPumpSource(e, b, PumpConfig{Topics: []string{"bronze.alpha"}, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Views()) != 2 || !p.Stats().Recovered {
		t.Fatalf("restored %d views (recovered %v), want the checkpoint's 2", len(e.Views()), p.Stats().Recovered)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, fixture) {
		t.Fatalf("the restored pump checkpoints %d bytes, the file held %d (err %v)", len(again), len(fixture), err)
	}
}

// TestSinkWatermarksCheckpoint: a sink pump's checkpoint carries its
// per-partition watermarks, so a restored pump closes the windows the
// first would have, with no partition counted as never having carried
// data.
func TestSinkWatermarksCheckpoint(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	if err := b.CreateTopic("bronze.alpha", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	publish := func(part, sec int) {
		o := obsAt(unitT0.Add(time.Duration(sec)*time.Second), fmt.Sprintf("n%d", part), "cpu", 1)
		if _, err := b.PublishBatchTo("bronze.alpha", part, []stream.Message{{Value: schema.EncodeRow(o.Row())}}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	var closed []int64
	build := func() *Pump {
		e := NewEngine(Config{RollupInterval: 15 * time.Second, SegmentDuration: 15 * time.Second})
		v, err := e.Register(Spec{GroupBy: []string{tsdb.DimComponent}, Agg: tsdb.AggCount, Granularity: 15 * time.Second,
			Window: 15 * time.Second, Kind: WindowTumbling})
		if err != nil {
			t.Fatal(err)
		}
		v.SetSink(0, func(_ context.Context, groups []tsdb.Group) error {
			for _, g := range groups {
				closed = append(closed, g.Key.Ts)
			}
			return nil
		})
		p, err := NewPumpSource(e, b, PumpConfig{Topics: []string{"bronze.alpha"}, CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ctx := context.Background()
	publish(0, 1)
	publish(0, 20)
	publish(1, 40)
	if err := build().Step(ctx); err != nil { // watermark 20 s: closes [0 s, 15 s)
		t.Fatal(err)
	}
	publish(0, 35)
	p := build()
	if err := p.Step(ctx); err != nil { // watermark 35 s, partition 1's 40 s from the file
		t.Fatal(err)
	}
	want := []int64{unitT0.UnixNano(), unitT0.Add(15 * time.Second).UnixNano()}
	if len(closed) != 2 || closed[0] != want[0] || closed[1] != want[1] {
		t.Fatalf("closed windows %v, want [0 s, 15 s) then [15 s, 30 s): %v", closed, want)
	}
}

// BenchmarkWindowedThroughput drains 20 000 records over 4 partitions and
// 64 components through a pump into a view averaging each component over
// 15 s windows, whose sink builds each closed window's frame.
func BenchmarkWindowedThroughput(b *testing.B) {
	bk := stream.NewBroker()
	defer bk.Close()
	_ = bk.CreateTopic("bronze", stream.TopicConfig{Partitions: 4})
	const records = 20000
	for s := 0; s < records; s++ {
		o := schema.Observation{
			Ts: unitT0.Add(time.Duration(s%600) * time.Second), System: "compass",
			Source: "power_temp", Component: fmt.Sprintf("node%03d", s%64),
			Metric: "power", Value: float64(s),
		}
		if _, err := bk.PublishBatch("bronze", []stream.Message{{Key: []byte(o.Component), Value: schema.EncodeRow(o.Row())}}); err != nil {
			b.Fatal(err)
		}
	}
	out := schema.New(schema.Field{Name: "window", Kind: schema.KindTime}, schema.Field{Name: tsdb.DimComponent, Kind: schema.KindString},
		schema.Field{Name: "v", Kind: schema.KindFloat})
	spec := Spec{GroupBy: []string{tsdb.DimComponent}, Agg: tsdb.AggAvg, Granularity: 15 * time.Second, Window: 15 * time.Second, Kind: WindowTumbling}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(Config{RollupInterval: 15 * time.Second, SegmentDuration: 15 * time.Second})
		v, err := e.Register(spec)
		if err != nil {
			b.Fatal(err)
		}
		v.SetSink(0, func(_ context.Context, groups []tsdb.Group) error {
			var f *schema.Frame
			for k := range groups {
				g := &groups[k]
				if k == 0 || g.Key.Ts != groups[k-1].Key.Ts {
					f = schema.NewFrame(out)
				}
				if err := f.AppendRow(schema.Row{schema.TimeNanos(g.Key.Ts), schema.Str(g.Key.Dims[0]), schema.Float(g.Cell.Value(spec.Agg))}); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := NewPumpSource(e, bk, PumpConfig{Name: fmt.Sprintf("bench%d", i), Topics: []string{"bronze"}, BatchSize: 4096})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "records/op")
}

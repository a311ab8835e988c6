package cq

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// BenchmarkPumpCheckpoint serializes a pump's checkpoint of one view
// holding 61 440 cells — 3 072 components × 20 rollup buckets over four
// partitions — and reports its size as B/ckpt.
func BenchmarkPumpCheckpoint(b *testing.B) {
	const comps, buckets, parts = 3072, 20, 4
	broker := stream.NewBroker()
	defer broker.Close()
	if err := broker.CreateTopic("bronze.alpha", stream.TopicConfig{Partitions: parts}); err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(Config{RollupInterval: 15 * time.Second, SegmentDuration: time.Hour})
	v, err := eng.Register(Spec{Name: "ckpt", GroupBy: []string{tsdb.DimComponent}, Agg: tsdb.AggAvg, Window: 10 * time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	pump, err := NewPumpSource(eng, broker, PumpConfig{Topics: []string{"bronze.alpha"}})
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < buckets; k++ {
		at := unitT0.Add(time.Duration(k) * 15 * time.Second)
		for p := 0; p < parts; p++ {
			obs := make([]schema.Observation, 0, comps/parts)
			for c := p; c < comps; c += parts {
				obs = append(obs, obsAt(at.Add(time.Duration(c)*time.Millisecond), fmt.Sprintf("node%05d", c), "node_power_w", float64(c+k)))
			}
			eng.Apply("bronze.alpha", p, obsRows(obs...))
		}
	}
	if st := v.Stats(); st.Cells != comps*buckets {
		b.Fatalf("view holds %d cells, want %d", st.Cells, comps*buckets)
	}
	offsets := map[string][]int64{"bronze.alpha": make([]int64, parts)}
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		data, err := pump.Snapshot(offsets)
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size), "B/ckpt")
}

// TestNonFiniteAlertCheckpoints: a closed bucket whose value is +Inf
// fires an Above alert, and a checkpoint that retains it still encodes,
// and restores the alert with its value exactly.
func TestNonFiniteAlertCheckpoints(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	if err := broker.CreateTopic("bronze.alpha", stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	above := 100.0
	spec := Spec{Window: 2 * time.Minute, GroupBy: []string{tsdb.DimComponent}, Alert: &AlertSpec{Above: &above}}
	eng := testEngine()
	v, err := eng.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.Apply("bronze.alpha", 0, obsRows(
		obsAt(unitT0, "n1", "cpu", math.Inf(1)),
		obsAt(unitT0.Add(time.Minute), "n1", "cpu", 50), // the watermark passes the +Inf bucket
	))
	want := v.Alerts()
	if len(want) != 1 || !math.IsInf(want[0].Value, 1) {
		t.Fatalf("alerts %+v, want the one +Inf alert", want)
	}
	cfg := PumpConfig{Topics: []string{"bronze.alpha"}}
	pump, err := NewPumpSource(eng, broker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := pump.Snapshot(map[string][]int64{"bronze.alpha": {0}})
	if err != nil {
		t.Fatalf("checkpoint retaining a +Inf alert: %v", err)
	}
	eng2 := testEngine()
	pump2, err := NewPumpSource(eng2, broker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pump2.Restore(data); err != nil {
		t.Fatalf("restore: %v", err)
	}
	v2, ok := eng2.Get(v.ID)
	if !ok {
		t.Fatal("restore did not register the view")
	}
	if got := v2.Alerts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored alerts %+v, want %+v", got, want)
	}
}

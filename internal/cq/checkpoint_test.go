package cq

import (
	"fmt"
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
			eng.Apply("bronze.alpha", p, obs)
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

package oda

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"odakit/internal/cq"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// --------------------------------------------------- continuous queries

// cqWorld mirrors the query grid's dataset into a standing view: the
// same 512 components x 30 min of node_power_w, grouped by component at
// 15 s granularity, maintained incrementally by Engine.Apply exactly as
// a Pump would feed it (per-series partition affinity, per-partition
// arrival order). The cold LAKE store from queryWorld answers the same
// shape by scanning, so the hot-read/cold-batch pair measures the
// ISSUE's claim: a dashboard refresh from the view vs a fresh scan.
var (
	cqWorldOnce sync.Once
	cqWorldView *cq.View
	cqWorldErr  error
)

func cqServeWorld(b *testing.B) *cq.View {
	b.Helper()
	cqWorldOnce.Do(func() {
		e := cq.NewEngine(cq.Config{
			RollupInterval:  15 * time.Second,
			SegmentDuration: 10 * time.Minute,
		})
		v, err := e.Register(cq.Spec{
			Name:        "bench-power",
			Filters:     map[string][]string{tsdb.DimMetric: {"node_power_w"}},
			GroupBy:     []string{tsdb.DimComponent},
			Granularity: 15 * time.Second,
			Agg:         tsdb.AggAvg,
			Window:      30 * time.Minute,
		})
		if err != nil {
			cqWorldErr = err
			return
		}
		// Same record stream loadQueryFixture inserts, fanned out the way
		// a pump delivers it: component hashed to a fixed partition, time
		// ascending within each partition.
		const parts = 4
		metrics := []string{"node_power_w", "cpu_temp_c", "gpu_util_pct", "fan_rpm"}
		runs := make([][]schema.Observation, parts)
		flush := func(p int) {
			if len(runs[p]) > 0 {
				e.Apply("bronze.power_temp", p, obsRows(runs[p]...))
				runs[p] = runs[p][:0]
			}
		}
		for s := 0; s < 30*60; s += 15 {
			for c := 0; c < 512; c++ {
				p := c % parts
				for m, metric := range metrics {
					runs[p] = append(runs[p], schema.Observation{
						Ts: benchT0.Add(time.Duration(s) * time.Second), System: "compass",
						Source: "power_temp", Component: fmt.Sprintf("node%05d", c),
						Metric: metric, Value: float64(1000 + (s+c*7+m*13)%997),
					})
					if len(runs[p]) >= 8192 {
						flush(p)
					}
				}
			}
		}
		for p := range runs {
			flush(p)
		}
		cqWorldView = v
	})
	if cqWorldErr != nil {
		b.Fatal(cqWorldErr)
	}
	return cqWorldView
}

// cqPublishPool pre-encodes 4096 real observation rows; reusing the
// pool keeps timestamps (and so a view's resident cell count) bounded
// while record counts grow.
func cqPublishPool() []stream.Message {
	pool := make([]stream.Message, 4096)
	for i := range pool {
		o := schema.Observation{
			Ts: benchT0.Add(time.Duration(i/512) * 15 * time.Second), System: "compass",
			Source: "power_temp", Component: fmt.Sprintf("node%05d", i%512),
			Metric: "node_power_w", Value: float64(1000 + i%997),
		}
		pool[i] = stream.Message{Key: []byte(o.Component), Value: schema.EncodeRow(o.Row())}
	}
	return pool
}

// cqPublishBroker stands up a bronze topic; withPump additionally
// attaches an engine + pump draining it into a standing view, the way
// -cq production serving runs. Returned cancel stops the pump loop.
func cqPublishBroker(b *testing.B, withPump bool) (*stream.Broker, context.CancelFunc) {
	b.Helper()
	br := stream.NewBroker()
	const topic = "bronze.power_temp"
	if err := br.CreateTopic(topic, stream.TopicConfig{
		Partitions: 4, RetentionBytes: 8 << 20,
	}); err != nil {
		b.Fatal(err)
	}
	if !withPump {
		return br, func() {}
	}
	e := cq.NewEngine(cq.Config{RollupInterval: 15 * time.Second})
	if _, err := e.Register(cq.Spec{
		Name:        "bench-pump",
		Filters:     map[string][]string{tsdb.DimMetric: {"node_power_w"}},
		GroupBy:     []string{tsdb.DimComponent},
		Granularity: 15 * time.Second,
		Agg:         tsdb.AggAvg,
		Window:      5 * time.Minute,
	}); err != nil {
		b.Fatal(err)
	}
	pump, err := cq.NewPumpSource(e, br, cq.PumpConfig{Topics: []string{topic}})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = pump.Run(ctx) }()
	return br, cancel
}

// cqPublishRun publishes n records in batches of 256 and returns the
// wall time of the publish loop alone — the producers' cost, with any
// attached pump draining concurrently as it would in production.
func cqPublishRun(b *testing.B, br *stream.Broker, pool []stream.Message, n int) time.Duration {
	b.Helper()
	const batch = 256
	start := time.Now()
	for done := 0; done < n; {
		off := done % (len(pool) - batch + 1)
		if _, err := br.PublishBatch("bronze.power_temp", pool[off:off+batch]); err != nil {
			b.Fatal(err)
		}
		done += batch
	}
	return time.Since(start)
}

// BenchmarkCQServe measures the continuous-query serving path against
// the ISSUE's two acceptance bars: a view read at the current
// generation must beat the equivalent cold batch query by >= 100x, and
// attaching a pump must cost the publish path < 10% throughput. The
// fold row is the worst case a watcher can hit — a full re-aggregation
// of the resident window after invalidation — and sits between the two.
func BenchmarkCQServe(b *testing.B) {
	// Fixtures are built inside the sub-benchmarks that need them, so a
	// -bench run selecting only the publish pair (as make bench-cq does,
	// in its own process) never carries the query grid's half-million
	// resident cells into the GC heap the publish measurement runs on.
	var hotNs float64
	// The fold row gains its speedup once the cold-batch row has run.
	var foldName string
	var foldRow map[string]any
	var foldNs float64

	b.Run("read=hot", func(b *testing.B) {
		view := cqServeWorld(b)
		frame, info := view.Read() // warm the generation cache
		if frame.Len() != 120*512 {
			b.Fatalf("view rows = %d, want %d", frame.Len(), 120*512)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if frame, _ = view.Read(); frame == nil {
				b.Fatal("nil frame")
			}
		}
		b.StopTimer()
		hotNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		recordBenchRow(b.Name(), map[string]any{
			"read": "hot", "ns_per_op": int64(hotNs),
			"cells": info.Cells, "rows": frame.Len(),
		})
	})

	b.Run("read=fold", func(b *testing.B) {
		view := cqServeWorld(b)
		var info cq.WindowInfo
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			view.Invalidate()
			var frame *schema.Frame
			if frame, info = view.Read(); frame == nil {
				b.Fatal("nil frame")
			}
		}
		b.StopTimer()
		foldNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		foldName, foldRow = b.Name(), map[string]any{
			"read": "fold", "ns_per_op": int64(foldNs), "cells": info.Cells,
		}
		recordBenchRow(foldName, foldRow)
	})

	b.Run("read=cold-batch", func(b *testing.B) {
		coldDB, _ := queryWorld(b)
		// The cold reference runs the view's exact shape — grouped by
		// component at the view's 15 s granularity — with the result
		// cache disabled, so every op is the scan a dashboard refresh
		// would cost without the standing view.
		q := queryForSel("all")
		q.Granularity = 15 * time.Second
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coldDB.Run(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		coldNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		row := map[string]any{"read": "cold-batch", "ns_per_op": int64(coldNs)}
		if hotNs > 0 {
			row["speedup_vs_cold"] = coldNs / hotNs
		}
		recordBenchRow(b.Name(), row)
		if foldRow != nil {
			foldRow["speedup_vs_cold"] = coldNs / foldNs
			recordBenchRow(foldName, foldRow)
		}
	})

	// Paired measurement: the same b.N records through two identically
	// configured brokers — one bare, one with a pump attached — split
	// into alternating rounds with the visit order swapped each round,
	// so allocator warm-up and GC-pacing drift cancel instead of landing
	// on whichever side happens to run later. The with-pump side often
	// measures slightly FASTER (negative overhead): retention trims the
	// ring region the consumer just finished reading, so the zeroing
	// writes hit cache-warm lines that are stone cold in a bare broker
	// (a bare-consumer A/B reproduces a ~5% effect; larger swings in
	// either direction are scheduler noise on shared hardware). The
	// pump's own decode path is allocation-free (schema.DecodeRowTo
	// with an interner), so it adds no GC pressure of its own; the
	// honest summary across runs is "within noise of the bare broker".
	b.Run("publish=overhead", func(b *testing.B) {
		pool := cqPublishPool()
		brBase, stopBase := cqPublishBroker(b, false)
		defer brBase.Close()
		defer stopBase()
		brCQ, stopCQ := cqPublishBroker(b, true)
		defer brCQ.Close()
		defer stopCQ()
		cqPublishRun(b, brBase, pool, 4096) // warmups
		cqPublishRun(b, brCQ, pool, 4096)
		runtime.GC()
		// Round-local pairing: each round publishes the same chunk on
		// both brokers back to back and contributes one overhead ratio,
		// so run-wide drift (GC pacing, allocator warm-up) divides out
		// instead of landing on whichever side a chunk happened to hit.
		// The median ratio then discards rounds a GC cycle split apart.
		const rounds = 32
		chunk := b.N / rounds
		if chunk < 256 {
			chunk = 256
		}
		rate := func(br *stream.Broker) float64 {
			return float64(chunk) / cqPublishRun(b, br, pool, chunk).Seconds()
		}
		var baseRates, cqRates, overheads []float64
		for r := 0; r < rounds; r++ {
			var br, cr float64
			if r%2 == 0 {
				br = rate(brBase)
				cr = rate(brCQ)
			} else {
				cr = rate(brCQ)
				br = rate(brBase)
			}
			baseRates = append(baseRates, br)
			cqRates = append(cqRates, cr)
			overheads = append(overheads, 100*(br-cr)/br)
		}
		median := func(v []float64) float64 {
			sort.Float64s(v)
			return v[len(v)/2]
		}
		baseRPS := median(baseRates)
		cqRPS := median(cqRates)
		overhead := median(overheads)
		b.ReportMetric(cqRPS, "records/sec")
		b.ReportMetric(overhead, "overhead_%")
		recordBenchRow(b.Name(), map[string]any{
			"publish":                  "overhead-pair",
			"baseline_records_per_sec": baseRPS,
			"with_cq_records_per_sec":  cqRPS,
			"overhead_pct":             overhead,
		})
	})
}

// obsRows returns the observations as the rows a pump hands the engine.
func obsRows(obs ...schema.Observation) []schema.Row {
	rows := make([]schema.Row, len(obs))
	for i := range obs {
		rows[i] = obs[i].Row()
	}
	return rows
}

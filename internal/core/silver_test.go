package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"odakit/internal/atomicfile"
	"odakit/internal/cq"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// publishBronze publishes observations to a source's bronze topic, keyed
// by component as ingest keys them.
func publishBronze(t *testing.T, f *Facility, src telemetry.Source, obs []schema.Observation) {
	t.Helper()
	for _, o := range obs {
		if _, err := f.Broker.PublishBatch(BronzeTopic(src), []stream.Message{{Key: []byte(o.Component), Value: schema.EncodeRow(o.Row())}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSilverMatchesLake: Silver's average per (window, component, metric)
// is the LAKE's — the same cell, folded the same way — bit for bit, over
// Bronze records that include a NaN and both infinities. A NaN makes its
// window's average NaN, as it does the LAKE's.
func TestSilverMatchesLake(t *testing.T) {
	f := testFacility(t)
	src := telemetry.SourcePowerTemp
	var obs []schema.Observation
	for s := 0; s < 60; s++ {
		for n, node := range []string{"node00000", "node00001"} {
			for m, metric := range []string{"node_power_w", "cpu_temp_c"} {
				v := 100 + float64(s) + 0.37*float64(10*n+m)
				switch {
				case n == 0 && m == 0 && s == 5:
					v = math.NaN()
				case n == 1 && m == 1 && s == 20:
					v = math.Inf(1)
				case n == 1 && m == 0 && s == 40:
					v = math.Inf(-1)
				}
				obs = append(obs, schema.Observation{Ts: t0.Add(time.Duration(s) * time.Second), System: "frontier",
					Source: string(src), Component: node, Metric: metric, Value: v})
			}
		}
	}
	publishBronze(t, f, src, obs)
	ctx := context.Background()
	if _, _, err := f.ReplayBronzeToLake(ctx, src); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DrainSilver(ctx, SilverPipelineConfig{Source: src}); err != nil {
		t.Fatal(err)
	}
	silver, err := f.ReadSilver(ctx, src, nil, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	lake, err := f.Lake.Run(tsdb.Query{
		From: t0, To: t0.Add(time.Minute), Granularity: f.Opts.SilverWindow, Agg: tsdb.AggAvg,
		GroupBy: []string{tsdb.DimSystem, tsdb.DimComponent, tsdb.DimMetric},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Silver row by (window, component); its metric columns by name.
	type at struct {
		window    int64
		component string
	}
	rows := map[at]schema.Row{}
	for _, r := range silver.Rows() {
		rows[at{r[0].UnixNanos(), r[2].StrVal()}] = r
	}
	if lake.Len() != 2*2*4 || len(rows) != 2*4 {
		t.Fatalf("LAKE answered %d cells and Silver %d rows, want 16 and 8", lake.Len(), len(rows))
	}
	var nan, inf int
	for _, l := range lake.Rows() { // ts, system, component, metric, value
		r, ok := rows[at{l[0].UnixNanos(), l[2].StrVal()}]
		if !ok {
			t.Fatalf("no Silver row for LAKE cell %v", l)
		}
		col := silver.Schema().MustIndex(l[3].StrVal())
		want, got := l[4].FloatVal(), r[col].FloatVal()
		if r[col].IsNull() || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: Silver %v (%#x), LAKE %v (%#x)", l, r[col], math.Float64bits(got), want, math.Float64bits(want))
		}
		switch {
		case math.IsNaN(want):
			nan++
		case math.IsInf(want, 0):
			inf++
		}
	}
	if nan != 1 || inf != 2 {
		t.Fatalf("%d NaN and %d infinite averages, want 1 and 2: the fixture lost its point", nan, inf)
	}
}

// TestPumpAndSilverShareCheckpointDir: the CQ pump and a Silver job keep
// their checkpoints side by side in one directory, each under its own
// name, and opening one sweeps none of the other's files, not even a
// write of the other's caught mid-way.
func TestPumpAndSilverShareCheckpointDir(t *testing.T) {
	f := testFacility(t)
	src := telemetry.SourcePowerTemp
	ctx := context.Background()
	if _, err := f.IngestWindow(ctx, t0, t0.Add(time.Minute), src); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CQ.Register(cq.Spec{Name: "power", Filters: map[string][]string{tsdb.DimMetric: {"node_power_w"}},
		GroupBy: []string{tsdb.DimComponent}, Agg: tsdb.AggAvg, Window: time.Minute}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pump, err := f.NewCQPump(dir, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := pump.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// A pump write caught mid-way: the Silver job's open must leave it.
	torn := filepath.Join(dir, "cq.ckpt.json"+atomicfile.TempSuffix)
	if err := os.WriteFile(torn, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := SilverPipelineConfig{Source: src, CheckpointDir: dir}
	first, err := f.DrainSilver(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); err != nil {
		t.Fatalf("the Silver job swept the pump's temp file: %v", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.ckpt.json"))
	if err != nil || len(names) != 2 {
		t.Fatalf("checkpoints in the shared directory: %v (err %v), want the pump's and the job's", names, err)
	}

	// Both restore from their own file and find nothing left to read (the
	// pump into an engine of its own, as a restarted process has).
	again, err := cq.NewPumpSource(cq.NewEngine(cq.Config{}), f.Broker, cq.PumpConfig{Topics: []string{BronzeTopic(src)}, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := again.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if m := again.Stats(); !m.Recovered || m.Polled != 0 {
		t.Fatalf("restarted pump: %+v, want a restore with nothing to read", m)
	}
	second, err := f.DrainSilver(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Recovered || second.Polled != 0 || first.Polled == 0 {
		t.Fatalf("restarted Silver job: %+v after %+v, want a restore with nothing to read", second, first)
	}
}

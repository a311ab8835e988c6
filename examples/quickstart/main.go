// Quickstart: stand up a facility, ingest a few minutes of telemetry,
// refine it Bronze→Silver→Gold through the streaming pipeline, and look
// at the results — the smallest end-to-end tour of the framework.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	oda "odakit"
)

func main() {
	log.SetFlags(0)

	// A 16-node scaled-down Frontier-like system with a simulated
	// scheduler workload behind it.
	sys := oda.FrontierLike(42)
	f, err := oda.NewFacility(oda.Options{System: sys.Scaled(16), WorkloadSeed: 42})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	from := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(5 * time.Minute)
	ctx := context.Background()

	// 1. Collection: raw telemetry lands in the STREAM broker and the
	// LAKE rollup store.
	stats, err := f.IngestWindow(ctx, from, to, oda.SourcePowerTemp, oda.SourceGPU)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d records (%d KiB) + %d events\n",
		stats.TotalRecs, stats.TotalByte/1024, stats.Events)
	daily := f.ExtrapolateDaily(stats, oda.FrontierLike(42))
	fmt.Printf("at full Frontier scale the power stream alone would be %.2f TB/day\n",
		daily[oda.SourcePowerTemp]/1e12)

	// 2. Engineering: the streaming Bronze→Silver pipeline (15 s windowed
	// averages, pivoted wide, contextualized with job allocations).
	m, err := f.DrainSilver(ctx, oda.SilverPipelineConfig{Source: oda.SourcePowerTemp})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("silver pipeline: %d records in -> %d wide rows out (%d windows)\n",
		m.Polled, m.RowsOut, m.WindowsEmitted)

	// 3. Discovery: Gold artifacts — per-job power profiles and the
	// system power series.
	gold, err := f.BuildGold(ctx, oda.SourcePowerTemp, "node_power_w", 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gold: %d job profiles, %d system-series points\n",
		len(gold.Profiles), gold.SystemSeries.Len())

	// Visualize the system power series in the terminal.
	vi := gold.SystemSeries.Schema().MustIndex("value")
	var series []float64
	for i := 0; i < gold.SystemSeries.Len(); i++ {
		series = append(series, gold.SystemSeries.Row(i)[vi].FloatVal())
	}
	fmt.Printf("system power  %s\n", oda.Sparkline(series))

	// Per-dataset footprint across the medallion stages.
	fmt.Println("\ndatasets:")
	for _, d := range f.Datasets.List() {
		if d.Rows == 0 {
			continue
		}
		fmt.Printf("  %-28s %-7s %8d rows %10d bytes\n", d.Name, d.Stage, d.Rows, d.Bytes)
	}
}

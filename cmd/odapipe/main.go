// odapipe runs the end-to-end ODA pipeline once: ingest telemetry into
// the STREAM/LAKE tiers, refine it Bronze→Silver→Gold, apply retention,
// and print the per-stage numbers (rows, bytes, latencies).
//
// Usage:
//
//	odapipe -nodes 32 -minutes 5 -sources power_temp,gpu
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	oda "odakit"
	"odakit/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	var (
		nodes   = flag.Int("nodes", 32, "machine scale in nodes")
		minutes = flag.Int("minutes", 5, "window length in minutes")
		seed    = flag.Int64("seed", 1, "seed for telemetry and workload")
		sources = flag.String("sources", "power_temp,gpu", "comma-separated sources to ingest")
		dataDir = flag.String("data", "", "persist OCEAN objects under this directory")
		batch   = flag.Int("batch", 512, "ingest batch size (records per STREAM/LAKE flush; 1 = per-record)")
	)
	flag.Parse()

	f, err := oda.NewFacility(oda.Options{
		System: oda.FrontierLike(*seed).Scaled(*nodes), WorkloadSeed: *seed, DataDir: *dataDir,
		IngestBatch: *batch,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	from := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(time.Duration(*minutes) * time.Minute)

	var srcs []telemetry.Source
	for _, s := range strings.Split(*sources, ",") {
		srcs = append(srcs, telemetry.Source(strings.TrimSpace(s)))
	}

	ctx := context.Background()
	start := time.Now()
	stats, err := f.IngestWindow(ctx, from, to, srcs...)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("ingest: %d records, %d events, %.1f MiB in %s (%.0f records/sec, batch=%d)\n",
		stats.TotalRecs, stats.Events, float64(stats.TotalByte)/(1<<20), elapsed.Round(time.Millisecond),
		float64(stats.TotalRecs)/elapsed.Seconds(), *batch)
	for _, si := range stats.Sources {
		fmt.Printf("  %-16s %10d records %10d bytes\n", si.Source, si.Records, si.Bytes)
	}

	start = time.Now()
	m, err := f.DrainSilver(ctx, oda.SilverPipelineConfig{Source: srcs[0]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("silver: %d in -> %d out (%d windows, %d late, %d invalid) in %s\n",
		m.RecordsIn, m.RowsOut, m.WindowsEmitted, m.RecordsLate, m.RecordsInvalid,
		time.Since(start).Round(time.Millisecond))

	start = time.Now()
	gold, err := f.BuildGold(ctx, srcs[0], "node_power_w", 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gold: %d job profiles, %d series points in %s\n",
		len(gold.Profiles), gold.SystemSeries.Len(), time.Since(start).Round(time.Millisecond))

	ret, err := f.ApplyRetention(to.Add(14*24*time.Hour), 24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retention: dropped %d lake + %d log segments, froze %d objects\n",
		ret.LakeSegmentsDropped, ret.LogSegmentsDropped, ret.GlacierFrozen)

	fmt.Println("\ndatasets:")
	for _, d := range f.Datasets.List() {
		if d.Rows == 0 {
			continue
		}
		fmt.Printf("  %-28s %-7s %10d rows %12d bytes\n", d.Name, d.Stage, d.Rows, d.Bytes)
	}
}

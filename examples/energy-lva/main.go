// Energy analytics (Figs 8 & 10): refine half an hour of power telemetry
// into Gold job power profiles, serve them through the Live Visual
// Analytics service, and cluster them with the neural-network profile
// classifier — printing the Fig 10 grid of profile shapes and populations.
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
	f, err := oda.NewFacility(oda.Options{
		System: oda.FrontierLike(3).Scaled(24),
		// A busy machine: frequent small jobs so the window holds many
		// complete power profiles to cluster.
		Workload: &oda.WorkloadConfig{
			Seed: 3, MeanInterarrival: 15 * time.Second,
			MaxNodes: 4, MeanRuntime: 10 * time.Minute,
		},
		ScheduleFrom: time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC).Add(-2 * time.Hour),
		ScheduleTo:   time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC).Add(3 * time.Hour),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	from := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(30 * time.Minute)
	fmt.Println("ingesting 30 minutes of power telemetry...")
	ctx := context.Background()
	if _, err := f.IngestWindow(ctx, from, to, oda.SourcePowerTemp); err != nil {
		log.Fatal(err)
	}
	if _, err := f.DrainSilver(ctx, oda.SilverPipelineConfig{Source: oda.SourcePowerTemp}); err != nil {
		log.Fatal(err)
	}
	gold, err := f.BuildGold(ctx, oda.SourcePowerTemp, "node_power_w", 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gold artifacts: %d job power profiles\n\n", len(gold.Profiles))

	// LVA: low-latency interactive queries over the pre-refined data.
	lva, err := oda.NewLVA(gold.Profiles, gold.SystemSeries)
	if err != nil {
		log.Fatal(err)
	}
	sys := lva.SystemView(from, to, 60)
	fmt.Printf("system power (LVA): %s\n", oda.Sparkline(sys))
	fmt.Println("top energy jobs:")
	for _, p := range lva.TopEnergyJobs(5) {
		fmt.Printf("  %-10s %-8s mean %7.0f W  peak %7.0f W  %7.2f kWh  %s\n",
			p.JobID, p.Program, p.MeanPowerW, p.PeakPowerW, p.EnergyKWh, oda.Sparkline(p.Vector))
	}
	n, mean := lva.QueryStats()
	fmt.Printf("LVA served %d queries, mean latency %s\n\n", n, mean)

	// Fig 10: train the NN classifier and print the grid map.
	if len(gold.Profiles) < 8 {
		fmt.Println("not enough jobs for clustering at this scale; increase the window")
		return
	}
	vecs := make([][]float64, len(gold.Profiles))
	for i, p := range gold.Profiles {
		vecs[i] = p.Vector
	}
	clf, err := oda.TrainClassifier(vecs, oda.ClassifierConfig{Seed: 1, Epochs: 40, GridW: 4, GridH: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("profile classifier grid (cells are mean shapes, number is population):")
	grid := clf.Map(vecs)
	w, h := clf.Cells()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cell := grid[y*w+x]
			shape := "(empty)         "
			if cell.MeanShape != nil {
				shape = oda.Sparkline(downsample(cell.MeanShape, 12))
			}
			fmt.Printf("  [%2d] %-14s", cell.Population, shape)
		}
		fmt.Println()
	}
}

func downsample(v []float64, n int) []float64 {
	if len(v) <= n {
		return v
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = v[i*len(v)/n]
	}
	return out
}

// odareport regenerates the paper's tables and figures as text reports
// from the running system: the registry-backed exhibits directly, the
// data-driven ones from a small simulated window.
//
// Usage:
//
//	odareport -exhibit all
//	odareport -exhibit fig4a -nodes 16
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	oda "odakit"
	"odakit/internal/catalog"
	"odakit/internal/governance"
	"odakit/internal/jobsched"
	"odakit/internal/report"
	"odakit/internal/telemetry"
)

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func main() {
	log.SetFlags(0)
	var (
		exhibit = flag.String("exhibit", "all", "table1|table2|fig2|fig3|fig4a|fig4c|fig5|fig7|queues|all")
		nodes   = flag.Int("nodes", 16, "machine scale for data-driven exhibits")
		seed    = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()

	exhibits := map[string]func(int, int64){
		"table1": func(int, int64) { table1() },
		"table2": func(int, int64) { table2() },
		"fig2":   func(int, int64) { fig2() },
		"fig3":   func(int, int64) { fig3() },
		"fig4a":  fig4a,
		"fig4c":  func(int, int64) { fig4c() },
		"fig5":   fig5,
		"fig7":   fig7,
		"queues": queues,
	}
	if *exhibit == "all" {
		names := make([]string, 0, len(exhibits))
		for n := range exhibits {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("\n================ %s ================\n", n)
			exhibits[n](*nodes, *seed)
		}
		return
	}
	fn, ok := exhibits[*exhibit]
	if !ok {
		log.Fatalf("unknown exhibit %q", *exhibit)
	}
	fn(*nodes, *seed)
}

// table1 regenerates Table I: areas of operational data usage.
func table1() {
	fmt.Println("Table I: areas of operational data usage in an HPC organization")
	last := ""
	for _, a := range catalog.Areas {
		if a.Category != last {
			fmt.Printf("\n[%s]\n", a.Category)
			last = a.Category
		}
		fmt.Printf("  %-16s %s\n", a.Name, a.Description)
	}
}

// table2 regenerates Table II: advisory-chain considerations.
func table2() {
	fmt.Println("Table II: considerations from the advisory chain")
	for _, s := range governance.Stages() {
		fmt.Printf("  %-16s %s\n", s, s.Consideration())
	}
}

// fig2 regenerates the L0-L5 maturity ladder.
func fig2() {
	fmt.Println("Fig 2: data stream establishment stages (L0 to L5)")
	for m := catalog.L0; m <= catalog.L5; m++ {
		fmt.Printf("  %s  %s\n", m, m.Description())
	}
}

// fig3 regenerates the readiness matrix for the two generations.
func fig3() {
	m, err := catalog.FigureThree(t0.AddDate(-6, 0, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Fig 3: data usage maturity per (source, area); cells show mountain / compass, [..] = owner")
	fmt.Print(m.Render(catalog.FigureThreeSystems))
	fmt.Println("\nreadiness gaps on compass (owner >= cell+2):")
	for _, g := range m.Gaps("compass") {
		fmt.Printf("  %-18s %-16s at %s, owner at %s\n", g.Source, g.Area, g.Level, g.OwnerLevel)
	}
}

// fig4a measures ingest per source and extrapolates to full scale.
func fig4a(nodes int, seed int64) {
	f, err := oda.NewFacility(oda.Options{System: oda.FrontierLike(seed).Scaled(nodes), WorkloadSeed: seed})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	stats, err := f.IngestWindow(context.Background(), t0, t0.Add(30*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig 4-a: raw ingest rate per stream (measured at %d nodes, extrapolated to full scale)\n", nodes)
	daily := f.ExtrapolateDaily(stats, oda.FrontierLike(seed))
	dailyM := f.ExtrapolateDaily(stats, oda.SummitLike(seed))
	var total float64
	fmt.Printf("  %-16s %14s %14s\n", "source", "compass GB/day", "mountain GB/day")
	for _, si := range stats.Sources {
		c, m := daily[si.Source]/1e9, dailyM[si.Source]/1e9
		total += c + m
		fmt.Printf("  %-16s %14.1f %14.1f\n", si.Source, c, m)
	}
	fmt.Printf("  %-16s %29.1f  (paper: 4.2-4.5 TB/day)\n", "TOTAL", total/1000)
}

// fig4c prints the control-loop timescales.
func fig4c() {
	fmt.Println("Fig 4-c: operational control loops by timescale")
	for _, cl := range oda.ControlLoops {
		fmt.Printf("  %-22s %12s  tier=%-22s %s\n", cl.Name, cl.Timescale, cl.Tier, cl.Consumer)
	}
}

// fig5 runs a small window through all tiers and reports footprints.
func fig5(nodes int, seed int64) {
	f, err := oda.NewFacility(oda.Options{System: oda.FrontierLike(seed).Scaled(nodes), WorkloadSeed: seed})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	if _, err := f.IngestWindow(ctx, t0, t0.Add(2*time.Minute), oda.SourcePowerTemp); err != nil {
		log.Fatal(err)
	}
	if _, err := f.DrainSilver(ctx, oda.SilverPipelineConfig{Source: oda.SourcePowerTemp}); err != nil {
		log.Fatal(err)
	}
	if _, err := f.BuildGold(ctx, oda.SourcePowerTemp, "node_power_w", 16); err != nil {
		log.Fatal(err)
	}
	bs, _ := f.Broker.Stats("bronze." + string(telemetry.SourcePowerTemp))
	fmt.Println("Fig 5: tiered data services after one 2-minute window")
	fmt.Printf("  STREAM   %d records retained (%d KiB), %d published\n", bs.Records, bs.Bytes/1024, bs.TotalRecords)
	ls := f.Lake.Stats()
	fmt.Printf("  LAKE     %d rollup cells in %d segments (%d raw rows), %d log docs\n",
		ls.RollupCells, ls.Segments, ls.RawIngested, f.Logs.Stats().Docs)
	for _, b := range []string{oda.BucketBronze, oda.BucketSilver, oda.BucketGold} {
		st, _ := f.Ocean.Stats(b)
		fmt.Printf("  OCEAN    bucket %-7s %d objects, %d bytes\n", b, st.Objects, st.CurrentBytes)
	}
	gs := f.Glacier.Stats()
	fmt.Printf("  GLACIER  %d items, %d bytes\n", gs.Items, gs.Bytes)
}

// fig7 regenerates the RATS program-usage report.
func fig7(nodes int, seed int64) {
	f, err := oda.NewFacility(oda.Options{
		System: oda.FrontierLike(seed).Scaled(nodes), WorkloadSeed: seed,
		ScheduleFrom: t0.Add(-24 * time.Hour), ScheduleTo: t0,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rows := f.Rats.ByProgram(t0.Add(-24*time.Hour), t0)
	fmt.Print(report.RenderProgramReport(rows, t0.Add(-24*time.Hour), t0))
	fmt.Println("\nburn rates:")
	for i, p := range f.Rats.ProjectBurn(t0.Add(-24*time.Hour), t0) {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-8s used %9.1f node-h, burn %9.1f node-h/day\n", p.Project, p.UsedNodeHours, p.BurnPerDay)
	}
}

// queues prints queue-wait statistics by job-size class: the
// scheduling-health view procurement reads (§VI-C system design).
func queues(nodes int, seed int64) {
	sim := jobsched.New(jobsched.Config{
		Nodes: nodes * 8, System: "compass",
		Workload: jobsched.WorkloadConfig{Seed: seed},
	})
	s := sim.Run(t0.Add(-24*time.Hour), t0)
	fmt.Printf("queue waits by job size over 24h on %d nodes:\n", nodes*8)
	fmt.Printf("  %-10s %8s %14s %14s %14s\n", "size", "jobs", "median wait", "p90 wait", "max wait")
	for _, q := range s.QueueWaits() {
		fmt.Printf("  %-10s %8d %14s %14s %14s\n",
			q.SizeClass, q.Jobs,
			q.MedianWait.Round(time.Second), q.P90Wait.Round(time.Second), q.MaxWait.Round(time.Second))
	}
}

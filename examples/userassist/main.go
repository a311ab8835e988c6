// User assistance (Fig 6): a support engineer gets a ticket about a job
// and pulls up the consolidated diagnostic view — power and GPU
// utilization sparklines, the hottest nodes, and every log event on the
// job's nodes during its run — instead of manually checking N systems.
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
		System: oda.FrontierLike(7).Scaled(16), WorkloadSeed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	from := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(20 * time.Minute)
	if _, err := f.IngestWindow(context.Background(), from, to, oda.SourcePowerTemp, oda.SourceGPU); err != nil {
		log.Fatal(err)
	}

	// The "ticket": pick a job that ran inside the telemetry window.
	var ticketJob string
	for _, j := range f.Sched.Jobs {
		if !j.Start.IsZero() && j.Start.Before(to.Add(-5*time.Minute)) && j.End.After(from.Add(5*time.Minute)) && j.Nodes >= 2 {
			ticketJob = j.ID
			break
		}
	}
	if ticketJob == "" {
		log.Fatal("no suitable job in the window")
	}
	fmt.Printf("ticket: user reports %q ran slower than expected\n\n", ticketJob)

	dash := &oda.UADashboard{Lake: f.Lake, Logs: f.Logs, Sched: f.Sched}
	view, err := dash.BuildJobView(ticketJob, 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(view.RenderText())

	// The consolidation win the paper reports: one view instead of
	// manually querying each backend.
	fmt.Printf("\nwithout the dashboard this is %d separate system lookups\n", view.QueriesIssued)
}

// Data governance (Table II, Fig 12): an external collaboration asks for
// job-contextualized power data. The request moves through the full
// advisory chain, the dataset is sanitized (pseudonymized users, scrubbed
// log text), verified PII-free, and released with a public identifier.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	oda "odakit"
	"odakit/internal/governance"
)

func main() {
	log.SetFlags(0)
	f, err := oda.NewFacility(oda.Options{System: oda.FrontierLike(5).Scaled(12), WorkloadSeed: 5})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// Produce the dataset the collaborator wants: contextualized Silver.
	from := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	ctx := context.Background()
	if _, err := f.IngestWindow(ctx, from, from.Add(5*time.Minute), oda.SourcePowerTemp); err != nil {
		log.Fatal(err)
	}
	if _, err := f.DrainSilver(ctx, oda.SilverPipelineConfig{Source: oda.SourcePowerTemp}); err != nil {
		log.Fatal(err)
	}
	silver, err := f.ReadSilver(ctx, oda.SourcePowerTemp, nil, time.Time{}, time.Time{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d contextualized silver rows (columns include user, project)\n\n", silver.Len())

	// File the request with the DataRUC.
	id, err := f.DataRUC.Submit("staff-host", "ext-university-collab",
		"share power profiles with university partners",
		[]string{"silver/power_temp"}, oda.ExternalCollab)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("request %s filed; advisory chain (Table II):\n", id)
	for _, stage := range oda.GovernanceStages() {
		fmt.Printf("  %-15s %s\n", stage, stage.Consideration())
	}
	fmt.Println()

	// The cyber-security stage demands sanitization before approval.
	sanitized, err := governance.SanitizeFrame(silver, governance.SanitizePolicy{
		Salt:                "release-2024-06",
		DropColumns:         []string{"project"},
		PseudonymizeColumns: []string{"user"},
	})
	if err != nil {
		log.Fatal(err)
	}
	if issues := governance.VerifySanitized(sanitized); len(issues) > 0 {
		log.Fatalf("sanitization left PII: %v", issues)
	}
	fmt.Printf("sanitized: project column dropped, users pseudonymized, PII scan clean\n\n")

	// Every stage reviews and approves.
	for _, stage := range oda.GovernanceStages() {
		r, err := f.DataRUC.Decide(id, stage, "reviewer-"+stage.String(), true, "approved after review")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-15s approved (status now %s)\n", stage, r.Status)
	}
	rel, err := f.DataRUC.Release(id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreleased as %s at %s covering %v\n",
		rel.ReleaseID, rel.At.Format(time.RFC3339), rel.Datasets)

	// The audit trail the process exists for.
	req, _ := f.DataRUC.Get(id)
	fmt.Println("\naudit trail:")
	for _, d := range req.Decisions {
		fmt.Printf("  %-15s by %-26s approved=%v\n", d.Stage, d.Reviewer, d.Approved)
	}
}

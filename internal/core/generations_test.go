package core

import (
	"context"
	"testing"
	"time"

	"odakit/internal/telemetry"
)

// The paper's framework serves two supercomputer generations at once
// ("data outlives its originating system"). This smoke test runs the
// identical end-to-end pipeline for both simulated generations and checks
// the framework is generation-agnostic.
func TestBothGenerationsEndToEnd(t *testing.T) {
	cases := []struct {
		name string
		cfg  telemetry.SystemConfig
	}{
		{"compass", telemetry.FrontierLike(3).Scaled(8)},
		{"mountain", telemetry.SummitLike(3).Scaled(8)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := c.cfg
			cfg.LossRate = 0
			f, err := NewFacility(Options{
				System: cfg, WorkloadSeed: 3,
				ScheduleFrom: t0.Add(-time.Hour), ScheduleTo: t0.Add(2 * time.Hour),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.IngestWindow(context.Background(), t0, t0.Add(2*time.Minute), telemetry.SourcePowerTemp); err != nil {
				t.Fatal(err)
			}
			m, err := f.DrainSilver(context.Background(), SilverPipelineConfig{Source: telemetry.SourcePowerTemp})
			if err != nil {
				t.Fatal(err)
			}
			if m.RowsOut == 0 {
				t.Fatal("no silver rows")
			}
			silver, err := f.ReadSilver(context.Background(), telemetry.SourcePowerTemp, nil, time.Time{}, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			// Every silver row carries the right system name.
			si := silver.Schema().MustIndex("system")
			for i := 0; i < silver.Len(); i++ {
				if got := silver.Row(i)[si].StrVal(); got != cfg.Name {
					t.Fatalf("system = %q, want %q", got, cfg.Name)
				}
			}
			// Mountain samples power at 10s, compass at 1s: the silver
			// row count is identical (window-aligned) but the rollup
			// count per window differs — check windows exist either way.
			if silver.Len() != 8*cfg.Nodes {
				t.Fatalf("%s silver rows = %d, want %d", cfg.Name, silver.Len(), 8*cfg.Nodes)
			}
			if _, err := f.BuildGold(context.Background(), telemetry.SourcePowerTemp, "node_power_w", 16); err != nil {
				t.Fatal(err)
			}
		})
	}
}

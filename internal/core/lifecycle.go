package core

import (
	"context"
	"fmt"
	"time"

	"odakit/internal/governance"
	"odakit/internal/profiles"
	"odakit/internal/telemetry"
	"odakit/internal/viz"
)

// LifeCycleStage enumerates the Fig 1 stages of the data life cycle.
type LifeCycleStage int

// The stages, in loop order.
const (
	StageCollection LifeCycleStage = iota
	StageEngineering
	StageDiscovery
	StageVisualization
	StageAdvanced
	StageGovernance
	numLifeCycleStages
)

// String names the stage.
func (s LifeCycleStage) String() string {
	switch s {
	case StageCollection:
		return "collection"
	case StageEngineering:
		return "engineering"
	case StageDiscovery:
		return "discovery"
	case StageVisualization:
		return "visualization"
	case StageAdvanced:
		return "advanced_usage"
	case StageGovernance:
		return "governance"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// LifeCycleStages lists all stages in order.
func LifeCycleStages() []LifeCycleStage {
	out := make([]LifeCycleStage, numLifeCycleStages)
	for i := range out {
		out[i] = LifeCycleStage(i)
	}
	return out
}

// ControlLoop describes one operational feedback loop of Fig 4-c: a
// consumer acting on data at a characteristic timescale, served by a
// specific tier.
type ControlLoop struct {
	Name      string
	Timescale time.Duration
	Tier      string
	Consumer  string
}

// ControlLoops is the Fig 4-c registry, fastest first.
var ControlLoops = []ControlLoop{
	{"realtime_diagnostics", 15 * time.Second, "LAKE", "system administration"},
	{"user_assistance", 5 * time.Minute, "LAKE", "user assistance triage"},
	{"energy_analytics", time.Hour, "OCEAN silver", "energy efficiency"},
	{"usage_reporting", 24 * time.Hour, "OCEAN gold + RATS", "program management"},
	{"procurement_planning", 90 * 24 * time.Hour, "GLACIER + OCEAN history", "system design"},
}

// StageResult times one life-cycle stage.
type StageResult struct {
	Stage    LifeCycleStage
	Duration time.Duration
	Detail   string
}

// LifeCycleReport is the outcome of one full Fig 1 loop.
type LifeCycleReport struct {
	From, To time.Time
	Stages   []StageResult
	Total    time.Duration
}

// RunLifeCycle executes one complete loop of the Fig 1 data life cycle
// over [from, to): collect telemetry, refine Bronze→Silver→Gold, build
// the operator dashboard, train and register the profile classifier, and
// push a release through governance. Every stage is timed, which is what
// the Fig 1 bench reports.
func (f *Facility) RunLifeCycle(ctx context.Context, from, to time.Time) (*LifeCycleReport, error) {
	rep := &LifeCycleReport{From: from, To: to}
	start := time.Now()
	step := func(stage LifeCycleStage, detail string, fn func() error) error {
		s := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("core: life cycle %s: %w", stage, err)
		}
		rep.Stages = append(rep.Stages, StageResult{Stage: stage, Duration: time.Since(s), Detail: detail})
		return nil
	}

	// 1. Collection: land raw streams.
	if err := step(StageCollection, "telemetry into STREAM + LAKE", func() error {
		_, err := f.IngestWindow(ctx, from, to, telemetry.SourcePowerTemp, telemetry.SourceGPU)
		return err
	}); err != nil {
		return nil, err
	}

	// 2. Engineering: Bronze→Silver streaming refinement.
	if err := step(StageEngineering, "streaming silver pipeline", func() error {
		_, err := f.DrainSilver(ctx, SilverPipelineConfig{Source: telemetry.SourcePowerTemp})
		return err
	}); err != nil {
		return nil, err
	}

	// 3. Discovery/analysis: Gold artifacts.
	var gold *GoldArtifacts
	if err := step(StageDiscovery, "gold job profiles + system series", func() error {
		var err error
		gold, err = f.BuildGold(ctx, telemetry.SourcePowerTemp, "node_power_w", 32)
		return err
	}); err != nil {
		return nil, err
	}

	// 4. Visualization: operator dashboard for the busiest job.
	if err := step(StageVisualization, "UA dashboard build", func() error {
		dash := &viz.UADashboard{Lake: f.lake, Logs: f.Logs, Sched: f.Sched}
		var target string
		for _, j := range f.Sched.Jobs {
			if !j.Start.IsZero() && j.Start.Before(to) && j.End.After(from) {
				target = j.ID
				break
			}
		}
		if target == "" {
			return fmt.Errorf("no job overlaps the window")
		}
		_, err := dash.BuildJobView(target, 10)
		return err
	}); err != nil {
		return nil, err
	}

	// 5. Advanced usage: train, track, and register the classifier.
	if err := step(StageAdvanced, "profile classifier train + register", func() error {
		if len(gold.Profiles) < 4 {
			return nil // not enough jobs in the window to train on
		}
		vecs := make([][]float64, len(gold.Profiles))
		for i, p := range gold.Profiles {
			vecs[i] = p.Vector
		}
		clf, err := profiles.Train(vecs, profiles.Config{Seed: 1, Epochs: 10})
		if err != nil {
			return err
		}
		run, err := f.ML.StartRun("power-clustering")
		if err != nil {
			return err
		}
		run.LogParam("epochs", "10")
		run.LogMetric("profiles", float64(len(vecs)))
		if err := f.ML.EndRun(run); err != nil {
			return err
		}
		data, err := clf.MarshalBinary()
		if err != nil {
			return err
		}
		_, err = f.ML.RegisterModel("profile-classifier", data, run)
		return err
	}); err != nil {
		return nil, err
	}

	// 6. Governance: request, approve, and release the gold artifact.
	if err := step(StageGovernance, "DataRUC review + release", func() error {
		id, err := f.DataRUC.Submit("staff-pi", "energy-eff", "publish job power dataset",
			[]string{BucketGold + "/" + gold.ProfilesKey}, governance.Publication)
		if err != nil {
			return err
		}
		for _, st := range governance.Stages() {
			if _, err := f.DataRUC.Decide(id, st, "reviewer-"+st.String(), true, "ok"); err != nil {
				return err
			}
		}
		_, err = f.DataRUC.Release(id)
		return err
	}); err != nil {
		return nil, err
	}

	rep.Total = time.Since(start)
	return rep, nil
}

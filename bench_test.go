// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
// Each benchmark measures the operation behind its exhibit and prints the
// exhibit's rows once (guarded by printOnce) so `go test -bench=.` output
// doubles as the reproduction record captured in EXPERIMENTS.md.
package oda

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"odakit/internal/catalog"
	"odakit/internal/columnar"
	"odakit/internal/core"
	"odakit/internal/forecast"
	"odakit/internal/governance"
	"odakit/internal/jobsched"
	"odakit/internal/medallion"
	"odakit/internal/mlops"
	"odakit/internal/objstore"
	"odakit/internal/obs"
	"odakit/internal/profiles"
	"odakit/internal/report"
	"odakit/internal/schema"
	"odakit/internal/sproc"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
	"odakit/internal/twin"
	"odakit/internal/viz"
)

var benchT0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

var printGuards sync.Map

// printOnce emits an exhibit's rows exactly once per test-binary run,
// no matter how many calibration passes the benchmark makes.
func printOnce(name, text string) {
	once, _ := printGuards.LoadOrStore(name, &sync.Once{})
	once.(*sync.Once).Do(func() { fmt.Printf("\n--- %s ---\n%s\n", name, text) })
}

// sharedWorld is a read-mostly fixture: a 16-node facility with 10
// minutes of power+GPU telemetry ingested, Silver drained, Gold built.
type world struct {
	f    *core.Facility
	gold *core.GoldArtifacts
}

var (
	worldOnce sync.Once
	theWorld  *world
	worldErr  error
)

func sharedWorld(b *testing.B) *world {
	b.Helper()
	worldOnce.Do(func() {
		sys := FrontierLike(1).Scaled(16)
		sys.LossRate = 0.01
		f, err := NewFacility(Options{
			System: sys,
			Workload: &WorkloadConfig{
				Seed: 1, MeanInterarrival: 20 * time.Second,
				MaxNodes: 6, MeanRuntime: 12 * time.Minute,
			},
			ScheduleFrom: benchT0.Add(-time.Hour), ScheduleTo: benchT0.Add(2 * time.Hour),
		})
		if err != nil {
			worldErr = err
			return
		}
		if _, err := f.IngestWindow(benchT0, benchT0.Add(10*time.Minute), SourcePowerTemp, SourceGPU); err != nil {
			worldErr = err
			return
		}
		if _, err := f.DrainSilver(context.Background(), SilverPipelineConfig{Source: SourcePowerTemp}); err != nil {
			worldErr = err
			return
		}
		gold, err := f.BuildGold(SourcePowerTemp, "node_power_w", 32)
		if err != nil {
			worldErr = err
			return
		}
		theWorld = &world{f: f, gold: gold}
	})
	if worldErr != nil {
		b.Fatal(worldErr)
	}
	return theWorld
}

// ---------------------------------------------------------------- Table I

func BenchmarkTableI_UsageAreas(b *testing.B) {
	w := sharedWorld(b)
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		// The live exhibit: every Table I area resolved against the data
		// the facility actually serves it from.
		for _, a := range catalog.Areas {
			if _, ok := catalog.AreaByName(a.Name); ok {
				rows++
			}
		}
	}
	b.StopTimer()
	var buf bytes.Buffer
	last := ""
	for _, a := range catalog.Areas {
		if a.Category != last {
			fmt.Fprintf(&buf, "[%s]\n", a.Category)
			last = a.Category
		}
		fmt.Fprintf(&buf, "  %-16s %s\n", a.Name, a.Description)
	}
	fmt.Fprintf(&buf, "(%d areas; facility serves them from %d registered datasets)",
		len(catalog.Areas), len(w.f.Datasets.List()))
	printOnce("Table I: areas of operational data usage", buf.String())
}

// --------------------------------------------------------------- Table II

func BenchmarkTableII_AdvisoryChain(b *testing.B) {
	b.ReportAllocs()
	wf := governance.NewWorkflow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := wf.Submit("pi", "proj", "bench", []string{"ds"}, governance.Publication)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range governance.Stages() {
			if _, err := wf.Decide(id, s, "r", true, ""); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := wf.Release(id); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var buf bytes.Buffer
	for _, s := range governance.Stages() {
		fmt.Fprintf(&buf, "  %-16s %s\n", s, s.Consideration())
	}
	printOnce("Table II: advisory chain considerations (one full chain per op)", buf.String())
}

// ------------------------------------------------------------------ Fig 1

func BenchmarkFig1_LifeCycleLoop(b *testing.B) {
	var rep *core.LifeCycleReport
	for i := 0; i < b.N; i++ {
		sys := FrontierLike(2).Scaled(12)
		sys.LossRate = 0
		f, err := NewFacility(Options{System: sys, WorkloadSeed: 2,
			ScheduleFrom: benchT0.Add(-time.Hour), ScheduleTo: benchT0.Add(time.Hour)})
		if err != nil {
			b.Fatal(err)
		}
		rep, err = f.RunLifeCycle(context.Background(), benchT0, benchT0.Add(5*time.Minute))
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
	b.StopTimer()
	var buf bytes.Buffer
	for _, s := range rep.Stages {
		fmt.Fprintf(&buf, "  %-16s %12s  %s\n", s.Stage, s.Duration.Round(time.Microsecond), s.Detail)
		b.ReportMetric(float64(s.Duration.Microseconds()), s.Stage.String()+"_us")
	}
	fmt.Fprintf(&buf, "  %-16s %12s", "TOTAL", rep.Total.Round(time.Microsecond))
	printOnce("Fig 1: one full data life-cycle loop (5 simulated minutes, 12 nodes)", buf.String())
}

// ------------------------------------------------------------------ Fig 2

func BenchmarkFig2_MaturityProgression(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := catalog.NewMatrix()
		if err := m.Declare("compass", "power_temp", "energy_eff", true, benchT0, "plan"); err != nil {
			b.Fatal(err)
		}
		for l := catalog.L1; l <= catalog.L5; l++ {
			if _, err := m.Advance("compass", "power_temp", "energy_eff", benchT0, "step"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	var buf bytes.Buffer
	for m := catalog.L0; m <= catalog.L5; m++ {
		fmt.Fprintf(&buf, "  %s  %s\n", m, m.Description())
	}
	printOnce("Fig 2: L0-L5 stream establishment (one full progression per op)", buf.String())
}

// ------------------------------------------------------------------ Fig 3

func BenchmarkFig3_ReadinessMatrix(b *testing.B) {
	var rendered string
	var gaps []catalog.Gap
	for i := 0; i < b.N; i++ {
		m, err := catalog.FigureThree(benchT0.AddDate(-6, 0, 0))
		if err != nil {
			b.Fatal(err)
		}
		rendered = m.Render(catalog.FigureThreeSystems)
		gaps = m.Gaps("compass")
	}
	b.ReportMetric(float64(len(gaps)), "readiness_gaps")
	printOnce("Fig 3: readiness matrix (mountain / compass)", rendered+
		fmt.Sprintf("%d readiness gaps on compass where the owner leads by >= 2 levels", len(gaps)))
}

// ----------------------------------------------------------------- Fig 4a

func BenchmarkFig4a_IngestRate(b *testing.B) {
	sys := FrontierLike(3).Scaled(12)
	f, err := NewFacility(Options{System: sys, WorkloadSeed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	var stats core.IngestStats
	window := 10 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := benchT0.Add(time.Duration(i) * window)
		stats, err = f.IngestWindow(from, from.Add(window))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(stats.TotalByte)
	}
	b.StopTimer()
	b.ReportMetric(float64(stats.TotalRecs)/window.Seconds(), "records/sec")

	daily := f.ExtrapolateDaily(stats, FrontierLike(3))
	dailyM := f.ExtrapolateDaily(stats, SummitLike(3))
	var buf bytes.Buffer
	var total float64
	fmt.Fprintf(&buf, "  %-16s %14s %14s\n", "source", "compass GB/d", "mountain GB/d")
	for _, si := range stats.Sources {
		c, m := daily[si.Source]/1e9, dailyM[si.Source]/1e9
		total += c + m
		fmt.Fprintf(&buf, "  %-16s %14.1f %14.1f\n", si.Source, c, m)
	}
	fmt.Fprintf(&buf, "  TOTAL %37.2f TB/day  (paper: 4.2-4.5)", total/1000)
	printOnce("Fig 4-a: raw ingest rate per stream, extrapolated to full scale", buf.String())
}

// ----------------------------------------------------------------- Fig 4b

func BenchmarkFig4b_PipelineAnatomy(b *testing.B) {
	w := sharedWorld(b)
	// Regenerate a 2-minute bronze batch once; time each refinement
	// clause per iteration.
	bronze := schema.NewFrame(schema.ObservationSchema)
	err := w.f.Gen.EmitSource(telemetry.SourcePowerTemp, benchT0, benchT0.Add(2*time.Minute), func(o schema.Observation) error {
		return bronze.AppendRow(o.Row())
	})
	if err != nil {
		b.Fatal(err)
	}
	var silver, ctx, gold *schema.Frame
	var tAgg, tCtx, tGold time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := time.Now()
		silver, err = medallion.SilverizeBatch(bronze, medallion.SilverizeConfig{})
		if err != nil {
			b.Fatal(err)
		}
		tAgg = time.Since(s)
		s = time.Now()
		ctx, err = medallion.Contextualize(silver, w.f.Sched)
		if err != nil {
			b.Fatal(err)
		}
		tCtx = time.Since(s)
		s = time.Now()
		gold, err = medallion.ProgramReport(ctx, "node_power_w")
		if err != nil {
			b.Fatal(err)
		}
		tGold = time.Since(s)
	}
	b.StopTimer()
	enc := func(f *schema.Frame) int {
		d, _ := columnar.Encode(f, columnar.WriterOptions{})
		return len(d)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "  %-26s %10s %12s %12s\n", "stage (SQL clause)", "rows", "OCF bytes", "time")
	fmt.Fprintf(&buf, "  %-26s %10d %12d %12s\n", "bronze (FROM raw)", bronze.Len(), enc(bronze), "-")
	fmt.Fprintf(&buf, "  %-26s %10d %12d %12s\n", "silver (GROUP BY+PIVOT)", silver.Len(), enc(silver), tAgg.Round(time.Microsecond))
	fmt.Fprintf(&buf, "  %-26s %10d %12d %12s\n", "silver+ctx (JOIN jobs)", ctx.Len(), enc(ctx), tCtx.Round(time.Microsecond))
	fmt.Fprintf(&buf, "  %-26s %10d %12d %12s\n", "gold (GROUP BY program)", gold.Len(), enc(gold), tGold.Round(time.Microsecond))
	fmt.Fprintf(&buf, "  bronze->silver contraction: %.1fx rows, %.1fx bytes",
		float64(bronze.Len())/float64(ctx.Len()), float64(enc(bronze))/float64(enc(ctx)))
	printOnce("Fig 4-b: pipeline anatomy, Bronze -> Silver -> Gold", buf.String())
	b.ReportMetric(float64(bronze.Len())/float64(ctx.Len()), "row_contraction_x")
}

// ----------------------------------------------------------------- Fig 4c

func BenchmarkFig4c_ControlLoopTimescales(b *testing.B) {
	w := sharedWorld(b)
	// A target job for the user-assistance loop.
	var jobID string
	for _, j := range w.f.Sched.Jobs {
		if !j.Start.IsZero() && j.Start.Before(benchT0.Add(8*time.Minute)) && j.End.After(benchT0.Add(2*time.Minute)) {
			jobID = j.ID
			break
		}
	}
	if jobID == "" {
		b.Fatal("no job in window")
	}
	dash := &viz.UADashboard{Lake: w.f.Lake, Logs: w.f.Logs, Sched: w.f.Sched}

	type loopRun struct {
		loop core.ControlLoop
		fn   func() error
	}
	runs := []loopRun{
		{core.ControlLoops[0], func() error { // realtime diagnostics: LAKE query
			_, err := w.f.Lake.Run(tsdb.Query{
				From: benchT0, To: benchT0.Add(time.Minute),
				Filters: map[string][]string{tsdb.DimMetric: {"node_power_w"}},
				Agg:     tsdb.AggAvg,
			})
			return err
		}},
		{core.ControlLoops[1], func() error { // user assistance: dashboard build
			_, err := dash.BuildJobView(jobID, 5)
			return err
		}},
		{core.ControlLoops[2], func() error { // energy analytics: silver scan
			_, err := w.f.ReadSilver(SourcePowerTemp, benchT0, benchT0.Add(5*time.Minute))
			return err
		}},
		{core.ControlLoops[3], func() error { // usage reporting: RATS
			w.f.Rats.ByProgram(benchT0.Add(-24*time.Hour), benchT0)
			return nil
		}},
		{core.ControlLoops[4], func() error { // procurement: long-horizon burn
			w.f.Rats.ProjectBurn(benchT0.Add(-90*24*time.Hour), benchT0)
			return nil
		}},
	}
	lat := make([]time.Duration, len(runs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ri, r := range runs {
			s := time.Now()
			if err := r.fn(); err != nil {
				b.Fatal(err)
			}
			lat[ri] = time.Since(s)
		}
	}
	b.StopTimer()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "  %-22s %12s %15s %10s\n", "loop", "timescale", "pipeline latency", "headroom")
	for ri, r := range runs {
		head := float64(r.loop.Timescale) / float64(lat[ri])
		fmt.Fprintf(&buf, "  %-22s %12s %15s %9.0fx\n", r.loop.Name, r.loop.Timescale, lat[ri].Round(time.Microsecond), head)
	}
	printOnce("Fig 4-c: control-loop timescales vs measured pipeline latency", buf.String())
}

// ------------------------------------------------------------------ Fig 5

func BenchmarkFig5_TieredServices(b *testing.B) {
	sys := FrontierLike(4).Scaled(8)
	sys.LossRate = 0
	f, err := NewFacility(Options{System: sys, WorkloadSeed: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	clock := benchT0
	f.Ocean.SetClock(func() time.Time { return clock })
	if err := f.Ocean.SetLifecycle(core.BucketBronze, 24*time.Hour); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ret core.RetentionStats
	for i := 0; i < b.N; i++ {
		from := benchT0.Add(time.Duration(i) * 30 * time.Second)
		if _, err := f.IngestWindow(from, from.Add(30*time.Second), SourcePowerTemp); err != nil {
			b.Fatal(err)
		}
		// Age a bronze object into GLACIER via lifecycle.
		key := fmt.Sprintf("perf/archive-%04d.ocf", i)
		if _, err := f.Ocean.Put(core.BucketBronze, key, []byte("frozen bronze payload")); err != nil {
			b.Fatal(err)
		}
		clock = clock.Add(48 * time.Hour)
		ret, err = f.ApplyRetention(from.Add(30*24*time.Hour), time.Hour)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	bs, _ := f.Broker.Stats(core.BronzeTopic(telemetry.SourcePowerTemp))
	ls := f.Lake.Stats()
	gs := f.Glacier.Stats()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "  STREAM   retained %d of %d published records (bounded FIFO)\n", bs.Records, bs.TotalRecords)
	fmt.Fprintf(&buf, "  LAKE     %d segments (retention sweeps dropped the rest)\n", ls.Segments)
	fmt.Fprintf(&buf, "  GLACIER  %d frozen objects, %d bytes (bronze aged out of OCEAN)\n", gs.Items, gs.Bytes)
	fmt.Fprintf(&buf, "  last sweep: %d lake segs, %d log segs, %d ocean objects frozen",
		ret.LakeSegmentsDropped, ret.LogSegmentsDropped, ret.GlacierFrozen)
	printOnce("Fig 5: tiered services with class-specific retention", buf.String())
}

// ------------------------------------------------------------------ Fig 6

func BenchmarkFig6_UserAssistDashboard(b *testing.B) {
	w := sharedWorld(b)
	var jobID string
	for _, j := range w.f.Sched.Jobs {
		if !j.Start.IsZero() && j.Start.Before(benchT0.Add(8*time.Minute)) && j.End.After(benchT0.Add(2*time.Minute)) {
			jobID = j.ID
			break
		}
	}
	if jobID == "" {
		b.Fatal("no job in window")
	}
	dash := &viz.UADashboard{Lake: w.f.Lake, Logs: w.f.Logs, Sched: w.f.Sched}
	var view *viz.JobView
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err = dash.BuildJobView(jobID, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(view.QueriesIssued), "backend_queries")
	printOnce("Fig 6: user assistance dashboard (one job view per op)", view.RenderText())
}

// ------------------------------------------------------------------ Fig 7

func BenchmarkFig7_RATSReport(b *testing.B) {
	w := sharedWorld(b)
	from, to := benchT0.Add(-24*time.Hour), benchT0.Add(2*time.Hour)
	var rows []report.ProgramRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = w.f.Rats.ByProgram(from, to)
		w.f.Rats.ProjectBurn(from, to)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(rows)), "programs")
	printOnce("Fig 7: RATS report (CPU vs GPU usage by program)",
		report.RenderProgramReport(rows, from, to))
}

// ------------------------------------------------------------------ Fig 8

func BenchmarkFig8_LVAInteractive(b *testing.B) {
	w := sharedWorld(b)
	lva, err := NewLVA(w.gold.Profiles, w.gold.SystemSeries)
	if err != nil {
		b.Fatal(err)
	}
	// Interactive path: serve from Gold.
	var interactive time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := time.Now()
		lva.SystemView(benchT0, benchT0.Add(10*time.Minute), 100)
		lva.TopEnergyJobs(5)
		interactive = time.Since(s)
	}
	b.StopTimer()

	// Baseline: recompute the same answer from raw Bronze.
	s := time.Now()
	bronze := schema.NewFrame(schema.ObservationSchema)
	err = w.f.Gen.EmitSource(telemetry.SourcePowerTemp, benchT0, benchT0.Add(10*time.Minute), func(o schema.Observation) error {
		return bronze.AppendRow(o.Row())
	})
	if err != nil {
		b.Fatal(err)
	}
	silver, err := medallion.SilverizeBatch(bronze, medallion.SilverizeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := medallion.SystemSeries(silver, "node_power_w", sproc.AggSum); err != nil {
		b.Fatal(err)
	}
	baseline := time.Since(s)
	speedup := float64(baseline) / float64(interactive)
	b.ReportMetric(speedup, "speedup_vs_rawscan")
	printOnce("Fig 8: LVA interactive query vs raw-scan baseline", fmt.Sprintf(
		"  interactive (gold-backed): %s\n  raw-scan baseline:         %s\n  speedup: %.0fx — the refinement pipeline 'vastly reduces processing in interactive queries'",
		interactive.Round(time.Microsecond), baseline.Round(time.Millisecond), speedup))
}

// ------------------------------------------------------------------ Fig 9

func BenchmarkFig9_MLPipeline(b *testing.B) {
	store, err := objstore.New("")
	if err != nil {
		b.Fatal(err)
	}
	ml, err := mlops.New(store)
	if err != nil {
		b.Fatal(err)
	}
	vecs, _ := syntheticProfileVectors(64, 16, 5)
	featBytes := encodeVectors(vecs)
	var reproducible bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The Fig 9 loop: features -> version -> train -> track -> register.
		fv, err := ml.PutFeatures("job-power", featBytes)
		if err != nil {
			b.Fatal(err)
		}
		run, err := ml.StartRun("power-clustering")
		if err != nil {
			b.Fatal(err)
		}
		run.UseFeatures(fv)
		clf, err := profiles.Train(vecs, profiles.Config{Seed: 7, Epochs: 5})
		if err != nil {
			b.Fatal(err)
		}
		run.LogMetric("profiles", float64(len(vecs)))
		if err := ml.EndRun(run); err != nil {
			b.Fatal(err)
		}
		blob, err := clf.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		mv, err := ml.RegisterModel("classifier", blob, run)
		if err != nil {
			b.Fatal(err)
		}
		// Reproducibility check: identical features + seed => identical
		// model hash (the point of the versioned pipeline).
		clf2, err := profiles.Train(vecs, profiles.Config{Seed: 7, Epochs: 5})
		if err != nil {
			b.Fatal(err)
		}
		blob2, _ := clf2.MarshalBinary()
		reproducible = bytes.Equal(blob, blob2)
		if !reproducible {
			b.Fatal("identical training runs produced different models")
		}
		_ = mv
	}
	b.StopTimer()
	versions, _ := ml.ModelVersions("classifier")
	printOnce("Fig 9: ML pipeline round trip", fmt.Sprintf(
		"  features -> version -> train -> track -> register, %d model versions registered\n  reproducibility: same features + seed => identical model hash: %v",
		len(versions), reproducible))
}

// ----------------------------------------------------------------- Fig 10

func syntheticProfileVectors(n, dim int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var vecs [][]float64
	var truth []int
	for i := 0; i < n; i++ {
		kind := jobsched.ProfileKind(i % jobsched.NumProfileKinds)
		period := time.Duration(60+rng.Intn(120)) * time.Second
		phase := rng.Float64()
		dur := time.Duration(20+rng.Intn(40)) * time.Minute
		v := make([]float64, dim)
		peak := 0.0
		for j := 0; j < dim; j++ {
			el := time.Duration(float64(dur) * float64(j) / float64(dim-1))
			v[j] = telemetry.ProfileShape(kind, el, period, phase)
			if v[j] > peak {
				peak = v[j]
			}
		}
		if peak > 0 {
			for j := range v {
				v[j] /= peak
			}
		}
		vecs = append(vecs, v)
		truth = append(truth, int(kind))
	}
	return vecs, truth
}

func encodeVectors(vecs [][]float64) []byte {
	var buf []byte
	for _, v := range vecs {
		row := make(schema.Row, len(v))
		for i, x := range v {
			row[i] = schema.Float(x)
		}
		buf = schema.AppendRow(buf, row)
	}
	return buf
}

func BenchmarkFig10_PowerProfileClustering(b *testing.B) {
	vecs, truth := syntheticProfileVectors(160, 32, 9)
	var clf *profiles.Classifier
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf, err = profiles.Train(vecs, profiles.Config{Seed: 11, Epochs: 40, GridW: 4, GridH: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	assign := clf.Assignments(vecs)
	nmi := profiles.NMI(assign, truth)
	pur := profiles.Purity(assign, truth)
	sil := profiles.Silhouette(vecs, assign, 0, 1)
	// Baselines: k-means at the true class count, and at the grid's cell
	// count (the apples-to-apples comparison, since a 4x4 map necessarily
	// splits classes across cells).
	_, km8, err := profiles.KMeans(vecs, 8, 50, 11)
	if err != nil {
		b.Fatal(err)
	}
	_, km16, err := profiles.KMeans(vecs, 16, 50, 11)
	if err != nil {
		b.Fatal(err)
	}
	km8NMI, km16NMI := profiles.NMI(km8, truth), profiles.NMI(km16, truth)
	b.ReportMetric(nmi, "nmi")
	b.ReportMetric(km16NMI, "kmeans16_nmi")

	grid := clf.Map(vecs)
	w, h := clf.Cells()
	pops := make([]float64, len(grid))
	for i, c := range grid {
		pops[i] = float64(c.Population)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "  NN grid (16 cells): NMI vs truth %.3f, purity %.3f, silhouette %.3f\n", nmi, pur, sil)
	fmt.Fprintf(&buf, "  k-means baselines: k=8 NMI %.3f, k=16 NMI %.3f\n", km8NMI, km16NMI)
	fmt.Fprintf(&buf, "  population map (%dx%d cells; darker = more jobs):\n%s", w, h, viz.Heatmap(pops, w, h))
	printOnce("Fig 10: job power-profile clustering", buf.String())
}

// ----------------------------------------------------------------- Fig 11

func BenchmarkFig11_DigitalTwinReplay(b *testing.B) {
	cfg := twin.DefaultConfig()
	cfg.Nodes = 64
	trace := twin.HPLTrace(twin.HPLConfig{
		Nodes: cfg.Nodes, IdlePowerW: cfg.IdlePowerW, MaxPowerW: cfg.MaxPowerW,
		Duration: time.Hour, Step: 5 * time.Second,
	}, benchT0)
	measuredPower := make([]float64, len(trace))
	measuredTemp := make([]float64, len(trace))
	maxIT := float64(cfg.Nodes) * cfg.MaxPowerW
	for i, p := range trace {
		measuredPower[i] = p.ITPowerW * 1.06 // the telemetry cep channel
		measuredTemp[i] = cfg.SupplyTempC + 6*p.ITPowerW/maxIT
	}
	var sum twin.EnergySummary
	var pRep, tRep twin.ValidationReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := twin.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		results, err := sim.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		sum = sim.Summary()
		pRep, err = twin.ValidatePower(results, measuredPower)
		if err != nil {
			b.Fatal(err)
		}
		tRep, err = twin.ValidateTemps(results, measuredTemp)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(trace))/b.Elapsed().Seconds()*float64(b.N), "steps/sec")
	b.ReportMetric(pRep.PowerMAPE*100, "power_mape_pct")
	b.ReportMetric(tRep.TempRMSEC, "temp_rmse_C")
	printOnce("Fig 11: digital twin telemetry replay (HPL run)", fmt.Sprintf(
		"  %d steps replayed; validation vs measured channels:\n"+
			"    input power MAPE %.2f%%, RMSE %.0f W\n"+
			"    return water RMSE %.2f C (max %.2f C)\n"+
			"  energy: IT %.1f kWh, rect loss %.1f, conv loss %.1f, cooling %.1f, loss fraction %.1f%%, PUE %.3f",
		pRep.Samples, pRep.PowerMAPE*100, pRep.PowerRMSE, tRep.TempRMSEC, tRep.TempMaxErrC,
		sum.ITkWh, sum.RectLosskWh, sum.ConvLosskWh, sum.CoolingkWh, 100*sum.LossFraction, sum.MeanPUE))
}

// ----------------------------------------------------------------- Fig 12

func BenchmarkFig12_GovernanceWorkflow(b *testing.B) {
	events := []schema.Event{
		{Ts: benchT0, Host: "login01", Severity: "info", Message: "session opened for user07 uid=5012 from 10.0.0.8"},
		{Ts: benchT0, Host: "node00001", Severity: "error", Message: "gpu xid error code=31"},
	}
	wf := governance.NewWorkflow()
	var rejected, released int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := wf.Submit("host", "collab", "release events", []string{"events"}, governance.ExternalCollab)
		if err != nil {
			b.Fatal(err)
		}
		clean := governance.SanitizeEvents(events, fmt.Sprintf("rel-%d", i))
		for _, e := range clean {
			if governance.ContainsPII(e.Message) {
				b.Fatal("sanitization leak")
			}
		}
		// The cyber stage rejects every 8th request (the rejection path).
		for _, s := range governance.Stages() {
			approve := !(s == governance.StageCyberSecurity && i%8 == 7)
			r, err := wf.Decide(id, s, "rev", approve, "")
			if err != nil {
				b.Fatal(err)
			}
			if r.Status == governance.StatusRejected {
				rejected++
				break
			}
		}
		if r, err := wf.Get(id); err == nil && r.Status == governance.StatusApproved {
			if _, err := wf.Release(id); err != nil {
				b.Fatal(err)
			}
			released++
		}
	}
	b.StopTimer()
	printOnce("Fig 12: data distribution workflow", fmt.Sprintf(
		"  %d requests processed: %d released, %d rejected at cyber security\n  every release sanitized (pseudonyms + scrubbed text) and PII-verified",
		b.N, released, rejected))
}

// ------------------------------------------------------- ingest hot path

// ingestObs pre-generates n distinct observations for one producer
// goroutine, spread over many series so shard striping has work to do.
func ingestObs(producer, n int) []schema.Observation {
	out := make([]schema.Observation, n)
	for i := range out {
		out[i] = schema.Observation{
			Ts:     benchT0.Add(time.Duration(i) * 50 * time.Millisecond),
			System: "compass", Source: "power_temp",
			Component: fmt.Sprintf("node%05d", (producer*97+i)%512),
			Metric:    "node_power_w", Value: float64(1000 + i%700),
		}
	}
	return out
}

// BenchmarkTSDBInsertParallel measures LAKE ingest throughput across
// producer counts and batch sizes. batch=1 drives the per-record path
// (Insert); batch>1 drives InsertBatch. One op = one observation, so
// ns/op is directly comparable across the grid.
func BenchmarkTSDBInsertParallel(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		for _, batch := range []int{1, 64, 1024} {
			b.Run(fmt.Sprintf("goroutines=%d/batch=%d", g, batch), func(b *testing.B) {
				db := tsdb.New(tsdb.Options{})
				pools := make([][]schema.Observation, g)
				poolLen := batch
				if poolLen < 4096 {
					poolLen = 4096
				}
				for w := range pools {
					pools[w] = ingestObs(w, poolLen)
				}
				quota := (b.N + g - 1) / g
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						pool := pools[w]
						for done := 0; done < quota; {
							if batch == 1 {
								db.Insert(pool[done%len(pool)])
								done++
								continue
							}
							start := done % (len(pool) - batch + 1)
							db.InsertBatch(pool[start : start+batch])
							done += batch
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
			})
		}
	}
}

// BenchmarkBrokerPublishBatch measures STREAM publish throughput across
// producer counts and batch sizes; batch=1 is a single record published
// as a batch of one. Retention is capped so the resident log stays bounded
// while b.N grows.
func BenchmarkBrokerPublishBatch(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		for _, batch := range []int{1, 64, 1024} {
			b.Run(fmt.Sprintf("goroutines=%d/batch=%d", g, batch), func(b *testing.B) {
				br := stream.NewBroker()
				defer br.Close()
				if err := br.CreateTopic("bronze", stream.TopicConfig{
					Partitions: 4, RetentionBytes: 8 << 20,
				}); err != nil {
					b.Fatal(err)
				}
				pools := make([][]stream.Message, g)
				poolLen := batch
				if poolLen < 4096 {
					poolLen = 4096
				}
				payload := []byte("0123456789012345678901234567890123456789012345678901234567890123")
				for w := range pools {
					msgs := make([]stream.Message, poolLen)
					for i := range msgs {
						msgs[i] = stream.Message{
							Key:   []byte(fmt.Sprintf("node%05d", (w*97+i)%512)),
							Value: payload,
						}
					}
					pools[w] = msgs
				}
				quota := (b.N + g - 1) / g
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						pool := pools[w]
						for done := 0; done < quota; {
							start := done % (len(pool) - batch + 1)
							if _, err := br.PublishBatch("bronze", pool[start:start+batch]); err != nil {
								b.Error(err)
								return
							}
							done += batch
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
			})
		}
	}
}

// --------------------------------------------------------- query hot path

// benchJSON accumulates one row per (finished) sub-benchmark and rewrites
// $ODA_BENCH_JSON on every update. Rows are keyed by benchmark name so
// calibration passes overwrite themselves and only the final measurement
// survives; `make bench-query` turns this into BENCH_query.json.
var benchJSON struct {
	mu   sync.Mutex
	rows map[string]map[string]any
}

func recordBenchRow(name string, row map[string]any) {
	path := os.Getenv("ODA_BENCH_JSON")
	if path == "" {
		return
	}
	benchJSON.mu.Lock()
	defer benchJSON.mu.Unlock()
	if benchJSON.rows == nil {
		benchJSON.rows = map[string]map[string]any{}
		// Seed from an existing file so a make target may split one
		// table across several test invocations (bench-cq isolates its
		// publish pair in a fresh process to keep GC noise out).
		if data, err := os.ReadFile(path); err == nil {
			var prev []map[string]any
			if json.Unmarshal(data, &prev) == nil {
				for _, r := range prev {
					if n, ok := r["bench"].(string); ok {
						benchJSON.rows[n] = r
					}
				}
			}
		}
	}
	row["bench"] = name
	benchJSON.rows[name] = row
	names := make([]string, 0, len(benchJSON.rows))
	for n := range benchJSON.rows {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]map[string]any, 0, len(names))
	for _, n := range names {
		out = append(out, benchJSON.rows[n])
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile(path, append(data, '\n'), 0o644)
}

// queryWorld holds two identically-loaded LAKE stores — one with the
// query-result cache disabled (every Run is a cold scan) and one with it
// enabled — so the cold/warm axes of the query grid measure the same data.
// 512 components × 4 metrics × 30 min at 15 s rollup ≈ 246k cells spread
// over all 16 shards and 3 time chunks.
var (
	queryWorldOnce sync.Once
	queryDBCold    *tsdb.DB
	queryDBWarm    *tsdb.DB
)

// loadQueryFixture inserts the shared query-grid dataset into db: 512
// components × 4 metrics × 30 min at 15 s rollup ≈ 246k cells.
func loadQueryFixture(db *tsdb.DB) {
	metrics := []string{"node_power_w", "cpu_temp_c", "gpu_util_pct", "fan_rpm"}
	batch := make([]schema.Observation, 0, 8192)
	for s := 0; s < 30*60; s += 15 {
		for c := 0; c < 512; c++ {
			for m, metric := range metrics {
				batch = append(batch, schema.Observation{
					Ts: benchT0.Add(time.Duration(s) * time.Second), System: "compass",
					Source: "power_temp", Component: fmt.Sprintf("node%05d", c),
					Metric: metric, Value: float64(1000 + (s+c*7+m*13)%997),
				})
				if len(batch) == cap(batch) {
					db.InsertBatch(batch)
					batch = batch[:0]
				}
			}
		}
	}
	db.InsertBatch(batch)
}

func queryWorld(b *testing.B) (cold, warm *tsdb.DB) {
	b.Helper()
	queryWorldOnce.Do(func() {
		build := func(cacheSize int) *tsdb.DB {
			db := tsdb.New(tsdb.Options{
				SegmentDuration: 10 * time.Minute, RollupInterval: 15 * time.Second,
				QueryCacheSize: cacheSize,
			})
			loadQueryFixture(db)
			return db
		}
		queryDBCold = build(-1)
		queryDBWarm = build(64)
	})
	return queryDBCold, queryDBWarm
}

// queryForSel returns the grid's grouped 16-shard query — the ISSUE's
// acceptance shape: GroupBy component over the 512-series dataset — at
// one of two selectivities: "all" scans every metric's cells and keeps
// 1 in 4; "filtered" adds an 8-component filter keeping ~1 in 256.
func queryForSel(sel string) tsdb.Query {
	q := tsdb.Query{
		From: benchT0, To: benchT0.Add(30 * time.Minute),
		Filters: map[string][]string{tsdb.DimMetric: {"node_power_w"}},
		GroupBy: []string{tsdb.DimComponent},
		Agg:     tsdb.AggAvg,
	}
	if sel == "filtered" {
		comps := make([]string, 8)
		for i := range comps {
			comps[i] = fmt.Sprintf("node%05d", i*61)
		}
		q.Filters[tsdb.DimComponent] = comps
	}
	return q
}

// BenchmarkTSDBQueryParallel measures LAKE read throughput across the
// query grid: 1/4/16 concurrent queriers × cold vs warm result cache ×
// filter selectivity, plus the retained serial reference as the
// baseline the speedup is judged against. One op = one full query.
func BenchmarkTSDBQueryParallel(b *testing.B) {
	coldDB, warmDB := queryWorld(b)

	for _, sel := range []string{"all", "filtered"} {
		q := queryForSel(sel)
		b.Run(fmt.Sprintf("baseline=serial/sel=%s", sel), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coldDB.RunSerial(q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			qps := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(qps, "queries/sec")
			recordBenchRow(b.Name(), map[string]any{
				"queriers": 1, "cache": "serial-baseline", "sel": sel,
				"ns_per_op": b.Elapsed().Nanoseconds() / int64(b.N), "queries_per_sec": qps,
			})
		})
	}

	for _, g := range []int{1, 4, 16} {
		for _, cache := range []string{"cold", "warm"} {
			for _, sel := range []string{"all", "filtered"} {
				db := coldDB
				if cache == "warm" {
					db = warmDB
				}
				q := queryForSel(sel)
				b.Run(fmt.Sprintf("queriers=%d/cache=%s/sel=%s", g, cache, sel), func(b *testing.B) {
					if cache == "warm" { // populate the entry the grid re-reads
						if _, err := db.Run(q); err != nil {
							b.Fatal(err)
						}
					}
					// Every querier runs quota queries; divide by the real op
					// count so ns/op stays honest when g doesn't divide b.N.
					quota := (b.N + g - 1) / g
					done := g * quota
					b.ResetTimer()
					var wg sync.WaitGroup
					for w := 0; w < g; w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for i := 0; i < quota; i++ {
								if _, err := db.Run(q); err != nil {
									b.Error(err)
									return
								}
							}
						}()
					}
					wg.Wait()
					b.StopTimer()
					qps := float64(done) / b.Elapsed().Seconds()
					b.ReportMetric(qps, "queries/sec")
					recordBenchRow(b.Name(), map[string]any{
						"queriers": g, "cache": cache, "sel": sel,
						"ns_per_op": b.Elapsed().Nanoseconds() / int64(done), "queries_per_sec": qps,
					})
				})
			}
		}
	}
}

// ------------------------------------------------- federated query path

// federatedWorld builds one LAKE store per offload fraction: the shared
// query fixture sliced into 3-minute chunks (10 chunks over the 30-min
// window) with an attached in-memory cold tier, then aged so 0%, 50%, or
// 90% of the chunks live as columnar OCEAN segments. Caches are disabled
// so every op pays the real federation cost. Offload cutoffs land one
// second past a chunk boundary because the age predicate is strict.
var (
	fedWorldOnce sync.Once
	fedWorldDBs  map[string]*tsdb.DB
	fedWorldErr  error
)

func federatedWorld(b *testing.B) map[string]*tsdb.DB {
	b.Helper()
	fedWorldOnce.Do(func() {
		fedWorldDBs = map[string]*tsdb.DB{}
		for _, fr := range []struct {
			label  string
			cutoff time.Duration
		}{
			{"0", 0},
			{"50", 15*time.Minute + time.Second},
			{"90", 27*time.Minute + time.Second},
		} {
			db := tsdb.New(tsdb.Options{
				SegmentDuration: 3 * time.Minute, RollupInterval: 15 * time.Second,
				QueryCacheSize: -1,
			})
			loadQueryFixture(db)
			store, err := objstore.New("")
			if err == nil {
				err = store.EnsureBucket("lake")
			}
			if err == nil {
				_, err = db.AttachColdTier(tsdb.ColdTierConfig{
					Store: store, Bucket: "lake", RowGroupRows: 1024,
				})
			}
			if err == nil && fr.cutoff > 0 {
				_, err = db.Offload(benchT0.Add(fr.cutoff))
			}
			if err != nil {
				fedWorldErr = err
				return
			}
			fedWorldDBs[fr.label] = db
		}
	})
	if fedWorldErr != nil {
		b.Fatal(fedWorldErr)
	}
	return fedWorldDBs
}

// BenchmarkTSDBFederate measures the tier-federated read path across the
// grid queriers × offload fraction × selectivity, recording how much of
// the cold tier the zone-map/bloom/dictionary pruning skipped, plus a
// prune-vs-full-scan speedup pair at 90% offload — the ISSUE acceptance
// number. `make bench-federate` captures the grid in BENCH_federation.json.
func BenchmarkTSDBFederate(b *testing.B) {
	dbs := federatedWorld(b)

	for _, frac := range []string{"0", "50", "90"} {
		for _, g := range []int{1, 4, 16} {
			for _, sel := range []string{"all", "filtered"} {
				db := dbs[frac]
				q := queryForSel(sel)
				name := fmt.Sprintf("queriers=%d/offload=%s/sel=%s", g, frac, sel)
				b.Run(name, func(b *testing.B) {
					quota := (b.N + g - 1) / g
					done := g * quota
					b.ResetTimer()
					var wg sync.WaitGroup
					for w := 0; w < g; w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for i := 0; i < quota; i++ {
								if _, err := db.Run(q); err != nil {
									b.Error(err)
									return
								}
							}
						}()
					}
					wg.Wait()
					b.StopTimer()
					_, st, err := db.RunWithStats(q)
					if err != nil {
						b.Fatal(err)
					}
					qps := float64(done) / b.Elapsed().Seconds()
					b.ReportMetric(qps, "queries/sec")
					segsTotal := st.ColdSegmentsScanned + st.ColdSegmentsPruned
					groupsTotal := st.ColdRowGroupsScanned + st.ColdRowGroupsPruned
					recordBenchRow("BenchmarkTSDBFederate/"+name, map[string]any{
						"queriers": g, "offload_pct": frac, "sel": sel,
						"ns_per_op":       b.Elapsed().Nanoseconds() / int64(done),
						"queries_per_sec": qps,
						"cold_segments":   segsTotal, "cold_segments_pruned": st.ColdSegmentsPruned,
						"cold_rowgroups": groupsTotal, "cold_rowgroups_pruned": st.ColdRowGroupsPruned,
					})
				})
			}
		}
	}

	// The acceptance pair: at 90% offload, the pruned federated scan vs
	// the same tier with pruning disabled (decode every row group, match
	// row by row) — the "scanning everything" baseline.
	for _, sel := range []string{"all", "filtered"} {
		db := dbs["90"]
		q := queryForSel(sel)
		name := fmt.Sprintf("speedup=prune-vs-scan/offload=90/sel=%s", sel)
		b.Run(name, func(b *testing.B) {
			ct := db.ColdTier()
			ct.SetPruning(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Run(q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			pruned := b.Elapsed() / time.Duration(b.N)
			ct.SetPruning(false)
			const reps = 3
			s := time.Now()
			for i := 0; i < reps; i++ {
				if _, err := db.Run(q); err != nil {
					b.Fatal(err)
				}
			}
			scan := time.Since(s) / reps
			ct.SetPruning(true)
			speedup := float64(scan) / float64(pruned)
			b.ReportMetric(speedup, "speedup_x")
			recordBenchRow("BenchmarkTSDBFederate/"+name, map[string]any{
				"offload_pct": "90", "sel": sel,
				"pruned_ns_per_op": pruned.Nanoseconds(),
				"scan_ns_per_op":   scan.Nanoseconds(),
				"speedup_x":        speedup,
			})
			printOnce("federation "+name, fmt.Sprintf(
				"  pruned federated query: %s\n  no-pruning full scan:   %s\n  speedup: %.1fx",
				pruned.Round(time.Microsecond), scan.Round(time.Microsecond), speedup))
		})
	}
}

// -------------------------------------------------------------- ablations

func BenchmarkAblation_CompressionCodecs(b *testing.B) {
	w := sharedWorld(b)
	// Bronze long-format telemetry is the high-volume case the lesson is
	// about: repeated dimension strings and monotone timestamps.
	bronze := schema.NewFrame(schema.ObservationSchema)
	err := w.f.Gen.EmitSource(telemetry.SourcePowerTemp, benchT0, benchT0.Add(time.Minute), func(o schema.Observation) error {
		return bronze.AppendRow(o.Row())
	})
	if err != nil {
		b.Fatal(err)
	}
	naiveLen := len(schema.EncodeRow(bronze.Row(0))) * bronze.Len() // row-oriented wire format
	var rawLen, flateLen int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := columnar.Encode(bronze, columnar.WriterOptions{Compression: columnar.CompressNone})
		if err != nil {
			b.Fatal(err)
		}
		fl, err := columnar.Encode(bronze, columnar.WriterOptions{Compression: columnar.CompressFlate})
		if err != nil {
			b.Fatal(err)
		}
		rawLen, flateLen = len(raw), len(fl)
	}
	b.StopTimer()
	ratio := float64(naiveLen) / float64(flateLen)
	b.ReportMetric(ratio, "compression_x")
	printOnce("Ablation: columnar compression ('compression made a huge difference')", fmt.Sprintf(
		"  bronze frame (%d rows):\n    row-oriented wire bytes %d\n    columnar (dict+delta)   %d\n    columnar + flate        %d  => %.1fx smaller than wire",
		bronze.Len(), naiveLen, rawLen, flateLen, ratio))
}

func BenchmarkAblation_StreamVsBatch(b *testing.B) {
	w := sharedWorld(b)
	// Precomputed-silver path (the paper's §VI-B investment).
	var pre time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := time.Now()
		if _, err := w.f.ReadSilver(SourcePowerTemp, benchT0.Add(2*time.Minute), benchT0.Add(4*time.Minute)); err != nil {
			b.Fatal(err)
		}
		pre = time.Since(s)
	}
	b.StopTimer()
	// On-demand batch refinement of the same window.
	s := time.Now()
	if _, err := w.f.BatchSilverize(SourcePowerTemp, benchT0.Add(2*time.Minute), benchT0.Add(4*time.Minute), nil); err != nil {
		b.Fatal(err)
	}
	batch := time.Since(s)
	b.ReportMetric(float64(batch)/float64(pre), "stream_advantage_x")
	printOnce("Ablation: precomputed Silver stream vs on-demand batch refinement", fmt.Sprintf(
		"  precomputed read: %s\n  batch recompute:  %s => %.0fx — 'amortizes the cost of refining datasets'",
		pre.Round(time.Microsecond), batch.Round(time.Millisecond), float64(batch)/float64(pre)))
}

func BenchmarkAblation_TierPlacement(b *testing.B) {
	w := sharedWorld(b)
	payload, _, err := w.f.Ocean.Get(core.BucketSilver, core.SilverObjectKey(telemetry.SourcePowerTemp))
	if err != nil {
		b.Fatal(err)
	}
	clock := benchT0
	glacier := w.f.Glacier
	glacier.SetClock(func() time.Time { return clock })
	glacier.Freeze("bronze/cold.ocf", payload)
	var hot time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := time.Now()
		if _, _, err := w.f.Ocean.Get(core.BucketSilver, core.SilverObjectKey(telemetry.SourcePowerTemp)); err != nil {
			b.Fatal(err)
		}
		hot = time.Since(s)
	}
	b.StopTimer()
	ready, err := glacier.Recall("bronze/cold.ocf")
	if err != nil {
		b.Fatal(err)
	}
	coldLatency := ready.Sub(clock)
	clock = ready
	if _, err := glacier.Read("bronze/cold.ocf"); err != nil {
		b.Fatal(err)
	}
	printOnce("Ablation: tier placement (hot OCEAN vs frozen GLACIER)", fmt.Sprintf(
		"  OCEAN get: %s wall time\n  GLACIER recall: %s simulated tape latency\n  => bronze parked in GLACIER costs ~nothing until a pipeline exists to use it (§VI-B)",
		hot.Round(time.Microsecond), coldLatency))
}

func BenchmarkAblation_RollupInterval(b *testing.B) {
	w := sharedWorld(b)
	bronze := schema.NewFrame(schema.ObservationSchema)
	err := w.f.Gen.EmitSource(telemetry.SourcePowerTemp, benchT0, benchT0.Add(2*time.Minute), func(o schema.Observation) error {
		return bronze.AppendRow(o.Row())
	})
	if err != nil {
		b.Fatal(err)
	}
	intervals := []time.Duration{5 * time.Second, 15 * time.Second, time.Minute}
	rows := make([]int, len(intervals))
	sizes := make([]int, len(intervals))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, iv := range intervals {
			silver, err := medallion.SilverizeBatch(bronze, medallion.SilverizeConfig{Window: iv})
			if err != nil {
				b.Fatal(err)
			}
			data, err := columnar.Encode(silver, columnar.WriterOptions{})
			if err != nil {
				b.Fatal(err)
			}
			rows[k], sizes[k] = silver.Len(), len(data)
		}
	}
	b.StopTimer()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "  %-10s %10s %12s\n", "window", "rows", "OCF bytes")
	for k, iv := range intervals {
		fmt.Fprintf(&buf, "  %-10s %10d %12d\n", iv, rows[k], sizes[k])
	}
	fmt.Fprintf(&buf, "  the paper's 15 s default balances resolution against footprint")
	printOnce("Ablation: rollup interval sweep (the 'e.g. every 15 seconds' choice)", buf.String())
}

func BenchmarkAblation_ForecastVsNaive(b *testing.B) {
	// §VIII predictive analytics: a KPI forecaster must beat the repeat-
	// last-season baseline to be worth operating. The KPI is a synthetic
	// facility power series with level, trend, and daily seasonality.
	season := 24
	rng := rand.New(rand.NewSource(5))
	series := make([]float64, season*14)
	for i := range series {
		seasonal := 2000 * math.Sin(2*math.Pi*float64(i%season)/float64(season))
		series[i] = 20000 + 2*float64(i) + seasonal + rng.NormFloat64()*100
	}
	var mape, rmse float64
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mape, rmse, err = forecast.Backtest(series, 48, 0.3, 0.05, 0.2, season)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	train := series[:len(series)-48]
	naive, err := forecast.NaiveSeasonal(train, season, 48)
	if err != nil {
		b.Fatal(err)
	}
	var naiveSq float64
	for i, want := range series[len(series)-48:] {
		d := naive[i] - want
		naiveSq += d * d
	}
	naiveRMSE := math.Sqrt(naiveSq / 48)
	b.ReportMetric(mape*100, "hw_mape_pct")
	b.ReportMetric(naiveRMSE/rmse, "rmse_gain_x")
	printOnce("Ablation: KPI forecasting (Holt-Winters vs repeat-last-season)", fmt.Sprintf(
		"  48h-ahead backtest on a daily-seasonal power KPI:\n    Holt-Winters RMSE %.0f W (MAPE %.2f%%)\n    naive seasonal RMSE %.0f W\n  => %.1fx better than the baseline any forecaster must beat",
		rmse, mape*100, naiveRMSE, naiveRMSE/rmse))
}

// ---------------------------------------------------- observability tax

// BenchmarkObsOverheadInsert measures the observability tax on the
// batched ingest hot path: the identical InsertBatch loop with and
// without a live metrics registry attached to the store. The DESIGN.md
// acceptance bar is <3% ns/op regression at every batch size; `make
// bench-obs` records the grid in BENCH_obs.json.
func BenchmarkObsOverheadInsert(b *testing.B) {
	for _, batch := range []int{64, 1024} {
		for _, instrumented := range []bool{false, true} {
			label := "off"
			if instrumented {
				label = "on"
			}
			name := fmt.Sprintf("batch=%d/instr=%s", batch, label)
			b.Run(name, func(b *testing.B) {
				db := tsdb.New(tsdb.Options{})
				if instrumented {
					db.Instrument(obs.NewRegistry())
				}
				pool := ingestObs(0, 4096)
				b.ResetTimer()
				for done := 0; done < b.N; done += batch {
					start := done % (len(pool) - batch + 1)
					db.InsertBatch(pool[start : start+batch])
				}
				b.StopTimer()
				recordBenchRow("BenchmarkObsOverheadInsert/"+name, map[string]any{
					"batch":           batch,
					"instrumented":    instrumented,
					"ns_per_op":       float64(b.Elapsed().Nanoseconds()) / float64(b.N),
					"records_per_sec": float64(b.N) / b.Elapsed().Seconds(),
				})
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
			})
		}
	}
}

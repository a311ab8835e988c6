package medallion

import (
	"errors"
	"math"
	"testing"
	"time"

	"odakit/internal/jobsched"
	"odakit/internal/schema"
	"odakit/internal/sproc"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func testSchedule(t testing.TB, nodes int) *jobsched.Schedule {
	t.Helper()
	sim := jobsched.New(jobsched.Config{
		Nodes: nodes, System: "compass",
		Workload: jobsched.WorkloadConfig{Seed: 21, MeanInterarrival: 20 * time.Second},
	})
	return sim.Run(t0.Add(-2*time.Hour), t0.Add(3*time.Hour))
}

func bronzeFrame(t testing.TB, nodes int, sched *jobsched.Schedule, minutes int) *schema.Frame {
	t.Helper()
	cfg := telemetry.FrontierLike(3).Scaled(nodes)
	cfg.LossRate = 0
	cfg.SkewMax = 0
	gen := telemetry.NewGenerator(cfg, sched)
	f := schema.NewFrame(schema.ObservationSchema)
	err := gen.EmitSource(telemetry.SourcePowerTemp, t0, t0.Add(time.Duration(minutes)*time.Minute), func(o schema.Observation) error {
		return f.AppendRow(o.Row())
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestStageStrings(t *testing.T) {
	if Bronze.String() != "bronze" || Silver.String() != "silver" || Gold.String() != "gold" {
		t.Fatal("stage names wrong")
	}
	if Stage(9).String() != "stage(9)" {
		t.Fatal("unknown stage fallback wrong")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register("power_bronze", Bronze, schema.ObservationSchema)
	r.Register("power_silver", Silver, SilverSchema([]string{"node_power_w"}))
	if err := r.Record("power_bronze", 100, 6000, t0); err != nil {
		t.Fatal(err)
	}
	if err := r.Record("ghost", 1, 1, t0); !errors.Is(err, ErrNoDataset) {
		t.Fatalf("record ghost: %v", err)
	}
	d, err := r.Get("power_bronze")
	if err != nil || d.Rows != 100 || d.Bytes != 6000 || !d.Updated.Equal(t0) {
		t.Fatalf("get = %+v, %v", d, err)
	}
	if _, err := r.Get("ghost"); !errors.Is(err, ErrNoDataset) {
		t.Fatal("ghost resolved")
	}
	list := r.List()
	if len(list) != 2 || list[0].Stage != Bronze || list[1].Stage != Silver {
		t.Fatalf("list = %+v", list)
	}
}

func TestSilverizeBatchShape(t *testing.T) {
	sched := testSchedule(t, 8)
	bronze := bronzeFrame(t, 8, sched, 1)
	silver, err := SilverizeBatch(bronze, SilverizeConfig{Window: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// 8 nodes × 4 windows = 32 rows.
	if silver.Len() != 32 {
		t.Fatalf("silver rows = %d, want 32", silver.Len())
	}
	sch := silver.Schema()
	for _, c := range []string{"window", "system", "component", "node_power_w", "cpu_temp_c"} {
		if !sch.Has(c) {
			t.Fatalf("silver missing column %q (schema %s)", c, sch)
		}
	}
	// The contraction: silver must be far smaller than bronze (10 metrics
	// × 15 samples collapse into one wide row).
	if silver.Len()*sch.Len() >= bronze.Len() {
		t.Fatalf("no contraction: silver cells %d vs bronze rows %d", silver.Len()*sch.Len(), bronze.Len())
	}
}

func TestSilverizeBatchMetricSubset(t *testing.T) {
	sched := testSchedule(t, 4)
	bronze := bronzeFrame(t, 4, sched, 1)
	silver, err := SilverizeBatch(bronze, SilverizeConfig{Metrics: []string{"node_power_w"}})
	if err != nil {
		t.Fatal(err)
	}
	if silver.Schema().Len() != 4 { // window, system, component, node_power_w
		t.Fatalf("schema = %s", silver.Schema())
	}
}

func TestSilverizeBatchRejectsWrongSchema(t *testing.T) {
	f := schema.NewFrame(schema.EventSchema)
	if _, err := SilverizeBatch(f, SilverizeConfig{}); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestSilverizeWindowStagesMatchBatch(t *testing.T) {
	// The streaming path (window+pivot stages) and the batch path must
	// produce identical Silver rows for the same bronze data.
	sched := testSchedule(t, 4)
	bronze := bronzeFrame(t, 4, sched, 1)

	batch, err := SilverizeBatch(bronze, SilverizeConfig{})
	if err != nil {
		t.Fatal(err)
	}

	spec, _, pivot := SilverizeConfig{}.WindowStages()
	// Simulate the streaming job inline: group rows by window using the
	// spec, then pivot — equivalent to what sproc.Job does per window.
	tsIdx := bronze.Schema().MustIndex("ts")
	wf, err := sproc.WithColumn(bronze, "window", schema.KindTime, func(r schema.Row) schema.Value {
		n := r[tsIdx].UnixNanos()
		return schema.TimeNanos(n - tsdb.FloorMod(n, int64(spec.Window)))
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sproc.GroupBy(wf, []string{"window", "system", "component", "metric"}, []sproc.Agg{{Col: "value", Kind: sproc.AggAvg, As: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := pivot(agg)
	if err != nil {
		t.Fatal(err)
	}
	byWindow := []schema.SortKey{{Col: "window"}, {Col: "component"}}
	if batch, err = batch.SortBy(byWindow...); err != nil {
		t.Fatal(err)
	}
	if streamed, err = streamed.SortBy(byWindow...); err != nil {
		t.Fatal(err)
	}
	if batch.Len() != streamed.Len() {
		t.Fatalf("batch %d rows vs streamed %d", batch.Len(), streamed.Len())
	}
	bs, ss := batch.Schema(), streamed.Schema()
	for i := 0; i < batch.Len(); i++ {
		br, sr := batch.Row(i), streamed.Row(i)
		for c := 0; c < bs.Len(); c++ {
			si, ok := ss.Index(bs.Field(c).Name)
			if !ok {
				t.Fatalf("streamed missing column %q", bs.Field(c).Name)
			}
			a, b := br[c].FloatVal(), sr[si].FloatVal()
			if bs.Field(c).Kind == schema.KindFloat && math.Abs(a-b) > 1e-9 {
				t.Fatalf("row %d col %s: %v vs %v", i, bs.Field(c).Name, br[c], sr[si])
			}
		}
	}
}

func TestContextualize(t *testing.T) {
	sched := testSchedule(t, 8)
	bronze := bronzeFrame(t, 8, sched, 2)
	silver, err := SilverizeBatch(bronze, SilverizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := Contextualize(silver, sched)
	if err != nil {
		t.Fatal(err)
	}
	sch := ctx.Schema()
	ji, ci, wi := sch.MustIndex("job_id"), sch.MustIndex("component"), sch.MustIndex("window")
	matched, idle := 0, 0
	for i := 0; i < ctx.Len(); i++ {
		r := ctx.Row(i)
		node, ok := parseNode(r[ci].StrVal())
		if !ok {
			t.Fatalf("bad component %q", r[ci].StrVal())
		}
		j := sched.JobAt(node, r[wi].TimeVal())
		if j == nil {
			idle++
			if !r[ji].IsNull() {
				t.Fatalf("idle node has job: %v", r)
			}
			continue
		}
		matched++
		if r[ji].StrVal() != j.ID {
			t.Fatalf("row job %q != schedule job %q", r[ji].StrVal(), j.ID)
		}
	}
	if matched == 0 {
		t.Fatal("no rows matched a job; schedule should be busy")
	}
	_ = idle
}

func TestContextualizeNilSchedule(t *testing.T) {
	sched := testSchedule(t, 4)
	bronze := bronzeFrame(t, 4, sched, 1)
	silver, _ := SilverizeBatch(bronze, SilverizeConfig{})
	ctx, err := Contextualize(silver, nil)
	if err != nil {
		t.Fatal(err)
	}
	ji := ctx.Schema().MustIndex("job_id")
	for i := 0; i < ctx.Len(); i++ {
		if !ctx.Row(i)[ji].IsNull() {
			t.Fatal("nil schedule should yield null context")
		}
	}
}

func TestContextualizeMissingColumns(t *testing.T) {
	f := schema.NewFrame(schema.New(schema.Field{Name: "x", Kind: schema.KindInt}))
	if _, err := Contextualize(f, nil); err == nil {
		t.Fatal("missing window column accepted")
	}
}

func TestParseNode(t *testing.T) {
	cases := []struct {
		in string
		n  int
		ok bool
	}{
		{"node00042", 42, true},
		{"node0", 0, true},
		{"oss0001", 0, false},
		{"node00a1", 0, false},
		{"nod", 0, false},
		{"node", 0, false},
	}
	for _, c := range cases {
		n, ok := parseNode(c.in)
		if n != c.n || ok != c.ok {
			t.Fatalf("parseNode(%q) = %d,%v want %d,%v", c.in, n, ok, c.n, c.ok)
		}
	}
}

func TestExtractJobProfiles(t *testing.T) {
	sched := testSchedule(t, 16)
	bronze := bronzeFrame(t, 16, sched, 30)
	silver, err := SilverizeBatch(bronze, SilverizeConfig{Metrics: []string{"node_power_w"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := Contextualize(silver, sched)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := ExtractJobProfiles(ctx, "node_power_w", sched, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) == 0 {
		t.Fatal("no job profiles extracted from a busy half hour")
	}
	for _, p := range profiles {
		if len(p.Vector) != 32 {
			t.Fatalf("vector dim = %d", len(p.Vector))
		}
		for _, v := range p.Vector {
			if v < 0 || v > 1+1e-9 || math.IsNaN(v) {
				t.Fatalf("vector value %v out of [0,1]", v)
			}
		}
		if p.MeanPowerW <= 0 || p.PeakPowerW < p.MeanPowerW {
			t.Fatalf("stats: mean=%v peak=%v", p.MeanPowerW, p.PeakPowerW)
		}
		if p.Truth < 0 {
			t.Fatalf("job %s missing ground truth", p.JobID)
		}
		if !p.End.After(p.Start) {
			t.Fatalf("degenerate interval %v..%v", p.Start, p.End)
		}
	}
}

func TestExtractJobProfilesErrors(t *testing.T) {
	f := schema.NewFrame(schema.New(schema.Field{Name: "x", Kind: schema.KindInt}))
	if _, err := ExtractJobProfiles(f, "p", nil, 16); err == nil {
		t.Fatal("missing columns accepted")
	}
	sched := testSchedule(t, 4)
	bronze := bronzeFrame(t, 4, sched, 1)
	silver, _ := SilverizeBatch(bronze, SilverizeConfig{})
	ctx, _ := Contextualize(silver, sched)
	if _, err := ExtractJobProfiles(ctx, "node_power_w", sched, 1); err == nil {
		t.Fatal("dim 1 accepted")
	}
	if _, err := ExtractJobProfiles(ctx, "ghost_metric", sched, 8); err == nil {
		t.Fatal("missing power column accepted")
	}
}

func TestResample(t *testing.T) {
	ts := []float64{0, 10, 20}
	vals := []float64{0, 10, 0}
	got := resample(ts, vals, 5, 10)
	want := []float64{0, 0.5, 1, 0.5, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("resample[%d] = %v, want %v (all %v)", i, got[i], want[i], got)
		}
	}
	// Zero peak: no scaling blowup.
	flat := resample([]float64{0, 1}, []float64{0, 0}, 3, 0)
	for _, v := range flat {
		if v != 0 {
			t.Fatalf("flat resample = %v", flat)
		}
	}
}

func TestSystemSeriesAndProgramReport(t *testing.T) {
	sched := testSchedule(t, 8)
	bronze := bronzeFrame(t, 8, sched, 2)
	silver, _ := SilverizeBatch(bronze, SilverizeConfig{Metrics: []string{"node_power_w"}})
	ctx, _ := Contextualize(silver, sched)

	series, err := SystemSeries(ctx, "node_power_w", sproc.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if series.Len() != 8 { // 2 minutes / 15s
		t.Fatalf("series rows = %d, want 8", series.Len())
	}
	vi := series.Schema().MustIndex("value")
	for i := 0; i < series.Len(); i++ {
		if series.Row(i)[vi].FloatVal() <= 0 {
			t.Fatalf("nonpositive system power at row %d", i)
		}
	}
	if _, err := SystemSeries(ctx, "ghost", sproc.AggSum); err == nil {
		t.Fatal("ghost metric accepted")
	}

	rep, err := ProgramReport(ctx, "node_power_w")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() == 0 {
		t.Fatal("empty program report")
	}
	if _, err := ProgramReport(ctx, "ghost"); err == nil {
		t.Fatal("ghost metric accepted")
	}
}

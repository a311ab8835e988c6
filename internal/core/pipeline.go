package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"odakit/internal/columnar"
	"odakit/internal/cq"
	"odakit/internal/medallion"
	"odakit/internal/obs"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/sproc"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// The Bronze→Silver→Gold pipelines of Fig 4-b, in both the streaming form
// (a cq pump folding into a tumbling view whose close sink pivots and
// contextualizes each window) and the batch/backfill form (§VI-B).

// ReplayBronzeToLake rebuilds the LAKE rollup store from the retained
// bronze topic of a source — the recovery path after a LAKE restart, and
// a consumer of the batched ingest hot path end to end: a plane.Reader
// pages through the topic and each page, run through the decode-or-
// quarantine step every consumer shares (plane.Decoder), is rolled up via
// InsertBatch. The replay covers what was committed when it started
// (records ingest commits meanwhile reach the LAKE through ingest itself)
// and, when retention trims the head under it, carries on from the oldest
// record still held. Undecodable or non-conforming records do not abort
// the replay: they are quarantined to the topic's DLQ with offset and
// error metadata and the replay keeps going. Fetches and inserts retry
// transient faults. It returns how many observations were replayed and
// how many were quarantined.
func (f *Facility) ReplayBronzeToLake(ctx context.Context, src telemetry.Source) (replayed, quarantined int64, err error) {
	topic := BronzeTopic(src)
	ctx, sp := obs.StartSpan(ctx, "bronze.replay")
	defer sp.End()
	sp.Annotate("topic", "%s", topic)
	defer func() { sp.Annotate("replayed", "%d", replayed) }()
	r, err := plane.NewReader(f.stream, topic)
	if err != nil {
		return 0, 0, err
	}
	dec := plane.NewDecoder(f.stream, "core replay", schema.ObservationSchema, func(ctx context.Context, fn func() error) error {
		return f.retry(ctx, "dead-letter", fn)
	})
	ends := r.Offsets()[topic] // the end of each partition when the replay starts
	for p := range ends {
		if ends[p], err = f.stream.EndOffset(topic, p); err != nil {
			return 0, 0, err
		}
	}
	behind := func() bool {
		for p, next := range r.Offsets()[topic] {
			if next < ends[p] {
				return true
			}
		}
		return false
	}
	batch := make([]schema.Observation, 0, f.Opts.IngestBatch)
	// A pass that reads nothing while a cursor is short of its end means
	// nothing is held below the ends any more (trimmed away).
	for read := 1; read > 0 && behind(); {
		read = 0
		err := f.retry(ctx, "fetch", func() error {
			n, err := r.Poll(ctx, f.Opts.IngestBatch, func(_ string, p int, recs []stream.Record) error {
				for i := range recs {
					if recs[i].Offset >= ends[p] {
						recs = recs[:i]
						break
					}
				}
				rows, bad, err := dec.Decode(ctx, topic, p, recs)
				if err != nil {
					return err
				}
				quarantined += int64(bad)
				batch = batch[:0]
				for _, row := range rows {
					batch = append(batch, schema.ObservationFromRow(row))
				}
				if err := f.insertRetry(ctx, batch); err != nil {
					return err
				}
				replayed += int64(len(batch))
				return nil
			})
			read += n
			return err
		})
		if err != nil {
			return replayed, quarantined, err
		}
	}
	return replayed, quarantined, nil
}

// SilverObjectKey is the OCEAN key Silver data for a source appends to.
func SilverObjectKey(src telemetry.Source) string { return string(src) + "/silver.ocf" }

// SilverPipelineConfig tunes a streaming Silver pipeline.
type SilverPipelineConfig struct {
	Source telemetry.Source
	// CheckpointDir enables crash recovery.
	CheckpointDir string
	// Breaker, when non-nil, guards the OCEAN sink with a circuit
	// breaker: a persistently failing append trips it instead of being
	// re-hammered on every window.
	Breaker *resilience.BreakerConfig
}

// SilverMetrics counts one Silver run: its pump's loop counters (the
// sink's retries among Retries), the records its view dropped behind a
// closed window, and the windows and Silver rows the sink took.
type SilverMetrics struct {
	plane.LoopStats
	RecordsLate    int64
	WindowsEmitted int64
	RowsOut        int64
}

// silverJob is one incarnation of a source's streaming Bronze→Silver
// pipeline: a cq pump over its bronze topic into a tumbling view on an
// engine of its own (f.CQ's pump would fold the topic in a second time),
// whose close sink pivots each closed window wide, contextualizes it with
// job allocations and appends it to the source's OCEAN Silver object.
type silverJob struct {
	*cq.Pump
	view                       *cq.View
	sinkRetries, windows, rows atomic.Int64
	mirrored                   SilverMetrics // what f.silver has been given
}

// Stats is the pump's loop counters with the sink's retries (plane.Runner).
func (j *silverJob) Stats() plane.LoopStats {
	st := j.Pump.Stats()
	st.Retries += j.sinkRetries.Load()
	return st
}

func (j *silverJob) metrics() SilverMetrics {
	return SilverMetrics{LoopStats: j.Stats(), RecordsLate: j.view.Stats().Late, WindowsEmitted: j.windows.Load(), RowsOut: j.rows.Load()}
}

// mirror adds what the job counted since its last call to f's counters.
func (j *silverJob) mirror(c *silverCounters) {
	m := j.metrics()
	c.recordsIn.Add(m.Polled - j.mirrored.Polled)
	c.late.Add(m.RecordsLate - j.mirrored.RecordsLate)
	c.rowsOut.Add(m.RowsOut - j.mirrored.RowsOut)
	c.deadLetters.Add(m.Bad - j.mirrored.Bad)
	c.retries.Add(m.Retries - j.mirrored.Retries)
	j.mirrored = m
}

// silverCounters are the facility-wide Silver totals on /metrics, which
// every Silver job adds to after each pass.
type silverCounters struct {
	recordsIn, late, rowsOut, deadLetters, retries *obs.Counter
}

func newSilverCounters(reg *obs.Registry) silverCounters {
	return silverCounters{
		recordsIn:   reg.Counter("oda_silver_records_in_total", "Bronze records read by Silver jobs."),
		late:        reg.Counter("oda_silver_records_late_total", "Records behind an already-closed Silver window."),
		rowsOut:     reg.Counter("oda_silver_rows_out_total", "Silver rows appended to OCEAN."),
		deadLetters: reg.Counter("oda_silver_dead_letters_total", "Poison records Silver jobs quarantined to DLQs."),
		retries:     reg.Counter("oda_silver_retries_total", "Retries Silver jobs spent masking transient faults."),
	}
}

// newSilverJob builds (without running) the Silver job for a source, on
// whichever plane the facility is attached to. Its sink runs under the
// facility retry policy and, when non-nil, breaker, in that nesting: a
// retry that finds the breaker open fails fast and backs off.
func (f *Facility) newSilverJob(cfg SilverPipelineConfig, breaker *resilience.Breaker) (*silverJob, error) {
	w := f.Opts.SilverWindow
	spec, lateness, pivot := medallion.SilverizeConfig{Window: w}.WindowStages()
	eng := cq.NewEngine(cq.Config{RollupInterval: w, SegmentDuration: w})
	view, err := eng.Register(spec)
	if err != nil {
		return nil, err
	}
	j := &silverJob{view: view}
	// The name names the pump's dead letters and checkpoint file.
	name, dataset := "silver-"+string(cfg.Source), string(cfg.Source)+"_silver"
	f.Datasets.Register(dataset, medallion.Silver, nil)
	// A window's long frame is its start, the view's groups, then its value.
	fields := []schema.Field{{Name: "window", Kind: schema.KindTime}}
	for _, d := range spec.GroupBy {
		fields = append(fields, schema.Field{Name: d, Kind: schema.KindString})
	}
	long := schema.New(append(fields, schema.Field{Name: "v", Kind: schema.KindFloat})...)
	// deliver refines one window and appends it. The append fault hook
	// rejects before mutating, so a retried append cannot double one.
	deliver := func(ctx context.Context, fr *schema.Frame) error {
		fr, err := pivot(fr)
		if err == nil {
			fr, err = medallion.Contextualize(fr, f.Sched)
		}
		if err != nil || fr.Len() == 0 {
			return err
		}
		ctx, sp := obs.StartSpan(ctx, "silver.sink")
		defer sp.End()
		sp.Annotate("rows", "%d", fr.Len())
		attempts := 0
		err = f.retry(ctx, "silver sink", func() error {
			attempts++
			return breaker.Do(func() error {
				data, err := columnar.Encode(fr, columnar.WriterOptions{})
				if err == nil {
					_, err = f.Ocean.Append(BucketSilver, SilverObjectKey(cfg.Source), data)
				}
				if err == nil {
					err = f.Datasets.Record(dataset, int64(fr.Len()), int64(len(data)), time.Now())
				}
				return err
			})
		})
		j.sinkRetries.Add(int64(attempts - 1))
		if err == nil {
			j.rows.Add(int64(fr.Len()))
		}
		sp.SetErr(err)
		return err
	}
	view.SetSink(lateness, func(ctx context.Context, groups []tsdb.Group) error {
		// One micro-batch span (sampled roots only; a no-op otherwise),
		// parenting the sink spans deliver opens.
		ctx, sp := obs.StartSpan(ctx, "silver.microbatch")
		defer sp.End()
		defer j.mirror(&f.silver)
		sp.Annotate("topic", "%s", BronzeTopic(cfg.Source))
		row := make(schema.Row, 0, long.Len())
		for len(groups) > 0 {
			fr := schema.NewFrame(long)
			n := 0
			for ; n < len(groups) && groups[n].Key.Ts == groups[0].Key.Ts; n++ {
				row = append(row[:0], schema.TimeNanos(groups[n].Key.Ts))
				for _, d := range groups[n].Key.Dims[:len(spec.GroupBy)] {
					row = append(row, schema.Str(d))
				}
				if err := fr.AppendRow(append(row, schema.Float(groups[n].Cell.Value(spec.Agg)))); err != nil {
					return err
				}
			}
			j.windows.Add(1)
			if err := deliver(ctx, fr); err != nil {
				return fmt.Errorf("core: %s sink: %w", name, err)
			}
			groups = groups[n:]
		}
		return nil
	})
	j.Pump, err = cq.NewPumpSource(eng, f.stream, cq.PumpConfig{
		Name: name, Topics: []string{BronzeTopic(cfg.Source)}, BatchSize: 4096, CheckpointDir: cfg.CheckpointDir,
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// newSilverBreaker is the sink breaker cfg asks for, named after the
// pipeline; nil when it asks for none.
func newSilverBreaker(cfg SilverPipelineConfig) *resilience.Breaker {
	if cfg.Breaker == nil {
		return nil
	}
	bc := *cfg.Breaker
	if bc.Name == "" {
		bc.Name = "silver-" + string(cfg.Source)
	}
	return resilience.NewBreaker(bc)
}

// DrainSilver runs the streaming Silver pipeline until the bronze topic
// is fully consumed, flushing every window (the test/backfill mode).
func (f *Facility) DrainSilver(ctx context.Context, cfg SilverPipelineConfig) (SilverMetrics, error) {
	ctx, sp := obs.StartSpan(ctx, "silver.drain")
	defer sp.End()
	sp.Annotate("source", "%s", cfg.Source)
	j, err := f.newSilverJob(cfg, newSilverBreaker(cfg))
	if err != nil {
		sp.SetErr(err)
		return SilverMetrics{}, err
	}
	err = j.Drain(ctx)
	sp.SetErr(err)
	m := j.metrics()
	sp.Annotate("windows", "%d", m.WindowsEmitted)
	return m, err
}

// ReadSilver loads a source's Silver frame back from OCEAN. columns
// projects the read (nil reads every column) and a non-zero from / to
// bounds the windows it returns; both are pushed down into one columnar
// scan, so only the named columns (plus the window predicate column) of
// the row groups that overlap the range are decoded — the access path
// interactive views use on wide Silver objects.
func (f *Facility) ReadSilver(ctx context.Context, src telemetry.Source, columns []string, from, to time.Time) (*schema.Frame, error) {
	data, err := f.oceanGet(ctx, BucketSilver, SilverObjectKey(src))
	if err != nil {
		return nil, err
	}
	fr, err := columnar.NewFileReader(data)
	if err != nil {
		return nil, err
	}
	var preds []columnar.Predicate
	if !from.IsZero() || !to.IsZero() {
		pred := columnar.Predicate{Col: "window"}
		if !from.IsZero() {
			pred.Min = schema.Time(from)
		}
		if !to.IsZero() {
			pred.Max = schema.Time(to)
		}
		preds = append(preds, pred)
	}
	res, err := fr.ScanColumns(columns, preds...)
	if err != nil {
		return nil, err
	}
	return res.Frame, nil
}

// BatchSilverize is the backfill path (§VI-B): regenerate a window of
// Bronze from the deterministic telemetry source and refine it in one
// batch, without the broker. Returns the contextualized Silver frame.
func (f *Facility) BatchSilverize(src telemetry.Source, from, to time.Time, metrics []string) (*schema.Frame, error) {
	bronze := schema.NewFrame(schema.ObservationSchema)
	err := f.Gen.EmitSource(src, from, to, func(o schema.Observation) error {
		return bronze.AppendRow(o.Row())
	})
	if err != nil {
		return nil, err
	}
	silver, err := medallion.SilverizeBatch(bronze, medallion.SilverizeConfig{
		Window: f.Opts.SilverWindow, Metrics: metrics,
	})
	if err != nil {
		return nil, err
	}
	return medallion.Contextualize(silver, f.Sched)
}

// GoldArtifacts are the analysis-ready outputs of one Gold build.
type GoldArtifacts struct {
	Profiles     []medallion.JobProfile
	SystemSeries *schema.Frame
	// ProfilesKey / SeriesKey are the OCEAN gold objects written.
	ProfilesKey string
	SeriesKey   string
}

// BuildGold distills Gold artifacts from a source's Silver data: job
// power profiles (the Fig 10 features) and the system power series (the
// Fig 8 left panel), both persisted to the gold bucket. A sampled trace
// in ctx covers the distillation (silver read, profile extraction, gold
// writes) as child spans.
func (f *Facility) BuildGold(ctx context.Context, src telemetry.Source, powerCol string, dim int) (*GoldArtifacts, error) {
	ctx, sp := obs.StartSpan(ctx, "gold.build")
	defer sp.End()
	sp.Annotate("source", "%s", src)
	silver, err := f.ReadSilver(ctx, src, nil, time.Time{}, time.Time{})
	if err != nil {
		sp.SetErr(err)
		return nil, fmt.Errorf("core: gold build needs silver data: %w", err)
	}
	profiles, err := medallion.ExtractJobProfiles(silver, powerCol, f.Sched, dim)
	if err != nil {
		return nil, err
	}
	series, err := medallion.SystemSeries(silver, powerCol, sproc.AggSum)
	if err != nil {
		return nil, err
	}
	ga := &GoldArtifacts{
		Profiles: profiles, SystemSeries: series,
		ProfilesKey: string(src) + "/job_profiles.rows",
		SeriesKey:   string(src) + "/system_power.ocf",
	}
	// Persist: profiles as encoded rows, series as OCF.
	var buf []byte
	for _, p := range profiles {
		row := schema.Row{
			schema.Str(p.JobID), schema.Str(p.Program),
			schema.Float(p.MeanPowerW), schema.Float(p.PeakPowerW), schema.Float(p.EnergyKWh),
		}
		buf = schema.AppendRow(buf, row)
	}
	if err := f.oceanPut(ctx, BucketGold, ga.ProfilesKey, buf); err != nil {
		return nil, err
	}
	seriesData, err := columnar.Encode(series, columnar.WriterOptions{})
	if err != nil {
		return nil, err
	}
	if err := f.oceanPut(ctx, BucketGold, ga.SeriesKey, seriesData); err != nil {
		return nil, err
	}
	sp.Annotate("profiles", "%d", len(profiles))
	sp.Annotate("series_rows", "%d", series.Len())
	f.Datasets.Register(string(src)+"_gold", medallion.Gold, nil)
	_ = f.Datasets.Record(string(src)+"_gold", int64(len(profiles)+series.Len()), int64(len(buf)+len(seriesData)), time.Now())
	return ga, nil
}

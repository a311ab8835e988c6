package core

import (
	"context"
	"fmt"
	"time"

	"odakit/internal/columnar"
	"odakit/internal/medallion"
	"odakit/internal/obs"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/sproc"
	"odakit/internal/telemetry"
)

// The Bronze→Silver→Gold pipelines of Fig 4-b, in both the streaming form
// (a sproc job with windowed aggregation, pivot, and contextualization)
// and the batch/backfill form (§VI-B).

// ReplayBronzeToLake rebuilds the LAKE rollup store from the retained
// bronze topic of a source — the recovery path after a LAKE restart, and
// a consumer of the batched ingest hot path end to end: a plane.Reader
// pages through the topic and each page is rolled up via InsertBatch.
// The replay covers what was committed when it started (records ingest
// commits meanwhile reach the LAKE through ingest itself) and, when
// retention trims the head under it, carries on from the oldest record
// still held. Undecodable or non-conforming records do not abort the
// replay: they are quarantined to the topic's DLQ with offset and error
// metadata and the replay keeps going. Fetches and inserts retry
// transient faults. It returns how many observations were replayed and
// how many were quarantined.
func (f *Facility) ReplayBronzeToLake(ctx context.Context, src telemetry.Source) (replayed, quarantined int64, err error) {
	topic := BronzeTopic(src)
	ctx, sp := obs.StartSpan(ctx, "bronze.replay")
	defer sp.End()
	sp.Annotate("topic", "%s", topic)
	defer func() {
		sp.Annotate("replayed", "%d", replayed)
		if quarantined > 0 {
			sp.Annotate("dlq", "%d poison records quarantined", quarantined)
		}
	}()
	r, err := plane.NewReader(f.stream, topic)
	if err != nil {
		return 0, 0, err
	}
	// next follows the reader's cursors page by page; the replay is done
	// once each has reached the end it snapshots here.
	next := r.Offsets()[topic]
	ends := make([]int64, len(next))
	for p := range ends {
		if ends[p], err = f.stream.EndOffset(topic, p); err != nil {
			return 0, 0, err
		}
	}
	behind := func() bool {
		for p := range next {
			if next[p] < ends[p] {
				return true
			}
		}
		return false
	}
	batch := make([]schema.Observation, 0, f.Opts.IngestBatch)
	for behind() {
		pages, err := f.collectRetry(ctx, r, f.Opts.IngestBatch)
		if err != nil {
			return replayed, quarantined, err
		}
		if len(pages) == 0 {
			break // nothing is held below the ends any more (trimmed away)
		}
		for _, pg := range pages {
			p, recs := pg.Part, pg.Recs
			next[p] = recs[len(recs)-1].Offset + 1
			batch = batch[:0]
			var dead []sproc.DeadRecord
			for _, r := range recs {
				if r.Offset >= ends[p] {
					break
				}
				row, _, derr := schema.DecodeRow(r.Value)
				if derr == nil {
					derr = row.Conforms(schema.ObservationSchema)
				}
				if derr != nil {
					dead = append(dead, sproc.DeadRecord{
						Topic: topic, Partition: p, Offset: r.Offset, Ts: r.Ts,
						Reason:  fmt.Sprintf("core: replay %s/%d@%d: %v", topic, p, r.Offset, derr),
						Payload: r.Value,
					})
					continue
				}
				batch = append(batch, schema.ObservationFromRow(row))
			}
			if len(dead) > 0 {
				n, derr := sproc.DeadLetter(f.stream, dead)
				quarantined += int64(n)
				if derr != nil {
					return replayed, quarantined, derr
				}
			}
			if err := f.insertRetry(ctx, batch); err != nil {
				return replayed, quarantined, err
			}
			replayed += int64(len(batch))
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
	// Retry overrides the facility retry policy for this job's poll and
	// sink calls.
	Retry *resilience.Policy
}

// NewSilverJob builds (without running) the streaming Bronze→Silver job
// for a source: 15 s windowed averages, pivoted wide, contextualized with
// job allocations, appended to the source's OCEAN Silver object. The job
// dead-letters poison records, retries transient poll/sink faults under
// the facility retry policy, and (when configured) guards its sink with
// a circuit breaker. It reads the bronze topic of whichever plane the
// facility is attached to.
func (f *Facility) NewSilverJob(cfg SilverPipelineConfig) (*sproc.Job, error) {
	retry := cfg.Retry
	if retry == nil {
		p := f.retryPolicy()
		retry = &p
	}
	job, err := sproc.NewJob(f.stream, sproc.JobConfig{
		Name: "silver-" + string(cfg.Source), Topic: BronzeTopic(cfg.Source),
		InputSchema: schema.ObservationSchema, CheckpointDir: cfg.CheckpointDir,
		Retry: retry, Breaker: cfg.Breaker, DeadLetter: true,
		Instr: f.silverInstr,
	})
	if err != nil {
		return nil, err
	}
	spec, pivot := medallion.SilverizeConfig{Window: f.Opts.SilverWindow}.WindowStages()
	dataset := string(cfg.Source) + "_silver"
	f.Datasets.Register(dataset, medallion.Silver, nil)
	job.Window(spec).
		MapBatch(pivot).
		MapBatch(func(fr *schema.Frame) (*schema.Frame, error) {
			return medallion.Contextualize(fr, f.Sched)
		}).
		To(func(fr *schema.Frame) error {
			data, err := columnar.Encode(fr, columnar.WriterOptions{})
			if err != nil {
				return err
			}
			// No extra retry here: the job's retry policy wraps the whole
			// sink call, and the append fault hook rejects before mutating,
			// so a retried sink cannot double-append a window.
			if _, err := f.Ocean.Append(BucketSilver, SilverObjectKey(cfg.Source), data); err != nil {
				return err
			}
			return f.Datasets.Record(dataset, int64(fr.Len()), int64(len(data)), time.Now())
		})
	return job, nil
}

// DrainSilver runs the streaming Silver pipeline until the bronze topic
// is fully consumed, flushing every window (the test/backfill mode).
func (f *Facility) DrainSilver(ctx context.Context, cfg SilverPipelineConfig) (sproc.Metrics, error) {
	ctx, sp := obs.StartSpan(ctx, "silver.drain")
	defer sp.End()
	sp.Annotate("source", "%s", cfg.Source)
	job, err := f.NewSilverJob(cfg)
	if err != nil {
		sp.SetErr(err)
		return sproc.Metrics{}, err
	}
	if err := job.Drain(ctx); err != nil {
		sp.SetErr(err)
		return job.Metrics(), err
	}
	m := job.Metrics()
	sp.Annotate("windows", "%d", m.WindowsEmitted)
	if m.RecordsDeadLettered > 0 {
		sp.Annotate("dlq", "%d poison records quarantined", m.RecordsDeadLettered)
	}
	return m, nil
}

// ReadSilver loads a source's Silver frame back from OCEAN, optionally
// restricted to a time range via columnar predicate pushdown.
func (f *Facility) ReadSilver(src telemetry.Source, from, to time.Time) (*schema.Frame, error) {
	return f.readSilver(context.Background(), src, from, to)
}

func (f *Facility) readSilver(ctx context.Context, src telemetry.Source, from, to time.Time) (*schema.Frame, error) {
	data, err := f.oceanGet(ctx, BucketSilver, SilverObjectKey(src))
	if err != nil {
		return nil, err
	}
	fr, err := columnar.NewFileReader(data)
	if err != nil {
		return nil, err
	}
	if from.IsZero() && to.IsZero() {
		return columnar.ReadAll(data)
	}
	pred := columnar.Predicate{Col: "window"}
	if !from.IsZero() {
		pred.Min = schema.Time(from)
	}
	if !to.IsZero() {
		pred.Max = schema.Time(to)
	}
	res, err := fr.Scan(pred)
	if err != nil {
		return nil, err
	}
	return res.Frame, nil
}

// ReadSilverColumns is ReadSilver with projection pushdown: only the
// named columns (plus the window predicate column) are decoded — the
// access path interactive views use on wide Silver objects.
func (f *Facility) ReadSilverColumns(src telemetry.Source, columns []string, from, to time.Time) (*schema.Frame, error) {
	data, err := f.oceanGet(context.Background(), BucketSilver, SilverObjectKey(src))
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
// Fig 8 left panel), both persisted to the gold bucket.
func (f *Facility) BuildGold(src telemetry.Source, powerCol string, dim int) (*GoldArtifacts, error) {
	return f.BuildGoldContext(context.Background(), src, powerCol, dim)
}

// BuildGoldContext is BuildGold with a caller context, so a sampled
// trace covers the Gold distillation (silver read, profile extraction,
// gold writes) as child spans.
func (f *Facility) BuildGoldContext(ctx context.Context, src telemetry.Source, powerCol string, dim int) (*GoldArtifacts, error) {
	ctx, sp := obs.StartSpan(ctx, "gold.build")
	defer sp.End()
	sp.Annotate("source", "%s", src)
	silver, err := f.readSilver(ctx, src, time.Time{}, time.Time{})
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

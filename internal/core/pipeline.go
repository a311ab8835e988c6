package core

import (
	"context"
	"fmt"
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
)

// The Bronze→Silver→Gold pipelines of Fig 4-b, in both the streaming form
// (a sproc job folding into a tumbling CQ view, then pivot and
// contextualization) and the batch/backfill form (§VI-B).

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

// NewSilverJob builds (without running) the streaming Bronze→Silver job
// for a source: 15 s windowed averages, pivoted wide, contextualized with
// job allocations, appended to the source's OCEAN Silver object. The
// windows are a tumbling view on an engine of the job's own (never
// f.CQ, whose pump would fold the topic into it a second time). The job
// dead-letters poison records, retries transient poll/sink faults under
// the facility retry policy, and (when configured) guards its sink with
// a circuit breaker. It reads the bronze topic of whichever plane the
// facility is attached to.
func (f *Facility) NewSilverJob(cfg SilverPipelineConfig) (*sproc.Job, error) {
	w := f.Opts.SilverWindow
	spec, lateness, pivot := medallion.SilverizeConfig{Window: w}.WindowStages()
	view, err := cq.NewEngine(cq.Config{RollupInterval: w, SegmentDuration: w}).Register(spec)
	if err != nil {
		return nil, err
	}
	job, err := sproc.NewJob(f.stream, sproc.JobConfig{
		Name: "silver-" + string(cfg.Source), Topic: BronzeTopic(cfg.Source),
		View: view, Lateness: lateness, CheckpointDir: cfg.CheckpointDir,
		Retry: f.Opts.RetryPolicy, Breaker: cfg.Breaker,
		Instr: f.silverInstr,
	})
	if err != nil {
		return nil, err
	}
	dataset := string(cfg.Source) + "_silver"
	f.Datasets.Register(dataset, medallion.Silver, nil)
	job.MapBatch(pivot).
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
	return m, nil
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

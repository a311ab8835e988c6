// Package core assembles the substrates into the paper's end-to-end ODA
// framework: one Facility owns the STREAM broker, LAKE stores, OCEAN
// object store, GLACIER archive, the application platform, the medallion
// registry, governance, ML pipeline, and reporting (Fig 5), and drives
// the data life cycle of Fig 1 — collection → engineering/management →
// discovery/analysis → visualization/reporting → advanced usage →
// governance/distribution — over synthetic facility telemetry.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"odakit/internal/archive"
	"odakit/internal/catalog"
	"odakit/internal/cq"
	"odakit/internal/governance"
	"odakit/internal/jobsched"
	"odakit/internal/logsearch"
	"odakit/internal/medallion"
	"odakit/internal/mlops"
	"odakit/internal/objstore"
	"odakit/internal/obs"
	"odakit/internal/plane"
	"odakit/internal/platform"
	"odakit/internal/report"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// Buckets in the OCEAN tier.
const (
	BucketBronze = "bronze"
	BucketSilver = "silver"
	BucketGold   = "gold"
	// BucketLake holds segments the LAKE time-series store has aged out:
	// columnar objects plus the manifest the federated query planner
	// reads. Managed by tsdb's cold tier; no lifecycle rule is set here
	// (glacier demotion of lake segments is driven by explicit tooling,
	// and federated queries recall on demand when they find a gap).
	BucketLake = "lake"
)

// TopicPartitions is how many partitions every bronze topic has.
const TopicPartitions = 4

// BronzeTopic returns the broker topic name for a source's raw stream.
func BronzeTopic(src telemetry.Source) string { return "bronze." + string(src) }

// Options configures a Facility.
type Options struct {
	// System describes the simulated machine (defaults to a 32-node
	// scaled Frontier-like system, seed 1).
	System telemetry.SystemConfig
	// Schedule supplies job context; when nil a schedule is simulated
	// over [ScheduleFrom, ScheduleTo).
	Schedule     *jobsched.Schedule
	ScheduleFrom time.Time
	ScheduleTo   time.Time
	WorkloadSeed int64
	// Workload overrides the simulated job mix (WorkloadSeed is ignored
	// when set). Only used when Schedule is nil.
	Workload *jobsched.WorkloadConfig
	// DataDir persists OCEAN objects when non-empty.
	DataDir string
	// SilverWindow is the Bronze→Silver aggregation interval (default 15s).
	SilverWindow time.Duration
	// StreamRetentionBytes bounds the broker footprint per partition
	// (default 64 MiB).
	StreamRetentionBytes int64
	// IngestBatch is how many records IngestWindow accumulates before
	// flushing to the STREAM and LAKE tiers in one batched call
	// (default 512). 1 degenerates to per-record ingest.
	IngestBatch int
	// RetryPolicy shapes how facility pipelines — the Silver job
	// included — retry transient infrastructure faults (publish, insert,
	// fetch, ocean I/O). The zero value applies the resilience defaults
	// (5 attempts, jittered exponential backoff); without fault injection
	// no error classifies transient, so this changes nothing on the happy
	// path.
	RetryPolicy resilience.Policy
}

func (o Options) withDefaults() Options {
	if o.System.Name == "" {
		o.System = telemetry.FrontierLike(1).Scaled(32)
	}
	if o.SilverWindow <= 0 {
		o.SilverWindow = 15 * time.Second
	}
	if o.StreamRetentionBytes <= 0 {
		o.StreamRetentionBytes = 64 << 20
	}
	if o.IngestBatch <= 0 {
		o.IngestBatch = 512
	}
	if o.ScheduleFrom.IsZero() {
		o.ScheduleFrom = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC).Add(-2 * time.Hour)
	}
	if o.ScheduleTo.IsZero() || !o.ScheduleTo.After(o.ScheduleFrom) {
		o.ScheduleTo = o.ScheduleFrom.Add(8 * time.Hour)
	}
	return o
}

// Facility is the one-stop shop of Fig 5: every data service plus the
// telemetry-producing system, wired and ready.
type Facility struct {
	Opts  Options
	Gen   *telemetry.Generator
	Sched *jobsched.Schedule

	Broker  *stream.Broker     // STREAM tier: the facility's own engine
	Lake    *tsdb.DB           // LAKE: the facility's own time-series store
	Logs    *logsearch.Index   // LAKE: log search
	Ocean   *objstore.Store    // OCEAN tier
	Glacier *archive.Archive   // GLACIER tier
	Apps    *platform.Platform // Slate-like app platform

	Datasets *medallion.Registry
	Dict     *catalog.Dictionary
	Matrix   *catalog.Matrix
	DataRUC  *governance.Workflow
	ML       *mlops.Pipeline
	Rats     *report.RATS

	// Pipelines tracks supervised streaming pipelines for health and
	// metrics endpoints (/healthz, /api/v1/pipelines, dashboard footer).
	Pipelines *plane.Registry

	// CQ maintains standing continuous queries as incremental
	// materialized views over the bronze streams, answered at memory
	// speed without touching the LAKE. Its cell geometry mirrors the
	// Lake's (same rollup interval and segment duration) so view reads
	// are byte-identical to the equivalent Lake batch query.
	CQ *cq.Engine

	// Obs is the facility-wide metrics registry: every tier registers
	// its counters and collectors into it at construction, and /metrics
	// renders it in Prometheus text format. Tracer samples end-to-end
	// pipeline traces (Bronze→Silver→Gold span trees) served at
	// /api/v1/traces.
	Obs    *obs.Registry
	Tracer *obs.Tracer

	// silver is the Silver totals every Silver job adds to; retries
	// counts facility-level infrastructure retries (publish, insert,
	// fetch, ocean I/O, the Silver sink's append).
	silver  silverCounters
	retries *obs.Counter

	// stream and lake are the data plane the facility runs on: Broker
	// and Lake unless AttachPlane moved it. Every bronze/LAKE read and
	// write in core, the CQ pump, the HTTP portal and the dashboards go
	// through them, never through Broker/Lake directly.
	stream plane.Stream
	lake   plane.Lake
}

// NewFacility builds and wires a facility.
func NewFacility(opts Options) (*Facility, error) {
	opts = opts.withDefaults()
	// The Lake and the CQ engine bucket by SilverWindow in tsdb's default
	// chunks; a window that does not divide them is refused here, before
	// either holds a cell.
	if _, err := tsdb.NewGeometry(opts.SilverWindow, 0); err != nil {
		return nil, fmt.Errorf("core: SilverWindow: %w", err)
	}
	sched := opts.Schedule
	if sched == nil {
		wl := jobsched.WorkloadConfig{Seed: opts.WorkloadSeed}
		if opts.Workload != nil {
			wl = *opts.Workload
		}
		sim := jobsched.New(jobsched.Config{
			Nodes: opts.System.Nodes, System: opts.System.Name, Workload: wl,
		})
		sched = sim.Run(opts.ScheduleFrom, opts.ScheduleTo)
	}
	ocean, err := objstore.New(opts.DataDir)
	if err != nil {
		return nil, err
	}
	for _, b := range []string{BucketBronze, BucketSilver, BucketGold, BucketLake} {
		if err := ocean.EnsureBucket(b); err != nil {
			return nil, err
		}
	}
	ml, err := mlops.New(ocean)
	if err != nil {
		return nil, err
	}
	f := &Facility{
		Opts:      opts,
		Gen:       telemetry.NewGenerator(opts.System, sched),
		Sched:     sched,
		Broker:    stream.NewBroker(),
		Lake:      tsdb.New(tsdb.Options{RollupInterval: opts.SilverWindow}),
		Logs:      logsearch.New(),
		Ocean:     ocean,
		Glacier:   archive.New(),
		Apps:      platform.New(platform.Resources{CPUCores: 512, MemoryGB: 4096, StorageGB: 65536}),
		Datasets:  medallion.NewRegistry(),
		Dict:      catalog.NewDictionary(),
		DataRUC:   governance.NewWorkflow(),
		ML:        ml,
		Rats:      report.New(),
		Pipelines: plane.NewRegistry(),
		Obs:       obs.NewRegistry(),
		Tracer:    obs.NewTracer(0),
	}
	// Tiered federation: LAKE queries transparently reach segments aged
	// into the lake bucket, with GLACIER recall for objects that migrated
	// further down. A persisted manifest (DataDir mode) is rehydrated
	// here, so a restarted facility still sees its history.
	if _, err := f.Lake.AttachColdTier(tsdb.ColdTierConfig{
		Store: ocean, Bucket: BucketLake, Glacier: f.Glacier,
	}); err != nil {
		return nil, err
	}
	// The CQ engine's cell geometry must match the Lake's: same rollup
	// interval (SilverWindow) and tsdb's default segment duration.
	f.CQ = cq.NewEngine(cq.Config{RollupInterval: opts.SilverWindow, Registry: f.Obs})
	f.Lake.Instrument(f.Obs)
	f.Broker.Instrument(f.Obs)
	f.Ocean.Instrument(f.Obs)
	f.Pipelines.Instrument(f.Obs)
	f.silver = newSilverCounters(f.Obs)
	f.retries = f.Obs.Counter("oda_core_retries_total",
		"Facility-level infrastructure retries (publish, insert, fetch, ocean I/O).")
	for _, src := range telemetry.MetricSources {
		f.Datasets.Register(string(src)+"_bronze", medallion.Bronze, schema.ObservationSchema)
	}
	f.Datasets.Register("syslog_bronze", medallion.Bronze, schema.EventSchema)
	if err := f.AttachPlane(f.Broker, f.Lake); err != nil {
		return nil, err
	}
	f.Rats.Ingest(report.FromSchedule(sched))
	return f, nil
}

// Close shuts down facility services.
func (f *Facility) Close() { f.Broker.Close() }

// AttachPlane moves the facility onto a data plane — a replicated
// cluster in place of its own Broker + Lake — and creates the bronze
// topics there. Attach before ingesting: telemetry then lands in that
// plane once, in generator order, and everything that reads bronze or
// LAKE data (replay, the CQ pump, the portal, the dashboards) follows.
func (f *Facility) AttachPlane(s plane.Stream, l plane.Lake) error {
	cfg := stream.TopicConfig{Partitions: TopicPartitions, RetentionBytes: f.Opts.StreamRetentionBytes}
	for _, src := range telemetry.MetricSources {
		if err := s.EnsureTopic(BronzeTopic(src), cfg); err != nil {
			return err
		}
	}
	if err := s.EnsureTopic(BronzeTopic(telemetry.SourceSyslog), cfg); err != nil {
		return err
	}
	f.stream, f.lake = s, l
	return nil
}

// Plane returns the data plane the facility runs on.
func (f *Facility) Plane() (plane.Stream, plane.Lake) { return f.stream, f.lake }

// NewCQPump builds a continuous-query pump draining the plane's bronze
// metric topics (all telemetry.MetricSources when none are named) into
// f.CQ. checkpointDir enables crash-consistent exactly-once recovery; ""
// runs without checkpoints.
func (f *Facility) NewCQPump(checkpointDir string, sources ...telemetry.Source) (*cq.Pump, error) {
	if len(sources) == 0 {
		sources = telemetry.MetricSources
	}
	topics := make([]string, 0, len(sources))
	for _, src := range sources {
		topics = append(topics, BronzeTopic(src))
	}
	return cq.NewPumpSource(f.CQ, f.stream, cq.PumpConfig{Topics: topics, CheckpointDir: checkpointDir})
}

// SourceIngest summarizes one source's ingest volume.
type SourceIngest struct {
	Source  telemetry.Source
	Records int64
	Bytes   int64
}

// IngestStats summarizes an IngestWindow call: the Fig 4-a numbers.
type IngestStats struct {
	From, To  time.Time
	Sources   []SourceIngest
	Events    int64
	TotalRecs int64
	TotalByte int64
}

// IngestWindow generates telemetry for [from, to) and lands it: numeric
// observations go to the per-source bronze topics AND the LAKE rollup
// store (the real-time path); syslog events go to the log index and the
// syslog topic. Records are accumulated into Options.IngestBatch-sized
// batches and flushed via the plane's PublishBatch + InsertBatch, so
// ingest never serializes on per-record broker or lake locks. It
// returns per-source volumes. When ctx carries a sampled trace root,
// each source's ingest becomes a child span with per-flush publish and
// insert spans under it. A cancelled ctx stops the ingest before its
// next flush: the batches already flushed are in STREAM and LAKE alike,
// and no later one reaches either.
func (f *Facility) IngestWindow(ctx context.Context, from, to time.Time, sources ...telemetry.Source) (IngestStats, error) {
	if len(sources) == 0 {
		sources = telemetry.MetricSources
	}
	batchSize := f.Opts.IngestBatch
	stats := IngestStats{From: from, To: to}
	msgs := make([]stream.Message, 0, batchSize)
	// A flush's keys and payloads, back to back: a publish keeps no
	// reference to them (plane.Stream.PublishBatch), so flushes reuse it.
	var arena []byte
	message := func(key string, row schema.Row) stream.Message {
		start, mid := len(arena), len(arena)+len(key)
		arena = schema.AppendRow(append(arena, key...), row)
		return stream.Message{Key: arena[start:mid:mid], Value: arena[mid:len(arena):len(arena)]}
	}
	obsBatch := make([]schema.Observation, 0, batchSize)
	// flush publishes the batch to topic and inserts its observations, if
	// it has any, under sctx. Retried flushes: a partial publish resumes
	// with only the unpublished remainder, and the lake insert is
	// all-or-nothing, so transient faults cost retries — never duplicates.
	flush := func(sctx context.Context, topic string) error {
		if len(msgs) == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := f.publishRetry(sctx, topic, msgs); err != nil {
			return err
		}
		if len(obsBatch) > 0 {
			if err := f.insertRetry(sctx, obsBatch); err != nil {
				return err
			}
		}
		msgs, obsBatch, arena = msgs[:0], obsBatch[:0], arena[:0]
		return nil
	}
	for _, src := range sources {
		si := SourceIngest{Source: src}
		topic := BronzeTopic(src)
		sctx, ssp := obs.StartSpan(ctx, "bronze.ingest")
		ssp.Annotate("source", "%s", src)
		err := f.Gen.EmitSource(src, from, to, func(o schema.Observation) error {
			msgs = append(msgs, message(o.Component, o.Row()))
			obsBatch = append(obsBatch, o)
			si.Records++
			si.Bytes += int64(len(msgs[len(msgs)-1].Value))
			if len(msgs) >= batchSize {
				return flush(sctx, topic)
			}
			return nil
		})
		if err == nil {
			err = flush(sctx, topic)
		}
		ssp.Annotate("records", "%d", si.Records)
		if err != nil {
			ssp.SetErr(err)
		}
		ssp.End()
		if err != nil {
			return stats, fmt.Errorf("core: ingest %s: %w", src, err)
		}
		_ = f.Datasets.Record(string(src)+"_bronze", si.Records, si.Bytes, to)
		stats.Sources = append(stats.Sources, si)
		stats.TotalRecs += si.Records
		stats.TotalByte += si.Bytes
	}
	// Syslog events: the log index is updated inline, the syslog topic in
	// batches.
	syslog := BronzeTopic(telemetry.SourceSyslog)
	err := f.Gen.EmitEvents(from, to, func(e schema.Event) error {
		f.Logs.Add(e)
		msgs = append(msgs, message(e.Host, e.Row()))
		stats.Events++
		stats.TotalByte += int64(len(msgs[len(msgs)-1].Value))
		if len(msgs) >= batchSize {
			return flush(ctx, syslog)
		}
		return nil
	})
	if err == nil {
		err = flush(ctx, syslog)
	}
	if err != nil {
		return stats, fmt.Errorf("core: ingest events: %w", err)
	}
	// Scheduler events land in the log index too (Fig 6 joins them).
	for _, e := range f.Sched.Events() {
		if !e.Ts.Before(from) && e.Ts.Before(to) {
			f.Logs.Add(e)
			stats.Events++
		}
	}
	_ = f.Datasets.Record("syslog_bronze", stats.Events, 0, to)
	stats.TotalRecs += stats.Events
	return stats, nil
}

// ExtrapolateDaily scales measured ingest bytes to the full-size system's
// bytes/day — how laptop-scale measurements reproduce the paper's
// 4.2-4.5 TB/day headline (Fig 4-a).
func (f *Facility) ExtrapolateDaily(stats IngestStats, fullScale telemetry.SystemConfig) map[telemetry.Source]float64 {
	out := make(map[telemetry.Source]float64, len(stats.Sources))
	window := stats.To.Sub(stats.From)
	if window <= 0 {
		return out
	}
	for _, si := range stats.Sources {
		if si.Records == 0 {
			continue
		}
		bytesPerRecord := float64(si.Bytes) / float64(si.Records)
		spec, ok := fullScale.Spec(si.Source)
		if !ok {
			continue
		}
		out[si.Source] = spec.RecordsPerDay() * bytesPerRecord
	}
	return out
}

// RetentionStats reports one retention sweep across the hot tiers.
type RetentionStats struct {
	LakeRowsOffloaded   int
	LakeSegmentsDropped int
	LogSegmentsDropped  int
	OceanExpired        int
	GlacierFrozen       int
}

// ApplyRetention enforces the Fig 5 retention ladder at `now`: LAKE
// segments older than lakeAge are offloaded into the lake bucket as
// pruned columnar objects (federated queries keep answering over them),
// log segments are dropped, and OCEAN objects past their lifecycle
// freeze into GLACIER. The LAKE step covers the facility's own store
// only: on an attached plane (AttachPlane) it is an error naming that
// lake, and the log and OCEAN steps still run.
func (f *Facility) ApplyRetention(now time.Time, lakeAge time.Duration) (RetentionStats, error) {
	var st RetentionStats
	cutoff := now.Add(-lakeAge)
	var lakeErr error
	if f.lake == f.Lake {
		// Offload instead of dropping: history stays queryable through the
		// federated planner, now with zone-map + bloom pruning metadata.
		off, err := f.Lake.Offload(cutoff)
		if err != nil {
			return st, err
		}
		st.LakeRowsOffloaded = int(off.Cells)
		st.LakeSegmentsDropped = off.Segments + f.Lake.Retain(cutoff)
	} else {
		lakeErr = fmt.Errorf("core: retention: LAKE is the attached %T, not the facility's own store; offload and retain it there", f.lake)
	}
	st.LogSegmentsDropped = f.Logs.Retain(cutoff)
	expired, err := f.Ocean.ApplyLifecycle(func(info objstore.ObjectInfo, data []byte) error {
		f.Glacier.Freeze(info.Bucket+"/"+info.Key, data)
		st.GlacierFrozen++
		return nil
	})
	st.OceanExpired = expired
	return st, errors.Join(lakeErr, err)
}

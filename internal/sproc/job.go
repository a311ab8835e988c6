package sproc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"odakit/internal/cq"
	"odakit/internal/obs"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/schema"
)

// JobConfig configures a streaming job.
type JobConfig struct {
	// Name identifies the job; the checkpoint file is named after it.
	Name string
	// Topic is the observation topic the job reads, from its oldest
	// retained record (or from its checkpoint).
	Topic string
	// View is the CQ view the job folds the topic into: fed by View.Fold
	// and emptied by View.Close, each of its chunks a window. Its
	// engine's SegmentDuration is the window width; a tumbling spec of
	// that granularity makes a window one output row per group.
	View *cq.View
	// Lateness delays closing: a window closes when the watermark passes
	// its end by Lateness. A record whose window already closed is
	// dropped and counted late.
	Lateness time.Duration
	// CheckpointDir enables recovery when non-empty: offsets, watermarks
	// and the view's open windows persist there after every sunk batch.
	CheckpointDir string
	// Retry retries transient poll, sink, and dead-letter failures
	// (jittered exponential backoff, per-call budget); the zero value
	// applies the resilience defaults, resilience.NoRetry makes one attempt.
	Retry resilience.Policy
	// Breaker, when non-nil, runs the sink through a circuit breaker: a
	// persistently failing sink trips it, and subsequent batches fail
	// fast with a transient error instead of hammering the sink.
	Breaker *resilience.BreakerConfig
	// Instr, when non-nil, mirrors the per-job Metrics deltas into
	// shared registry-backed instruments (one add per micro-batch, never
	// per record). Jobs across a facility share one set so /metrics
	// shows facility-wide totals even across job restarts.
	Instr *Instruments
}

// Metrics are the job's processing counters.
type Metrics struct {
	RecordsIn      int64
	RecordsInvalid int64
	RecordsLate    int64
	Batches        int64
	WindowsEmitted int64
	RowsOut        int64
	Checkpoints    int64
	Recovered      bool
	// Resilience counters: poison records quarantined to the topic's DLQ
	// ("<Topic>.dlq", with offset and error metadata; each is also in
	// RecordsInvalid), retry attempts consumed masking transient faults,
	// supervisor restarts (filled by Pipeline for supervised jobs), and
	// circuit-breaker state.
	RecordsDeadLettered int64
	Retries             int64
	Restarts            int64
	BreakerOpens        int64
	BreakerOpen         bool
}

// Job is a micro-batch streaming pipeline: STREAM topic -> event-time
// windows folded in a CQ view -> batch transforms -> sink, with
// checkpoint-based recovery. Build it fluently, then Run or Drain it. The
// job is the plane.Operator of one plane.Loop, which reads, quarantines
// poison records, checkpoints and parks; a micro-batch is one pass of it.
// A Job is single-consumer; metrics reads are safe.
type Job struct {
	stream plane.Stream
	cfg    JobConfig
	path   string // the checkpoint file; "" without one

	maps []func(*schema.Frame) (*schema.Frame, error)
	sink func(*schema.Frame) error

	mu      sync.Mutex
	metrics Metrics

	// partWM tracks the max event time seen per broker partition; the
	// effective watermark is the minimum across partitions, so a fast
	// partition cannot close windows other partitions still feed. A
	// partition that never carried data is excluded from idleAt on.
	partWM map[int]int64
	nparts int
	// idleAt is partitionIdleTimeout after start: the one instant the
	// watermark can move without data. Zero once a flush at or after it
	// has run.
	idleAt time.Time

	loop     *plane.Loop // built by start; guarded by mu for Metrics
	mirrored Metrics     // what Instr has been given so far
	outSch   *schema.Schema
	breaker  *resilience.Breaker
}

// NewJob returns a job reading the configured topic of a data plane's
// STREAM into its view.
func NewJob(s plane.Stream, cfg JobConfig) (*Job, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: job needs a name", ErrPlan)
	}
	if cfg.View == nil {
		return nil, fmt.Errorf("%w: job %s needs a view", ErrPlan, cfg.Name)
	}
	if cfg.Instr == nil {
		cfg.Instr = NewInstruments(nil) // every instrument nil: each add a no-op
	}
	// A window is the window start, the view's groups, then its value.
	fields := []schema.Field{{Name: "window", Kind: schema.KindTime}}
	for _, d := range cfg.View.Spec.GroupBy {
		fields = append(fields, schema.Field{Name: d, Kind: schema.KindString})
	}
	j := &Job{
		stream: s, cfg: cfg,
		partWM: make(map[int]int64),
		outSch: schema.New(append(fields, schema.Field{Name: "v", Kind: schema.KindFloat})...),
	}
	if cfg.CheckpointDir != "" {
		j.path = filepath.Join(cfg.CheckpointDir, cfg.Name+".ckpt.json")
	}
	if cfg.Breaker != nil {
		bc := *cfg.Breaker
		if bc.Name == "" {
			bc.Name = cfg.Name
		}
		j.breaker = resilience.NewBreaker(bc)
	}
	return j, nil
}

// MapBatch appends a transform applied to each closed window's frame
// (e.g. a pivot into wide format).
func (j *Job) MapBatch(fn func(*schema.Frame) (*schema.Frame, error)) *Job {
	j.maps = append(j.maps, fn)
	return j
}

// To installs the sink. Sinks should be idempotent: recovery semantics
// are at-least-once across the sink/checkpoint boundary (as with
// non-transactional sinks in the system the paper uses).
func (j *Job) To(sink func(*schema.Frame) error) *Job {
	j.sink = sink
	return j
}

// Metrics returns a snapshot of the processing counters: the loop's
// (records read and quarantined, passes, retries, checkpoints) and the
// job's own.
func (j *Job) Metrics() Metrics {
	j.mu.Lock()
	m, l := j.metrics, j.loop
	j.mu.Unlock()
	if l != nil {
		st := l.Stats()
		m.RecordsIn, m.Batches, m.Retries, m.Checkpoints, m.Recovered = st.Polled, st.Passes, st.Retries, st.Checkpoints, st.Recovered
		m.RecordsDeadLettered = st.Bad
		m.RecordsInvalid += st.Bad
	}
	if j.breaker != nil {
		st := j.breaker.Stats()
		m.BreakerOpens = st.Opens
		m.BreakerOpen = st.State == resilience.BreakerOpen.String()
	}
	return m
}

// Breaker returns the job's sink circuit breaker, or nil when none is
// configured.
func (j *Job) Breaker() *resilience.Breaker { return j.breaker }

// start builds the job's loop, restoring from the checkpoint when there
// is one; a started job is not started again.
func (j *Job) start() error {
	if j.loop != nil {
		return nil
	}
	if j.sink == nil {
		return fmt.Errorf("%w: job %s has no sink", ErrPlan, j.cfg.Name)
	}
	j.idleAt = time.Now().Add(partitionIdleTimeout)
	cfg := plane.LoopConfig{
		Consumer: "sproc job " + j.cfg.Name, Topics: []string{j.cfg.Topic}, Schema: schema.ObservationSchema,
		BatchSize: jobBatchSize, Retry: j.cfg.Retry, Deadline: func() time.Time { return j.idleAt },
		DeadLetters: j.cfg.Instr.DeadLettered, Retries: j.cfg.Instr.Retries, Checkpoint: j.path,
	}
	l, err := plane.NewLoop(j.stream, j, cfg)
	if err != nil {
		return err
	}
	if j.nparts, err = j.stream.Partitions(j.cfg.Topic); err != nil {
		return err
	}
	j.mu.Lock()
	j.loop = l
	j.mu.Unlock()
	return nil
}

// Run processes micro-batches until ctx is cancelled. A cancelled context
// returns nil after a final checkpoint (graceful stop): every cursor is at
// a page the job applied, so it covers nothing the job did not process.
func (j *Job) Run(ctx context.Context) error {
	if err := j.start(); err != nil {
		return err
	}
	err := j.loop.Run(ctx)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return j.loop.Checkpoint()
	}
	return err
}

// Drain processes until the topic is fully consumed, then force-closes
// every open window and flushes it — the batch-completion mode tests and
// backfills use.
func (j *Job) Drain(ctx context.Context) error {
	if err := j.start(); err != nil {
		return err
	}
	return j.loop.Drain(ctx)
}

// step consumes one micro-batch: it parks until a commit lands behind a
// cursor, then makes one pass over the topic's partitions. A job that
// reaches its idle deadline parked flushes what that unblocked instead.
func (j *Job) step(ctx context.Context) error { return j.loop.Step(ctx) }

// Apply folds one partition's page into the view (plane.Operator). Every
// record with a timestamp advances its partition's watermark.
func (j *Job) Apply(_ context.Context, topic string, part int, rows []schema.Row) error {
	_, late := j.cfg.View.Fold(topic, part, rows)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.metrics.RecordsLate += late
	for _, row := range rows {
		ts := row[0] // ObservationSchema's ts
		if ts.IsNull() {
			j.metrics.RecordsInvalid++
		} else if ev := ts.UnixNanos(); ev > j.partWM[part] {
			j.partWM[part] = ev
		}
	}
	return nil
}

// Flush ends a micro-batch (plane.Operator): it mirrors the counters into
// the shared instruments (one add each per micro-batch, never per record)
// and sinks the windows the watermark closed — every open window when
// final.
func (j *Job) Flush(ctx context.Context, final bool) error {
	// One micro-batch span (sampled roots only; a no-op otherwise). It
	// parents the sink spans deliver opens below.
	ctx, sp := obs.StartSpan(ctx, "silver.microbatch")
	defer sp.End()
	sp.Annotate("topic", "%s", j.cfg.Topic)
	m, ins := j.Metrics(), j.cfg.Instr
	sp.Annotate("records", "%d", m.RecordsIn-j.mirrored.RecordsIn)
	ins.RecordsIn.Add(m.RecordsIn - j.mirrored.RecordsIn)
	ins.RecordsInvalid.Add(m.RecordsInvalid - j.mirrored.RecordsInvalid)
	ins.RecordsLate.Add(m.RecordsLate - j.mirrored.RecordsLate)
	ins.Batches.Add(m.Batches - j.mirrored.Batches)
	j.mirrored = m
	return j.closeWindows(ctx, final)
}

// jobBatchSize caps the records a micro-batch takes from each partition.
const jobBatchSize = 4096

// partitionIdleTimeout is how long after start a partition may carry no
// data before it is excluded from the watermark minimum, so a partition
// nothing is published to cannot stall window emission forever.
const partitionIdleTimeout = 500 * time.Millisecond

// watermarkLocked returns the effective event-time watermark: the minimum
// of the per-partition maxima. Until every partition has carried data the
// watermark is withheld — until idleAt, from which on the partitions that
// never carried any are excluded.
func (j *Job) watermarkLocked() (wm int64, ok bool) {
	if !j.idleAt.IsZero() && !time.Now().Before(j.idleAt) {
		j.idleAt = time.Time{}
	}
	for p := 0; p < j.nparts; p++ {
		switch v, seen := j.partWM[p]; {
		case !seen && !j.idleAt.IsZero():
			// Withhold the watermark rather than risk closing windows
			// this partition may still feed.
			return 0, false
		case seen && (!ok || v < wm):
			wm, ok = v, true
		}
	}
	return wm, ok
}

// closeWindows hands the windows the watermark closed (every open one
// when final) from the view to the sink, oldest first, one frame each.
func (j *Job) closeWindows(ctx context.Context, final bool) error {
	end := int64(math.MaxInt64)
	if !final {
		j.mu.Lock()
		wm, ok := j.watermarkLocked()
		j.mu.Unlock()
		if !ok {
			return nil
		}
		end = wm - int64(j.cfg.Lateness)
	}
	groups := j.cfg.View.Close(end)
	var frames []*schema.Frame
	row := make(schema.Row, 0, j.outSch.Len())
	for i := range groups {
		g := &groups[i]
		if i == 0 || g.Key.Ts != groups[i-1].Key.Ts {
			frames = append(frames, schema.NewFrame(j.outSch))
		}
		row = append(row[:0], schema.TimeNanos(g.Key.Ts))
		for _, d := range g.Key.Dims[:j.outSch.Len()-2] {
			row = append(row, schema.Str(d))
		}
		row = append(row, schema.Float(g.Cell.Value(j.cfg.View.Spec.Agg)))
		if err := frames[len(frames)-1].AppendRow(row); err != nil {
			return err
		}
	}
	j.mu.Lock()
	j.metrics.WindowsEmitted += int64(len(frames))
	j.mu.Unlock()
	j.cfg.Instr.WindowsEmitted.Add(int64(len(frames)))

	for _, f := range frames {
		if err := j.deliver(ctx, f); err != nil {
			return err
		}
	}
	return nil
}

// deliver applies MapBatch stages then the sink. The sink call runs
// through the circuit breaker (when configured) and the retry policy, in
// that nesting order: a retry that finds the breaker open fails fast and
// backs off instead of re-hammering the sink.
func (j *Job) deliver(ctx context.Context, f *schema.Frame) error {
	var err error
	for _, m := range j.maps {
		f, err = m(f)
		if err != nil {
			return fmt.Errorf("sproc: job %s map stage: %w", j.cfg.Name, err)
		}
	}
	if f.Len() == 0 {
		return nil
	}
	ctx, sp := obs.StartSpan(ctx, "silver.sink")
	defer sp.End()
	sp.Annotate("rows", "%d", f.Len())
	t0 := time.Now() // sink calls copy whole frames; one clock read is noise here
	sink := func() error { return j.sink(f) }
	if j.breaker != nil {
		inner := sink
		sink = func() error { return j.breaker.Do(inner) }
	}
	if err := j.loop.Retry(ctx, sink); err != nil {
		sp.SetErr(err)
		return fmt.Errorf("sproc: job %s sink: %w", j.cfg.Name, err)
	}
	j.mu.Lock()
	j.metrics.RowsOut += int64(f.Len())
	j.mu.Unlock()
	j.cfg.Instr.SinkLatency.Observe(time.Since(t0).Seconds())
	j.cfg.Instr.RowsOut.Add(int64(f.Len()))
	return nil
}

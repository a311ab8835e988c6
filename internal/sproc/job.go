package sproc

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"odakit/internal/obs"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/schema"
)

// JobConfig configures a streaming job.
type JobConfig struct {
	// Name identifies the job; the checkpoint file is named after it.
	Name string
	// Topic is the topic the job reads, from its oldest retained record
	// (or from its checkpoint).
	Topic string
	// InputSchema decodes record payloads (schema.EncodeRow bytes).
	InputSchema *schema.Schema
	// CheckpointDir enables recovery when non-empty: offsets, watermark,
	// and open-window state persist there after every sunk batch.
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

// WindowSpec declares event-time windowed aggregation: tumbling by
// default, sliding when Slide is set below Window.
type WindowSpec struct {
	// TimeCol is the event-time column (KindTime).
	TimeCol string
	// Window is the window width (e.g. 15s — the paper's Silver rollup).
	Window time.Duration
	// Slide is the hop between window starts; 0 (or == Window) gives
	// tumbling windows, smaller values give overlapping sliding windows
	// (each record lands in Window/Slide windows).
	Slide time.Duration
	// Lateness delays the watermark: a window closes only when the max
	// observed event time passes window end + Lateness. Records older
	// than an already-closed window are dropped and counted.
	Lateness time.Duration
	// Keys are the group-by dimensions (string columns).
	Keys []string
	// Aggs are the aggregations computed per (window, key group).
	Aggs []Agg
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

// Job is a micro-batch streaming pipeline: STREAM topic -> optional
// filter -> optional windowed aggregation -> optional batch transforms ->
// sink, with checkpoint-based recovery. Build it fluently, then Run or
// Drain it. The job is the plane.Operator of one plane.Loop, which reads,
// quarantines poison records, checkpoints and parks; a micro-batch is one
// pass of it. A Job is single-consumer; metrics reads are safe.
type Job struct {
	stream plane.Stream
	cfg    JobConfig

	pred   func(schema.Row) bool
	window *WindowSpec
	maps   []func(*schema.Frame) (*schema.Frame, error)
	sink   func(*schema.Frame) error

	mu      sync.Mutex
	metrics Metrics

	// window state: windowStart -> the groups of that window. The column
	// positions and the hop are resolved once, in start.
	winState map[int64]*groupTable
	plan     groupPlan
	tIdx     int
	slide    time.Duration
	// partWM tracks the max event time seen per broker partition; the
	// effective watermark is the minimum across partitions, so a fast
	// partition cannot close windows other partitions still feed. A
	// partition that never carried data is excluded from idleAt on.
	partWM map[int]int64
	nparts int
	// idleAt is partitionIdleTimeout after start: the one instant the
	// watermark can move without data. Zero once a flush at or after it
	// has run.
	idleAt  time.Time
	emitted int64 // latest emitted window start (nanos)

	loop     *plane.Loop // built by start; guarded by mu for Metrics
	mirrored Metrics     // what Instr has been given so far
	outSch   *schema.Schema
	breaker  *resilience.Breaker
}

// NewJob returns a job reading the configured topic of a data plane's
// STREAM.
func NewJob(s plane.Stream, cfg JobConfig) (*Job, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: job needs a name", ErrPlan)
	}
	if cfg.InputSchema == nil {
		return nil, fmt.Errorf("%w: job needs an input schema", ErrPlan)
	}
	if cfg.Instr == nil {
		cfg.Instr = NewInstruments(nil) // every instrument nil: each add a no-op
	}
	j := &Job{
		stream: s, cfg: cfg,
		winState: make(map[int64]*groupTable),
		partWM:   make(map[int]int64),
		emitted:  -1 << 62,
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

// Where installs a row filter applied before windowing.
func (j *Job) Where(pred func(schema.Row) bool) *Job {
	j.pred = pred
	return j
}

// Window installs tumbling-window aggregation.
func (j *Job) Window(spec WindowSpec) *Job {
	j.window = &spec
	return j
}

// MapBatch appends a whole-batch transform applied after windowing (e.g.
// a pivot into wide format).
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

// resolveWindow resolves the window spec against the input schema, once
// per incarnation: the time column, the group-by plan every record is
// folded by, and the output schema — window start, keys..., then agg
// columns.
func (j *Job) resolveWindow() error {
	spec, in := j.window, j.cfg.InputSchema
	if spec.TimeCol == "" || spec.Window <= 0 || len(spec.Aggs) == 0 {
		return fmt.Errorf("%w: incomplete window spec", ErrPlan)
	}
	if spec.Slide < 0 || spec.Slide > spec.Window {
		return fmt.Errorf("%w: slide must be in (0, window]", ErrPlan)
	}
	tIdx, ok := in.Index(spec.TimeCol)
	if !ok {
		return fmt.Errorf("%w: no time column %q", ErrPlan, spec.TimeCol)
	}
	plan, err := resolvePlan(in, spec.Keys, spec.Aggs)
	if err != nil {
		return err
	}
	j.tIdx, j.plan, j.slide = tIdx, plan, spec.Slide
	if j.slide == 0 {
		j.slide = spec.Window
	}
	j.outSch = schema.New(append([]schema.Field{{Name: "window", Kind: schema.KindTime}}, plan.fields...)...)
	return nil
}

// start resolves the plan and builds the job's loop, restoring from the
// checkpoint when there is one; a started job is not started again.
func (j *Job) start() error {
	if j.loop != nil {
		return nil
	}
	if j.sink == nil {
		return fmt.Errorf("%w: job %s has no sink", ErrPlan, j.cfg.Name)
	}
	if j.window != nil {
		if err := j.resolveWindow(); err != nil {
			return err
		}
		j.idleAt = time.Now().Add(partitionIdleTimeout)
	}
	cfg := plane.LoopConfig{
		Consumer: "sproc job " + j.cfg.Name, Topics: []string{j.cfg.Topic}, Schema: j.cfg.InputSchema,
		BatchSize: jobBatchSize, Retry: j.cfg.Retry, Deadline: func() time.Time { return j.idleAt },
		DeadLetters: j.cfg.Instr.DeadLettered, Retries: j.cfg.Instr.Retries,
	}
	if j.cfg.CheckpointDir != "" {
		cfg.Checkpoint = filepath.Join(j.cfg.CheckpointDir, j.cfg.Name+".ckpt.json")
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
		return j.checkpoint()
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
// cursor, then makes one pass over the topic's partitions. A windowed job
// that reaches its idle deadline parked flushes what that unblocked
// instead.
func (j *Job) step(ctx context.Context) error { return j.loop.Step(ctx) }

// checkpoint persists job state; a no-op without a checkpoint dir.
func (j *Job) checkpoint() error { return j.loop.Checkpoint() }

// Apply takes one partition's page (plane.Operator): a windowed job folds
// each row into its windows, an unwindowed one delivers the page.
func (j *Job) Apply(ctx context.Context, _ string, part int, rows []schema.Row) error {
	if j.window == nil {
		batch := schema.NewFrame(j.cfg.InputSchema)
		for _, row := range rows {
			if j.pred != nil && !j.pred(row) {
				continue
			}
			if err := batch.AppendRow(row); err != nil {
				return err
			}
		}
		if batch.Len() == 0 {
			return nil
		}
		return j.deliver(ctx, batch)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, row := range rows {
		// Every valid record advances its partition's watermark, even if
		// the filter later discards it.
		if !row[j.tIdx].IsNull() {
			if ev := row[j.tIdx].UnixNanos(); ev > j.partWM[part] {
				j.partWM[part] = ev
			}
		}
		if j.pred == nil || j.pred(row) {
			j.foldLocked(row)
		}
	}
	return nil
}

// Flush ends a micro-batch (plane.Operator): it mirrors the counters into
// the shared instruments (one add each per micro-batch, never per record)
// and emits the windows the watermark closed — every open window when
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
	return j.flushWindows(ctx, final)
}

// foldLocked folds one decoded, filtered row into every window it belongs
// to: those whose start lies in (ts - Window, ts], stepping by the slide —
// exactly one for tumbling windows. The caller holds j.mu.
func (j *Job) foldLocked(row schema.Row) {
	ts := row[j.tIdx]
	if ts.IsNull() {
		j.metrics.RecordsInvalid++
		return
	}
	latest := TumbleTime(ts.TimeVal(), j.slide).UnixNano()
	if latest <= j.emitted {
		j.metrics.RecordsLate++
		return
	}
	oldest := ts.UnixNanos() - int64(j.window.Window)
	for wStart := latest; wStart > oldest; wStart -= int64(j.slide) {
		if wStart <= j.emitted {
			break // older overlapping windows already closed
		}
		t, ok := j.winState[wStart]
		if !ok {
			t = newGroupTable(j.plan.keyIdx, len(j.plan.aggIdx))
			j.winState[wStart] = t
		}
		t.at(row).fold(row, j.plan.aggIdx)
	}
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
func (j *Job) watermarkLocked() (int64, bool) {
	if !j.idleAt.IsZero() && !time.Now().Before(j.idleAt) {
		j.idleAt = time.Time{}
	}
	first := true
	var wm int64
	for p := 0; p < j.nparts; p++ {
		v, seen := j.partWM[p]
		if !seen {
			if !j.idleAt.IsZero() {
				// Withhold the watermark rather than risk closing
				// windows this partition may still feed.
				return 0, false
			}
			continue // idle-excluded
		}
		if first || v < wm {
			wm = v
			first = false
		}
	}
	if first {
		return 0, false
	}
	return wm, true
}

// flushWindows emits closed windows (or all when force), oldest first.
func (j *Job) flushWindows(ctx context.Context, force bool) error {
	if j.window == nil {
		return nil
	}
	spec := j.window
	j.mu.Lock()
	wm, haveWM := j.watermarkLocked()
	horizon := wm - int64(spec.Lateness)
	var due []int64
	for wStart := range j.winState {
		wEnd := wStart + int64(spec.Window)
		if force || (haveWM && wEnd <= horizon) {
			due = append(due, wStart)
		}
	}
	slices.Sort(due)
	frames := make([]*schema.Frame, 0, len(due))
	for _, wStart := range due {
		f := schema.NewFrame(j.outSch)
		if err := emitGroups(f, j.winState[wStart].byKeyBytes(), j.plan.kinds, schema.TimeNanos(wStart)); err != nil {
			j.mu.Unlock()
			return err
		}
		frames = append(frames, f)
		delete(j.winState, wStart)
		if wStart > j.emitted {
			j.emitted = wStart
		}
		j.metrics.WindowsEmitted++
	}
	j.mu.Unlock()
	j.cfg.Instr.WindowsEmitted.Add(int64(len(due)))

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

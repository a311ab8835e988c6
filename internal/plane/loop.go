package plane

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"odakit/internal/atomicfile"
	"odakit/internal/obs"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/stream"
)

// Operator is one consumer's logic on a Loop — a cq.Pump's view engine.
// The loop calls it from its one goroutine.
type Operator interface {
	// Apply takes one partition's page: the rows that decoded to the
	// loop's schema, in offset order, valid during the call only. An error
	// leaves the cursor before the page, so it is read again.
	Apply(ctx context.Context, topic string, part int, rows []schema.Row) error
	// Flush ends a pass that read records or a park that reached its
	// deadline; final ends a Drain. A checkpoint follows.
	Flush(ctx context.Context, final bool) error
	// Snapshot serializes the state with the reader's offsets; Restore
	// rebuilds it and returns the offsets.
	Snapshot(offsets map[string][]int64) ([]byte, error)
	Restore(data []byte) (map[string][]int64, error)
}

// LoopConfig wires a Loop.
type LoopConfig struct {
	Consumer  string // names the consumer in errors and quarantine reasons
	Topics    []string
	Schema    *schema.Schema // rows handed to Apply conform to it
	BatchSize int            // records per partition per pass
	// Checkpoint is the checkpoint file; "" runs without one.
	Checkpoint string
	// Retry paces passes, DLQ publishes and Loop.Retry's callers through
	// transient faults.
	Retry resilience.Policy
	// Deadline, when set, bounds each park: reaching the instant it
	// returns (none when zero) flushes without new records.
	Deadline func() time.Time
	// Registry counters the loop adds to where it counts; each optional.
	DeadLetters, Checkpoints *obs.Counter
}

// LoopStats counts a loop's work since it was built.
type LoopStats struct {
	Polled      int64 // records read
	Applied     int64 // ... handed to Apply
	Bad         int64 // ... quarantined to their topic's DLQ (undecodable, off-schema or null)
	Retries     int64 // retries spent on transient faults
	Checkpoints int64
	Recovered   bool // the loop started from a checkpoint
}

// Loop is the one checkpointed STREAM consumer. A step parks the Reader
// until a commit lands behind a cursor (or the deadline passes), then
// makes one pass: each page is decoded, its poison quarantined and its
// rows applied before the cursor moves past it, so the operator's state
// and the offsets agree at every page boundary; a pass that read records
// ends in Flush and an atomic checkpoint. Exactly-once or at-least-once is
// the operator's contract: replaying the suffix past the last checkpoint
// must rebuild what a crash lost. Stats is safe while the loop runs.
type Loop struct {
	r         *Reader
	op        Operator
	cfg       LoopConfig
	dec       *Decoder
	recovered bool

	polled, applied, bad, retries, checkpoints atomic.Int64
}

// NewLoop opens a reader over the topics and, when the checkpoint file
// exists, sweeps its own torn temp file, restores the operator and seeks.
func NewLoop(s Stream, op Operator, cfg LoopConfig) (*Loop, error) {
	r, err := NewReader(s, cfg.Topics...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Consumer, err)
	}
	l := &Loop{r: r, op: op, cfg: cfg}
	l.dec = NewDecoder(s, cfg.Consumer, cfg.Schema, l.Retry)
	if cfg.Checkpoint == "" {
		return l, nil
	}
	// Only this loop's own torn write is swept: the directory may hold
	// other consumers' checkpoints, and one of them may be mid-write.
	if err := os.Remove(cfg.Checkpoint + atomicfile.TempSuffix); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	data, err := os.ReadFile(cfg.Checkpoint)
	if os.IsNotExist(err) {
		return l, nil
	}
	var offs map[string][]int64
	if err == nil {
		offs, err = op.Restore(data)
	}
	if err == nil {
		err = r.Seek(offs)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: checkpoint: %w", cfg.Consumer, err)
	}
	l.recovered = true
	return l, nil
}

// Stats snapshots the loop's counters.
func (l *Loop) Stats() LoopStats {
	return LoopStats{Polled: l.polled.Load(), Applied: l.applied.Load(), Bad: l.bad.Load(),
		Retries: l.retries.Load(), Checkpoints: l.checkpoints.Load(), Recovered: l.recovered}
}

// Run steps until ctx ends, and returns its error.
func (l *Loop) Run(ctx context.Context) error {
	for {
		if err := l.Step(ctx); err != nil {
			return err
		}
	}
}

// Drain steps until every cursor is at the committed end, then flushes
// the operator a last time and checkpoints.
func (l *Loop) Drain(ctx context.Context) error {
	for {
		lag, err := l.r.Lag()
		if err != nil && !resilience.IsTransient(err) {
			return fmt.Errorf("%s: lag: %w", l.cfg.Consumer, err)
		}
		if err == nil && lag == 0 {
			return l.flush(ctx, true)
		}
		if err := l.Step(ctx); err != nil {
			return err
		}
	}
}

// Step parks, then makes one pass, parking again while a pass reads
// nothing; a park that reaches the deadline flushes instead. A transient
// fetch fault retries the pass under the policy: the partitions that
// failed are read again, the others move on to their next page.
func (l *Loop) Step(ctx context.Context) error {
	for {
		idle, err := l.park(ctx)
		if err != nil {
			return err
		}
		if idle {
			return l.flush(ctx, false)
		}
		read := 0
		err = l.Retry(ctx, func() error {
			n, err := l.r.Poll(ctx, l.cfg.BatchSize, func(t string, p int, recs []stream.Record) error {
				rows, bad, err := l.dec.Decode(ctx, t, p, recs)
				if err == nil && len(rows) > 0 {
					err = l.op.Apply(ctx, t, p, rows)
				}
				if err == nil {
					l.applied.Add(int64(len(rows)))
					l.bad.Add(int64(bad))
					l.cfg.DeadLetters.Add(int64(bad))
				}
				return err
			})
			read += n
			l.polled.Add(int64(n))
			return err
		})
		if err != nil {
			return err
		}
		if read > 0 {
			return l.flush(ctx, false)
		}
	}
}

func (l *Loop) flush(ctx context.Context, final bool) error {
	if err := l.op.Flush(ctx, final); err != nil {
		return err
	}
	return l.Checkpoint()
}

// park waits for a commit behind a cursor, or reports idle at the
// deadline.
func (l *Loop) park(ctx context.Context) (idle bool, err error) {
	var at time.Time
	if l.cfg.Deadline != nil {
		at = l.cfg.Deadline()
	}
	if at.IsZero() {
		return false, l.r.Wait(ctx)
	}
	wctx, cancel := context.WithDeadline(ctx, at)
	defer cancel()
	err = l.r.Wait(wctx)
	if ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		return true, nil
	}
	return false, err
}

// Checkpoint writes the operator's snapshot at the reader's offsets
// atomically (write, fsync, rename); a no-op without a checkpoint file.
func (l *Loop) Checkpoint() error {
	path := l.cfg.Checkpoint
	if path == "" {
		return nil
	}
	data, err := l.op.Snapshot(l.r.Offsets())
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = atomicfile.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return fmt.Errorf("%s: checkpoint: %w", l.cfg.Consumer, err)
	}
	l.checkpoints.Add(1)
	l.cfg.Checkpoints.Inc()
	return nil
}

// Retry runs fn under the loop's policy, counting each retry and noting
// it on ctx's span. An operator runs its own transient calls through it.
func (l *Loop) Retry(ctx context.Context, fn func() error) error {
	p := l.cfg.Retry
	user := p.OnRetry
	p.OnRetry = func(attempt int, err error, delay time.Duration) {
		l.retries.Add(1)
		obs.SpanFromContext(ctx).Annotate("retry", "%s attempt %d: %v", l.cfg.Consumer, attempt, err)
		if user != nil {
			user(attempt, err, delay)
		}
	}
	return resilience.Retry(ctx, p, fn)
}

// Decoder is the decode-or-quarantine step every consumer runs a page
// through: a Loop's, and the bronze replay's. Its scratch — a value arena,
// the rows over it, an interner for the dimension vocabulary — is reused
// page to page, so a steady stream decodes with no allocation per record.
type Decoder struct {
	s        Stream
	consumer string
	schema   *schema.Schema
	retry    func(context.Context, func() error) error
	intern   *schema.Interner
	vals     []schema.Value
	rows     []schema.Row
}

// NewDecoder returns a decoder of sch rows that quarantines on s under
// retry, naming consumer.
func NewDecoder(s Stream, consumer string, sch *schema.Schema, retry func(context.Context, func() error) error) *Decoder {
	return &Decoder{s: s, consumer: consumer, schema: sch, retry: retry, intern: schema.NewInterner()}
}

// Decode returns one partition's page as rows conforming to the schema,
// with no null field, valid until the next call, once the bad records
// that are not are in "<topic>.dlq" with their topic, partition, offset
// and a reason naming the consumer. A null is bad because every consumer
// reads every field of a record: a fold has no bucket for a null time
// and no value for a null measure. When the publish fails it returns the
// error and no rows.
func (d *Decoder) Decode(ctx context.Context, topic string, part int, recs []stream.Record) (rows []schema.Row, bad int, err error) {
	width := d.schema.Len()
	if need := len(recs) * width; cap(d.vals) < need {
		d.vals = make([]schema.Value, need)
	}
	rows, off := d.rows[:0], 0
	var dead []DeadRecord
	for i := range recs {
		r := &recs[i]
		row, _, err := schema.DecodeRowTo(d.vals[off:off], r.Value, d.intern) // in place when it conforms
		if err == nil {
			err = row.Conforms(d.schema)
		}
		for f := 0; err == nil && f < len(row); f++ {
			if row[f].IsNull() {
				err = fmt.Errorf("field %q is null", d.schema.Field(f).Name)
			}
		}
		if err != nil {
			dead = append(dead, DeadRecord{Topic: topic, Partition: part, Offset: r.Offset, Ts: r.Ts, Payload: r.Value,
				Reason: fmt.Sprintf("%s: %s/%d@%d: %v", d.consumer, topic, part, r.Offset, err)})
			continue
		}
		rows = append(rows, row[:width:width])
		off += width
	}
	d.rows = rows
	if len(dead) == 0 {
		return rows, 0, nil
	}
	if err := d.retry(ctx, func() error { return DeadLetter(d.s, topic, dead) }); err != nil {
		return nil, 0, err
	}
	obs.SpanFromContext(ctx).Annotate("dlq", "%s: %d poison records quarantined", d.consumer, len(dead))
	return rows, len(dead), nil
}

package cq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"odakit/internal/atomicfile"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/stream"
)

// PumpConfig wires a Pump to its source.
type PumpConfig struct {
	// Name names the checkpoint file (default "cq").
	Name string
	// Topics are the bronze topics to drain. Fold order is topic-name
	// ascending, matching ReplayBronzeToLake's replay order.
	Topics []string
	// BatchSize caps records per poll (default 512).
	BatchSize int
	// CheckpointDir enables crash consistency; "" disables it.
	CheckpointDir string
	// CheckpointEvery checkpoints after every N applied batches
	// (default 1 — checkpoint after every batch, exactly-once with the
	// tightest replay suffix).
	CheckpointEvery int
}

func (c PumpConfig) withDefaults() PumpConfig {
	if c.Name == "" {
		c.Name = "cq"
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	return c
}

// PumpMetrics counts a pump's lifetime work.
type PumpMetrics struct {
	Polled      int64 // records polled
	Applied     int64 // records decoded and fanned out
	Bad         int64 // records dropped (decode/schema failure)
	Checkpoints int64
	Recovered   bool // restore found a checkpoint
}

// Pump drains bronze topics into an Engine, checkpointing offsets and
// view state atomically. One Pump owns its engine's apply path; do not
// run two pumps against the same engine.
type Pump struct {
	engine *Engine
	reader *plane.Reader
	cfg    PumpConfig

	// Decode scratch: one reused row and an interner for the dimension
	// vocabulary, so the drain loop's per-record decode is allocation-
	// free at steady state and ingest never stalls on pump-driven GC.
	decRow  schema.Row
	intern  *schema.Interner
	scratch []schema.Observation

	sinceCkpt int
	metrics   PumpMetrics
}

// NewPumpSource wires a pump to a data plane's STREAM and restores from
// the checkpoint when one exists: specs are re-registered, view state is
// rebuilt cell-for-cell, and cursors seek to the checkpointed offsets. On
// a cluster the pump reads only the quorum-committed prefix (EndOffset is
// the high watermark), so resuming from a checkpoint on a promoted leader
// can neither duplicate nor lose applies.
func NewPumpSource(engine *Engine, src plane.Stream, cfg PumpConfig) (*Pump, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Topics) == 0 {
		return nil, fmt.Errorf("cq: pump needs at least one topic")
	}
	reader, err := plane.NewReader(src, cfg.Topics...)
	if err != nil {
		return nil, fmt.Errorf("cq: %w", err)
	}
	p := &Pump{engine: engine, reader: reader, cfg: cfg, intern: schema.NewInterner()}
	if err := p.restore(); err != nil {
		return nil, err
	}
	return p, nil
}

// Metrics snapshots the pump's counters. Not synchronized with a
// running Run loop; call between steps or after Drain.
func (p *Pump) Metrics() PumpMetrics { return p.metrics }

// step polls every topic partition once and applies what arrived,
// preserving per-partition record order, then checkpoints if it applied
// anything. A transient source error (a fetch mid-failover, an injected
// fault) comes back after the checkpoint: the reader skipped that
// partition without moving its cursor, so the next pass resumes exactly
// where this one left off.
func (p *Pump) step(ctx context.Context) error {
	total, err := p.reader.Poll(ctx, p.cfg.BatchSize, func(t string, part int, recs []stream.Record) error {
		p.metrics.Polled += int64(len(recs))
		p.applyRecords(t, part, recs)
		return nil
	})
	if err != nil && !resilience.IsTransient(err) {
		return fmt.Errorf("cq: poll: %w", err)
	}
	if total > 0 {
		p.sinceCkpt++
		if p.sinceCkpt >= p.cfg.CheckpointEvery {
			if cerr := p.Checkpoint(); cerr != nil {
				return cerr
			}
		}
	}
	return err
}

// applyRecords decodes one partition's page (in offset order) and fans
// it out to the engine.
func (p *Pump) applyRecords(topic string, part int, recs []stream.Record) {
	run := p.scratch[:0]
	for i := range recs {
		r := &recs[i]
		// Alloc-free decode: the row scratch is reused record to record
		// and dimension strings come interned, so draining a saturated
		// broker does not generate GC pressure that would throttle the
		// producers publishing to it.
		row, _, err := schema.DecodeRowTo(p.decRow, r.Value, p.intern)
		if err == nil {
			err = row.Conforms(schema.ObservationSchema)
		}
		if err != nil {
			p.metrics.Bad++
			continue
		}
		p.decRow = row[:0]
		run = append(run, schema.ObservationFromRow(row))
	}
	if len(run) > 0 {
		p.engine.Apply(topic, part, run)
		p.metrics.Applied += int64(len(run))
	}
	p.scratch = run[:0]
}

// skipBackoff paces the passes a transiently unreadable partition forces.
// Its committed records are what Wait waits for, so the pass is retried
// rather than parked, with every other partition read on each attempt.
var skipBackoff = resilience.Policy{MaxAttempts: math.MaxInt, MaxDelay: 10 * time.Millisecond}

// Run pumps until ctx is done, parked between passes until a commit lands.
func (p *Pump) Run(ctx context.Context) error { return p.run(ctx, false) }

// Drain pumps until every topic's lag is zero, then checkpoints. Tests
// and benchmarks use it to reach a known-synchronized state.
func (p *Pump) Drain(ctx context.Context) error { return p.run(ctx, true) }

// run is Run and Drain: a pass, then a park until the next commit — for
// Drain, unless nothing is left to read.
func (p *Pump) run(ctx context.Context, drain bool) error {
	for {
		if err := resilience.Retry(ctx, skipBackoff, func() error { return p.step(ctx) }); err != nil {
			return err
		}
		if drain {
			lag, err := p.reader.Lag()
			if err != nil && !resilience.IsTransient(err) {
				return fmt.Errorf("cq: lag: %w", err)
			}
			if err == nil && lag == 0 {
				return p.Checkpoint()
			}
		}
		if err := p.reader.Wait(ctx); err != nil {
			return err
		}
	}
}

func (p *Pump) checkpointPath() string {
	return filepath.Join(p.cfg.CheckpointDir, p.cfg.Name+".ckpt.json")
}

// Checkpoint atomically persists cursor offsets plus every view's full
// state. A no-op without a checkpoint dir.
func (p *Pump) Checkpoint() error {
	p.sinceCkpt = 0
	if p.cfg.CheckpointDir == "" {
		return nil
	}
	ck := ckptFile{Name: p.cfg.Name, Offsets: p.reader.Offsets()}
	for _, v := range p.engine.Views() {
		ck.Views = append(ck.Views, v.snapshot())
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("cq: checkpoint marshal: %w", err)
	}
	if err := os.MkdirAll(p.cfg.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("cq: checkpoint dir: %w", err)
	}
	if err := atomicfile.WriteFile(p.checkpointPath(), data, 0o644); err != nil {
		return fmt.Errorf("cq: checkpoint write: %w", err)
	}
	p.metrics.Checkpoints++
	p.engine.mCheckpoints.Inc()
	return nil
}

// restore loads the checkpoint if present: torn temp files are swept,
// specs re-registered, cell state rebuilt in insertion order, and
// cursors sought to the saved offsets so the un-checkpointed suffix
// replays into pre-suffix state.
func (p *Pump) restore() error {
	if p.cfg.CheckpointDir == "" {
		return nil
	}
	if _, err := atomicfile.CleanTemps(p.cfg.CheckpointDir); err != nil && !os.IsNotExist(errors.Unwrap(err)) {
		return err
	}
	data, err := os.ReadFile(p.checkpointPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cq: checkpoint read: %w", err)
	}
	var ck ckptFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return fmt.Errorf("cq: checkpoint parse: %w", err)
	}
	for _, cv := range ck.Views {
		v, err := p.engine.Register(cv.Spec.spec())
		if err != nil {
			return fmt.Errorf("cq: checkpoint spec %s: %w", cv.ID, err)
		}
		if v.ID != cv.ID {
			return fmt.Errorf("cq: checkpoint view %s re-registered as %s", cv.ID, v.ID)
		}
		if err := v.restoreInto(cv); err != nil {
			return err
		}
		v.bump()
	}
	if err := p.reader.Seek(ck.Offsets); err != nil {
		return fmt.Errorf("cq: checkpoint seek: %w", err)
	}
	p.metrics.Recovered = true
	return nil
}

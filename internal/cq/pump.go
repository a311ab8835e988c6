package cq

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/schema"
)

// PumpConfig wires a Pump to its source.
type PumpConfig struct {
	// Topics are the bronze topics to drain. Fold order is topic-name
	// ascending, matching ReplayBronzeToLake's replay order.
	Topics []string
	// BatchSize caps records per poll (default 512).
	BatchSize int
	// CheckpointDir enables crash consistency; "" disables it. The pump
	// checkpoints to cq.ckpt.json there after every pass that read records.
	CheckpointDir string
}

func (c PumpConfig) withDefaults() PumpConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	return c
}

// PumpMetrics counts a pump's lifetime work: its loop's counters.
type PumpMetrics = plane.LoopStats

// Pump drains bronze topics into an Engine: the view engine is the
// plane.Operator of the plane.Loop it embeds (Run, Drain, Checkpoint),
// which reads, quarantines poison records, checkpoints and parks. Its
// contract is exactly-once: records are applied strictly before the
// checkpoint that covers them, and a restore rebuilds the views cell for
// cell at the checkpointed offsets, so the replayed suffix lands in
// pre-suffix state. One Pump owns its engine's apply path; do not run two
// pumps against the same engine.
type Pump struct {
	*plane.Loop
	engine *Engine
	path   string // the checkpoint file; "" without one
}

// skipBackoff paces the passes a transiently unreadable partition forces.
// Its committed records are what a park waits for, so the pass is retried
// rather than parked, with every other partition read on each attempt.
var skipBackoff = resilience.Policy{MaxAttempts: math.MaxInt, MaxDelay: 10 * time.Millisecond}

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
	p := &Pump{engine: engine}
	lcfg := plane.LoopConfig{
		Consumer: "cq pump cq", Topics: cfg.Topics, Schema: schema.ObservationSchema,
		BatchSize: cfg.BatchSize, Retry: skipBackoff,
		DeadLetters: engine.mDeadLetters, Checkpoints: engine.mCheckpoints,
	}
	if cfg.CheckpointDir != "" {
		lcfg.Checkpoint = filepath.Join(cfg.CheckpointDir, "cq.ckpt.json")
		p.path = lcfg.Checkpoint
	}
	var err error
	if p.Loop, err = plane.NewLoop(src, p, lcfg); err != nil {
		return nil, err
	}
	return p, nil
}

// Metrics snapshots the pump's counters; safe while Run is running.
func (p *Pump) Metrics() PumpMetrics { return p.Stats() }

// Apply fans one partition's page out to the engine (plane.Operator).
// The views fold the decoded rows themselves, their strings interned by
// the decoder, so draining a saturated broker makes no GC pressure that
// would throttle producers.
func (p *Pump) Apply(_ context.Context, topic string, part int, rows []schema.Row) error {
	p.engine.Apply(topic, part, rows)
	return nil
}

// Flush is a no-op (plane.Operator): every Apply leaves the views current.
func (p *Pump) Flush(context.Context, bool) error { return nil }

// Snapshot serializes the offsets and every view's state (plane.Operator).
func (p *Pump) Snapshot(offsets map[string][]int64) ([]byte, error) {
	ck := ckptFile{Format: ckptFormat, Offsets: offsets}
	for _, v := range p.engine.Views() {
		ck.Views = append(ck.Views, v.snapshot())
	}
	return json.Marshal(ck)
}

// Restore re-registers the checkpointed specs and rebuilds each view's
// cells in insertion order (plane.Operator). It is all-or-nothing: when a
// view is refused, the views it registered are unregistered again and a
// view registered before it stays registered, empty.
func (p *Pump) Restore(data []byte) (map[string][]int64, error) {
	var ck ckptFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("cq: checkpoint %s: parse: %w", p.path, err)
	}
	if ck.Format != ckptFormat {
		return nil, fmt.Errorf("cq: checkpoint %s is format %d, this build reads format %d: delete it to rebuild the views from the stream",
			p.path, ck.Format, ckptFormat)
	}
	had := make(map[string]bool)
	for _, v := range p.engine.Views() {
		had[v.ID] = true
	}
	var restored []*View
	undo := func(err error) (map[string][]int64, error) {
		for _, v := range restored {
			v.reset()
		}
		for _, v := range p.engine.Views() {
			if !had[v.ID] {
				p.engine.Unregister(v.ID)
			}
		}
		return nil, err
	}
	for _, cv := range ck.Views {
		v, err := p.engine.Register(cv.Spec)
		if err != nil {
			return undo(fmt.Errorf("cq: checkpoint spec %s: %w", cv.ID, err))
		}
		if v.ID != cv.ID {
			return undo(fmt.Errorf("cq: checkpoint view %s re-registered as %s", cv.ID, v.ID))
		}
		if err := v.restoreInto(cv); err != nil {
			return undo(err)
		}
		restored = append(restored, v)
		v.bump()
	}
	return ck.Offsets, nil
}

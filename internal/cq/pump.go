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
	"odakit/internal/tsdb"
)

// PumpConfig wires a Pump to its source.
type PumpConfig struct {
	// Name names the pump in its dead letters' reasons ("cq pump <Name>")
	// and its checkpoint file (default "cq").
	Name string
	// Topics are the bronze topics to drain. Fold order is topic-name
	// ascending, matching ReplayBronzeToLake's replay order.
	Topics []string
	// BatchSize caps records per poll (default 512).
	BatchSize int
	// CheckpointDir enables crash consistency; "" disables it. The pump
	// checkpoints to <Name>.ckpt.json there after every pass that read
	// records.
	CheckpointDir string
}

func (c PumpConfig) withDefaults() PumpConfig {
	if c.Name == "" {
		c.Name = "cq"
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	return c
}

// Pump drains bronze topics into an Engine: the view engine is the
// plane.Operator of the plane.Loop it embeds (Run, Drain, Checkpoint),
// which reads, quarantines poison records, checkpoints and parks. Its
// contract is exactly-once: records are applied strictly before the
// checkpoint that covers them, and a restore rebuilds the views cell for
// cell at the checkpointed offsets, so the replayed suffix lands in
// pre-suffix state. One Pump owns its engine's apply path; do not run two
// pumps against the same engine.
//
// When the engine holds views with a sink (View.SetSink), the pump also
// keeps an event-time watermark per (topic, partition) and ends every
// pass by handing each sink what its view's Close closes; the watermarks
// go into the checkpoint with the offsets.
type Pump struct {
	*plane.Loop
	engine *Engine
	path   string // the checkpoint file; "" without one

	sinks []*View // the engine's views with a sink; none: no watermark
	// wm holds each topic's per-partition maximum event time,
	// minWatermark for a partition that has carried no data.
	wm map[string][]int64
	// idleAt is the one instant the watermark can move without data;
	// zero once a flush at or after it has run.
	idleAt time.Time
}

// partitionIdleTimeout is how long after it is built a sink pump waits
// for a partition to carry data before leaving it out of the watermark,
// so a partition nothing is published to cannot hold every window open.
const partitionIdleTimeout = 500 * time.Millisecond

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
		Consumer: "cq pump " + cfg.Name, Topics: cfg.Topics, Schema: schema.ObservationSchema,
		BatchSize: cfg.BatchSize, Retry: skipBackoff,
		DeadLetters: engine.mDeadLetters, Checkpoints: engine.mCheckpoints,
	}
	if cfg.CheckpointDir != "" {
		lcfg.Checkpoint = filepath.Join(cfg.CheckpointDir, cfg.Name+".ckpt.json")
		p.path = lcfg.Checkpoint
	}
	for _, v := range engine.Views() {
		if v.sink != nil {
			p.sinks = append(p.sinks, v)
		}
	}
	if len(p.sinks) > 0 {
		p.wm = make(map[string][]int64, len(cfg.Topics))
		for _, t := range cfg.Topics {
			n, err := src.Partitions(t)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", lcfg.Consumer, err)
			}
			p.wm[t] = make([]int64, n)
			for i := range p.wm[t] {
				p.wm[t][i] = minWatermark
			}
		}
		p.idleAt = time.Now().Add(partitionIdleTimeout)
		lcfg.Deadline = func() time.Time { return p.idleAt }
	}
	var err error
	if p.Loop, err = plane.NewLoop(src, p, lcfg); err != nil {
		return nil, err
	}
	return p, nil
}

// Apply fans one partition's page out to the engine (plane.Operator).
// The views fold the decoded rows themselves, their strings interned by
// the decoder, so draining a saturated broker makes no GC pressure that
// would throttle producers.
func (p *Pump) Apply(_ context.Context, topic string, part int, rows []schema.Row) error {
	p.engine.Apply(topic, part, rows)
	if p.wm != nil {
		w := &p.wm[topic][part]
		for _, row := range rows {
			if ts := row[0].UnixNanos(); ts > *w { // ObservationSchema's ts
				*w = ts
			}
		}
	}
	return nil
}

// Flush ends a pass (plane.Operator): each sink view's Close hands its
// sink the windows the watermark, less the view's lateness, closed —
// every open window when final. Without a sink view it is a no-op: every
// Apply leaves the views current.
func (p *Pump) Flush(ctx context.Context, final bool) error {
	if len(p.sinks) == 0 {
		return nil
	}
	wm, ok := p.watermark()
	for _, v := range p.sinks {
		var groups []tsdb.Group
		switch {
		case final:
			groups = v.Close(math.MaxInt64)
		case ok:
			groups = v.Close(wm - v.lateness)
		}
		if err := v.sink(ctx, groups); err != nil {
			return err
		}
	}
	return nil
}

// watermark returns the event time the sinks may close up to: the
// minimum over partitions of the maximum each carried. Until idleAt a
// partition that has carried no data withholds it; from then on it is
// left out.
func (p *Pump) watermark() (wm int64, ok bool) {
	if !p.idleAt.IsZero() && !time.Now().Before(p.idleAt) {
		p.idleAt = time.Time{}
	}
	for _, parts := range p.wm {
		for _, v := range parts {
			switch {
			case v == minWatermark && !p.idleAt.IsZero():
				return 0, false
			case v != minWatermark && (!ok || v < wm):
				wm, ok = v, true
			}
		}
	}
	return wm, ok
}

// Snapshot serializes the offsets, the watermarks of a pump with sinks
// and every view's state (plane.Operator).
func (p *Pump) Snapshot(offsets map[string][]int64) ([]byte, error) {
	ck := ckptFile{Format: ckptFormat, Offsets: offsets, Watermarks: p.wm}
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
	// The format is read first: another format's fields need not parse
	// as this one's.
	var ck ckptFile
	var head struct{ Format int }
	err := json.Unmarshal(data, &head)
	if err == nil && head.Format != ckptFormat {
		return nil, fmt.Errorf("cq: checkpoint %s is format %d, this build reads format %d: delete it to rebuild the views from the stream",
			p.path, head.Format, ckptFormat)
	}
	if err == nil {
		err = json.Unmarshal(data, &ck)
	}
	if err != nil {
		return nil, fmt.Errorf("cq: checkpoint %s: parse: %w", p.path, err)
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
	for t, parts := range ck.Watermarks {
		copy(p.wm[t], parts)
	}
	return ck.Offsets, nil
}

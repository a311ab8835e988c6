package cq

import (
	"fmt"
	"math"
	"slices"

	"odakit/internal/columnar"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// Checkpoint layer: the pump's loop persists consumer offsets and full
// view state (Pump.Snapshot) in ONE atomic file, and applies records
// strictly before checkpointing. A crash between apply and checkpoint
// restores the pre-suffix state and replays the suffix into it —
// exactly-once for the views; a view's close sink is at-least-once, as
// its windows sunk after the last checkpoint are sunk again.
//
// A view's cells are stored in the one serialized form of rollup cells:
// each (topic, partition) slice is one ColdSchema OCF blob
// (tsdb.CellExport, columnar.Encode) in fold order, and a restore lands it
// through tsdb.LoadCells, which checks every row. The JSON envelope
// carries the format version, the spec, offsets, watermark, counters and
// alert state. A registered spec's floats are finite (Spec.validate), so
// JSON round-trips them exactly; float bits (uint64) remain only for the
// data-derived alert state — detector state, history and each retained
// alert's value and score — which may be NaN or ±Inf: json.Marshal
// rejects those outright.

// ckptFormat is the checkpoint format this build writes and reads. Format
// 2 stored a retained alert's value and score as JSON numbers; the format
// before it (no version field) stored cells as JSON.
const ckptFormat = 3

// ckptSlice is one (topic, partition) slice of a view's cells.
type ckptSlice struct {
	Topic string `json:"topic"`
	Part  int    `json:"part"`
	Cells []byte `json:"cells"` // ColdSchema OCF, fold order
}

type ckptGroupScore struct {
	Dims []string                `json:"dims"`
	Det  telemetry.DetectorState `json:"det"`
	Hist []uint64                `json:"hist,omitempty"` // float bits
}

// ckptAlert is one retained alert with its value and score as float
// bits; they shadow the embedded Alert's fields of the same JSON name.
type ckptAlert struct {
	Alert
	Value uint64 `json:"value"`
	Score uint64 `json:"score"`
}

type ckptAlerts struct {
	Scored int64            `json:"scored"`
	Groups []ckptGroupScore `json:"groups,omitempty"`
	Ring   []ckptAlert      `json:"ring,omitempty"`
	Total  int64            `json:"total"`
}

type ckptView struct {
	ID            string      `json:"id"`
	Spec          Spec        `json:"spec"`
	Watermark     int64       `json:"watermark"`
	EvictedBefore int64       `json:"evicted_before"`
	Applied       int64       `json:"applied"`
	Late          int64       `json:"late"`
	Slices        []ckptSlice `json:"slices,omitempty"`
	Alerts        *ckptAlerts `json:"alerts,omitempty"`
}

type ckptFile struct {
	Format  int                `json:"format"`
	Offsets map[string][]int64 `json:"offsets"` // topic -> per-partition cursors
	Views   []ckptView         `json:"views"`
	// Watermarks are a sink pump's per-partition event-time maxima (as
	// Pump.wm); a pump with no sink view writes none.
	Watermarks map[string][]int64 `json:"watermarks,omitempty"`
}

// snapshot captures the view's full state under its lock.
func (v *View) snapshot() ckptView {
	v.mu.Lock()
	defer v.mu.Unlock()
	cv := ckptView{
		ID: v.ID, Spec: v.Spec,
		Watermark: v.watermark, EvictedBefore: v.evictedBefore,
		Applied: v.applied, Late: v.late,
	}
	type stripeTable struct {
		stripe int
		ct     *tsdb.CellTable
	}
	// Deterministic file bytes: slices in (topic, partition) order — v.tps
	// is kept sorted — each in fold order, sized before it is written.
	for _, tp := range v.tps {
		var tables []stripeTable
		n := 0
		for s := range v.stripes {
			for _, start := range tsdb.SortedChunks(v.stripes[s]) {
				if ct := v.stripes[s][start][tp]; ct != nil {
					tables = append(tables, stripeTable{s, ct})
					n += ct.Len()
				}
			}
		}
		var e tsdb.CellExport
		e.Grow(n)
		for _, t := range tables {
			e.Add(t.stripe, t.ct)
		}
		f, err := e.Frame()
		var data []byte
		if err == nil && f.Len() > 0 {
			data, err = columnar.Encode(f, columnar.WriterOptions{})
		}
		if err != nil {
			panic(err) // ColdSchema's own columns, encoded into memory: unreachable
		}
		if data != nil {
			cv.Slices = append(cv.Slices, ckptSlice{Topic: tp.topic, Part: tp.part, Cells: data})
		}
	}
	if v.alerts != nil {
		cv.Alerts = v.alerts.snapshot()
	}
	return cv
}

func (a *alertState) snapshot() *ckptAlerts {
	a.mu.Lock()
	defer a.mu.Unlock()
	ca := &ckptAlerts{Scored: a.scored, Total: a.total}
	for _, al := range a.ring {
		ca.Ring = append(ca.Ring, ckptAlert{Alert: al, Value: math.Float64bits(al.Value), Score: math.Float64bits(al.Score)})
	}
	dimKeys := make([][4]string, 0, len(a.groups))
	for d := range a.groups {
		dimKeys = append(dimKeys, d)
	}
	slices.SortFunc(dimKeys, func(x, y [4]string) int { return slices.Compare(x[:], y[:]) })
	for _, d := range dimKeys {
		gs := a.groups[d]
		cg := ckptGroupScore{Dims: d[:], Det: gs.det.State()}
		for _, h := range gs.hist {
			cg.Hist = append(cg.Hist, math.Float64bits(h))
		}
		ca.Groups = append(ca.Groups, cg)
	}
	return ca
}

// restoreInto rebuilds the view's state from a snapshot. The view must
// be freshly registered (empty). Each slice lands through
// tsdb.LoadCells into fresh tables, in its checkpointed fold order, so
// the restored fold is byte-identical; a slice it refuses is an error
// naming the view and the partition, and leaves the view empty.
func (v *View) restoreInto(cv ckptView) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.applied != 0 {
		return fmt.Errorf("cq: restore into non-empty view %s", v.ID)
	}
	for _, sl := range cv.Slices {
		tp := topicPart{topic: sl.Topic, part: sl.Part}
		f, err := columnar.ReadAll(sl.Cells)
		if err == nil {
			err = tsdb.LoadCells(f, v.geom, true, func(stripe int, chunkN, _ int64) *tsdb.CellTable {
				return v.tableLocked(stripe, chunkN, tp)
			})
		}
		if err != nil {
			v.resetLocked()
			return fmt.Errorf("cq: checkpoint of view %s, partition %s/%d: %w", v.ID, sl.Topic, sl.Part, err)
		}
	}
	v.watermark = cv.Watermark
	v.evictedBefore = cv.EvictedBefore
	v.applied, v.late = cv.Applied, cv.Late
	if cv.Alerts != nil && v.alerts != nil {
		v.alerts.restore(cv.Alerts)
	}
	return nil
}

// reset empties the view, as a refused restore leaves it.
func (v *View) reset() {
	v.mu.Lock()
	v.resetLocked()
	v.mu.Unlock()
	v.bump()
}

// restore rebuilds scoring state. The detector restores exactly; a
// Holt-Winters forecaster is refit from the retained history on the
// next closed bucket rather than serialized — an approximation that can
// shift post-restart anomaly scores slightly but never view frames.
func (a *alertState) restore(ca *ckptAlerts) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.scored, a.total = ca.Scored, ca.Total
	a.ring = a.ring[:0]
	for _, c := range ca.Ring {
		al := c.Alert
		al.Value, al.Score = math.Float64frombits(c.Value), math.Float64frombits(c.Score)
		a.ring = append(a.ring, al)
	}
	clear(a.groups)
	for _, cg := range ca.Groups {
		var d [4]string
		copy(d[:], cg.Dims)
		gs := &groupScore{det: telemetry.RestoreDetector(cg.Det)}
		for _, h := range cg.Hist {
			gs.hist = append(gs.hist, math.Float64frombits(h))
		}
		a.groups[d] = gs
	}
}

package cq

import (
	"fmt"
	"math"
	"sort"
	"time"

	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// Checkpoint layer: the pump's loop persists consumer offsets and full
// view state (Pump.Snapshot) in ONE atomic file, and applies records
// strictly before checkpointing. A crash between apply and checkpoint restores the
// pre-suffix state and replays the suffix into it — exactly-once, the
// stronger sibling of sproc's at-least-once (sproc can afford replays
// because its sinks are idempotent; a view cell's add() is not).
//
// All data-derived floats are serialized as IEEE-754 bit patterns
// (uint64): json.Marshal rejects NaN/Inf outright, and bits round-trip
// exactly where decimal formatting of a float might not, which the
// byte-identical equivalence guarantee cannot tolerate.

type ckptCell struct {
	Ts     int64  `json:"t"`
	System string `json:"sy"`
	Source string `json:"so"`
	Comp   string `json:"c"`
	Metric string `json:"m"`
	Count  int64  `json:"n"`
	Sum    uint64 `json:"s"`
	Min    uint64 `json:"mn"`
	Max    uint64 `json:"mx"`
	LastTs int64  `json:"lt"`
	Last   uint64 `json:"l"`
}

type ckptChunk struct {
	Start int64      `json:"start"`
	Cells []ckptCell `json:"cells"` // insertion order — the fold depends on it
}

type ckptPart struct {
	Stripe int         `json:"stripe"`
	Topic  string      `json:"topic"`
	Part   int         `json:"part"`
	Chunks []ckptChunk `json:"chunks"`
}

type ckptGroupScore struct {
	Dims []string                `json:"dims"`
	Det  telemetry.DetectorState `json:"det"`
	Hist []uint64                `json:"hist,omitempty"` // float bits
}

type ckptAlerts struct {
	Scored int64            `json:"scored"`
	Groups []ckptGroupScore `json:"groups,omitempty"`
	Ring   []Alert          `json:"ring,omitempty"`
	Total  int64            `json:"total"`
}

type ckptSpec struct {
	Name        string              `json:"name,omitempty"`
	Filters     map[string][]string `json:"filters,omitempty"`
	GroupBy     []string            `json:"group_by,omitempty"`
	Granularity int64               `json:"granularity"`
	Agg         int                 `json:"agg"`
	Window      int64               `json:"window"`
	Kind        int                 `json:"kind"`
	Above       *uint64             `json:"above,omitempty"` // float bits
	Below       *uint64             `json:"below,omitempty"`
	MaxScore    uint64              `json:"max_score,omitempty"`
	Season      int                 `json:"season,omitempty"`
}

type ckptView struct {
	ID            string      `json:"id"`
	Spec          ckptSpec    `json:"spec"`
	Watermark     int64       `json:"watermark"`
	EvictedBefore int64       `json:"evicted_before"`
	Applied       int64       `json:"applied"`
	Late          int64       `json:"late"`
	Parts         []ckptPart  `json:"parts,omitempty"`
	Alerts        *ckptAlerts `json:"alerts,omitempty"`
}

type ckptFile struct {
	Name    string             `json:"name"`
	Offsets map[string][]int64 `json:"offsets"` // topic -> per-partition cursors
	Views   []ckptView         `json:"views"`
}

func specToCkpt(s Spec) ckptSpec {
	cs := ckptSpec{
		Name: s.Name, Filters: s.Filters, GroupBy: s.GroupBy,
		Granularity: int64(s.Granularity), Agg: int(s.Agg),
		Window: int64(s.Window), Kind: int(s.Kind),
	}
	if a := s.Alert; a != nil {
		if a.Above != nil {
			b := math.Float64bits(*a.Above)
			cs.Above = &b
		}
		if a.Below != nil {
			b := math.Float64bits(*a.Below)
			cs.Below = &b
		}
		cs.MaxScore = math.Float64bits(a.MaxScore)
		cs.Season = a.Season
	}
	return cs
}

func (cs ckptSpec) spec() Spec {
	s := Spec{
		Name: cs.Name, Filters: cs.Filters, GroupBy: cs.GroupBy,
		Granularity: time.Duration(cs.Granularity), Agg: tsdb.AggKind(cs.Agg),
		Window: time.Duration(cs.Window), Kind: WindowKind(cs.Kind),
	}
	if cs.Above != nil || cs.Below != nil || cs.MaxScore != 0 || cs.Season != 0 {
		a := &AlertSpec{MaxScore: math.Float64frombits(cs.MaxScore), Season: cs.Season}
		if cs.Above != nil {
			f := math.Float64frombits(*cs.Above)
			a.Above = &f
		}
		if cs.Below != nil {
			f := math.Float64frombits(*cs.Below)
			a.Below = &f
		}
		s.Alert = a
	}
	return s
}

// snapshot captures the view's full state under its lock.
func (v *View) snapshot() ckptView {
	v.mu.Lock()
	defer v.mu.Unlock()
	cv := ckptView{
		ID: v.ID, Spec: specToCkpt(v.Spec),
		Watermark: v.watermark, EvictedBefore: v.evictedBefore,
		Applied: v.applied, Late: v.late,
	}
	// Deterministic file bytes: parts in (stripe, topic, part) order —
	// v.tps is kept sorted — chunks ascending, cells in insertion order.
	for s := range v.stripes {
		starts := tsdb.SortedChunks(v.stripes[s])
		for _, tp := range v.tps {
			cp := ckptPart{Stripe: s, Topic: tp.topic, Part: tp.part}
			for _, start := range starts {
				ct := v.stripes[s][start][tp]
				if ct == nil {
					continue
				}
				ch := ckptChunk{Start: start, Cells: make([]ckptCell, 0, ct.Len())}
				for i := 0; i < ct.Len(); i++ {
					k, c := ct.At(i)
					sr := ct.Series(k.Series)
					ch.Cells = append(ch.Cells, ckptCell{
						Ts: k.Ts, System: sr.System, Source: sr.Source, Comp: sr.Component, Metric: sr.Metric,
						Count: c.Count, Sum: math.Float64bits(c.Sum),
						Min: math.Float64bits(c.Min), Max: math.Float64bits(c.Max),
						LastTs: c.LastTs, Last: math.Float64bits(c.Last),
					})
				}
				cp.Chunks = append(cp.Chunks, ch)
			}
			if len(cp.Chunks) > 0 {
				cv.Parts = append(cv.Parts, cp)
			}
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
	ca := &ckptAlerts{Scored: a.scored, Total: a.total, Ring: append([]Alert(nil), a.ring...)}
	dimKeys := make([][4]string, 0, len(a.groups))
	for d := range a.groups {
		dimKeys = append(dimKeys, d)
	}
	sort.Slice(dimKeys, func(i, j int) bool {
		for k := 0; k < 4; k++ {
			if dimKeys[i][k] != dimKeys[j][k] {
				return dimKeys[i][k] < dimKeys[j][k]
			}
		}
		return false
	})
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
// be freshly registered (empty); cells are re-inserted in checkpointed
// insertion order so the restored fold is byte-identical. The snapshot
// came off disk, so every cell is checked before it lands: its part on
// the stripe its series hashes to, its chunk on the segment grid, its
// bucket on the rollup grid inside the chunk, and no (bucket, series)
// twice in one (stripe, chunk, topic-partition) table. A violation is an
// error naming the view and the stripe, and leaves the view empty: the
// cells restored before it are dropped and no counter is taken over.
func (v *View) restoreInto(cv ckptView) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.applied != 0 {
		return fmt.Errorf("cq: restore into non-empty view %s", v.ID)
	}
	if err := v.restoreCellsLocked(cv.Parts); err != nil {
		for s := range v.stripes {
			v.stripes[s] = make(map[int64]map[topicPart]*tsdb.CellTable)
		}
		v.tps = nil
		return err
	}
	v.watermark = cv.Watermark
	v.evictedBefore = cv.EvictedBefore
	v.applied, v.late = cv.Applied, cv.Late
	if cv.Alerts != nil && v.alerts != nil {
		v.alerts.restore(cv.Alerts)
	}
	return nil
}

// restoreCellsLocked re-inserts checkpointed parts into the view's empty
// tables, checking each cell before it lands.
func (v *View) restoreCellsLocked(parts []ckptPart) error {
	for _, cp := range parts {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("cq: checkpoint of view %s, stripe %d: "+format, append([]any{v.ID, cp.Stripe}, args...)...)
		}
		if cp.Stripe < 0 || cp.Stripe >= tsdb.NumStripes {
			return bad("out of range")
		}
		tp := topicPart{topic: cp.Topic, part: cp.Part}
		for _, ch := range cp.Chunks {
			if tsdb.FloorMod(ch.Start, v.segN) != 0 {
				return bad("chunk %d is off the %v segment grid", ch.Start, time.Duration(v.segN))
			}
			ct := v.tableLocked(cp.Stripe, ch.Start, tp)
			for _, c := range ch.Cells {
				if c.Ts < ch.Start || uint64(c.Ts-ch.Start) >= uint64(v.segN) || tsdb.FloorMod(c.Ts, v.rollupN) != 0 {
					return bad("cell bucket %d is off the %v rollup grid of chunk %d", c.Ts, time.Duration(v.rollupN), ch.Start)
				}
				h := tsdb.SeriesHash(c.Comp, c.Metric)
				if own := int(h % tsdb.NumStripes); own != cp.Stripe {
					return bad("series %s/%s lives on stripe %d", c.Comp, c.Metric, own)
				}
				n := ct.Len()
				series := tsdb.Series{System: c.System, Source: c.Source, Component: c.Comp, Metric: c.Metric}
				*ct.Cell(h, c.Ts, &series) = tsdb.Cell{
					Count: c.Count, Sum: math.Float64frombits(c.Sum),
					Min: math.Float64frombits(c.Min), Max: math.Float64frombits(c.Max),
					LastTs: c.LastTs, Last: math.Float64frombits(c.Last),
				}
				if ct.Len() == n {
					return bad("cell %s/%s/%s/%s at %d listed twice in chunk %d of %s/%d",
						c.System, c.Source, c.Comp, c.Metric, c.Ts, ch.Start, cp.Topic, cp.Part)
				}
			}
		}
	}
	return nil
}

// restore rebuilds scoring state. The detector restores exactly; a
// Holt-Winters forecaster is refit from the retained history on the
// next closed bucket rather than serialized — an approximation that can
// shift post-restart anomaly scores slightly but never view frames.
func (a *alertState) restore(ca *ckptAlerts) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.scored, a.total = ca.Scored, ca.Total
	a.ring = append(a.ring[:0], ca.Ring...)
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

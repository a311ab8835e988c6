package cq

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odakit/internal/schema"
	"odakit/internal/tsdb"
)

// topicPart identifies one partition's slice of view state. The read
// fold visits these in (topic asc, partition asc) order — the replay
// order of ReplayBronzeToLake.
type topicPart struct {
	topic string
	part  int
}

// WindowInfo describes the window a Read answered for.
type WindowInfo struct {
	From, To  time.Time
	Watermark time.Time
	Gen       uint64
	Cells     int64 // live cells folded (0 on a generation-cache hit)
	CacheHit  bool
}

// View is one standing query's materialized state. All mutation goes
// through the owning Engine's Apply; reads are safe for concurrent use.
type View struct {
	ID   string
	Spec Spec

	rollupN int64
	segN    int64
	windowN int64 // Window rounded up to whole rollup intervals
	// plan is the spec compiled by tsdb: apply admits records with its
	// filters, foldRangeLocked re-targets it at the range being read.
	plan tsdb.Plan

	mu sync.Mutex
	// stripe → chunk start → (topic, partition) → that slice's rollup
	// cells in arrival order: tsdb's own cell table in tsdb's geometry.
	stripes [tsdb.NumStripes]map[int64]map[topicPart]*tsdb.CellTable
	// sorted (topic, partition) fold order, rebuilt when a partition
	// first appears. Shared by all stripes.
	tps       []topicPart
	watermark int64 // max event ts seen (nanos); minInt64 until data
	// evictedBefore is the high-water eviction mark: every chunk with
	// end <= evictedBefore has been dropped, and records landing below
	// it are counted late and discarded rather than resurrecting state
	// the window has passed.
	evictedBefore int64
	applied       int64
	late          int64

	gen        atomic.Uint64
	cachedGen  uint64
	cachedAt   WindowInfo
	cached     *schema.Frame
	subs       map[int]chan struct{}
	nextSub    int
	alerts     *alertState
	watchCount atomic.Int64

	engine *Engine
}

const minWatermark = -1 << 62

func newView(e *Engine, spec Spec) *View {
	v := &View{
		ID:      viewID(spec),
		Spec:    spec,
		rollupN: int64(e.cfg.RollupInterval),
		segN:    int64(e.cfg.SegmentDuration),
		plan: tsdb.Compile(tsdb.Query{
			Filters: spec.Filters, GroupBy: spec.GroupBy,
			Granularity: spec.Granularity, Agg: spec.Agg,
		}),
		subs:   make(map[int]chan struct{}),
		engine: e,
	}
	v.windowN = ceilMul(int64(spec.Window), v.rollupN)
	if spec.Alert != nil {
		v.alerts = newAlertState(spec, v.rollupN)
	}
	v.resetLocked()
	return v
}

// resetLocked empties the view's state: no cells, no watermark, no
// counters, no scoring history.
func (v *View) resetLocked() {
	for s := range v.stripes {
		v.stripes[s] = make(map[int64]map[topicPart]*tsdb.CellTable)
	}
	v.tps = nil
	v.watermark, v.evictedBefore = minWatermark, minWatermark
	v.applied, v.late = 0, 0
	if v.alerts != nil {
		v.alerts.restore(&ckptAlerts{Scored: minWatermark})
	}
}

// windowBounds computes the live window for a watermark: the half-open
// [from, to) a Read folds and the equivalent batch query would use.
func (v *View) windowBounds(wm int64) (fromN, toN int64, ok bool) {
	if wm == minWatermark {
		return 0, 0, false
	}
	if v.Spec.Kind == WindowTumbling {
		fromN = wm - tsdb.FloorMod(wm, v.windowN)
		return fromN, fromN + v.windowN, true
	}
	toN = wm - tsdb.FloorMod(wm, v.rollupN) + v.rollupN
	return toN - v.windowN, toN, true
}

// apply folds one partition's page of observation rows into the view and
// moves its window on: the chunks it has passed are evicted and alerts
// score the buckets that closed. It reports how many rows were applied
// and how many dropped late. Caller is the engine, which fans each page
// out to every view, so per-partition order is preserved.
func (v *View) apply(topic string, part int, rows []schema.Row) (appliedN, lateN int64) {
	v.mu.Lock()
	appliedN, lateN = v.addLocked(topic, part, rows)
	v.evictLocked()
	var closed []tsdb.Group
	if v.alerts != nil {
		closed = v.alerts.closeBuckets(v)
	}
	v.mu.Unlock()
	v.bump()
	if len(closed) > 0 {
		if fired := v.alerts.scoreAndAlert(v, closed); fired > 0 && v.engine != nil {
			v.engine.noteAlerts(fired)
		}
	}
	return appliedN, lateN
}

// Fold folds one partition's page of observation rows into the view and
// reports how many were applied and how many dropped late. Unlike the
// engine's Apply it moves no window: nothing is evicted and no alert is
// scored, so every bucket stays until Close hands it on. Feed a view one
// way or the other, not both.
func (v *View) Fold(topic string, part int, rows []schema.Row) (applied, late int64) {
	v.mu.Lock()
	applied, late = v.addLocked(topic, part, rows)
	v.mu.Unlock()
	v.bump()
	return applied, late
}

// addLocked folds rows, which conform to schema.ObservationSchema, into
// their cells. A row without a timestamp belongs to no bucket and is
// skipped. Each stripe's last table is kept for the page: rows in time
// order find it without the two map lookups.
func (v *View) addLocked(topic string, part int, rows []schema.Row) (appliedN, lateN int64) {
	tp := topicPart{topic: topic, part: part}
	var last [tsdb.NumStripes]struct {
		chunkN int64
		ct     *tsdb.CellTable
	}
	for _, row := range rows {
		// ObservationSchema: ts, system, source, component, metric, value.
		if row[0].IsNull() {
			continue
		}
		tsn := row[0].UnixNanos()
		if tsn > v.watermark {
			v.watermark = tsn
		}
		series := tsdb.Series{System: row[1].StrVal(), Source: row[2].StrVal(), Component: row[3].StrVal(), Metric: row[4].StrVal()}
		if !v.plan.Match(&series) {
			continue
		}
		// One series hash picks the stripe and probes the table's
		// dictionary, exactly as the LAKE's ingest does.
		h := tsdb.SeriesHash(series.Component, series.Metric)
		m := &last[h%tsdb.NumStripes]
		if m.ct == nil || uint64(tsn-m.chunkN) >= uint64(v.segN) {
			chunkN := tsn - tsdb.FloorMod(tsn, v.segN)
			if chunkN+v.segN <= v.evictedBefore || chunkN > tsn {
				// Late record below the eviction horizon (or one within a
				// chunk of the int64 range's ends): its chunk is gone and
				// the window can never include it again. The batch
				// reference excludes it the same way (bucket ts < from).
				lateN++
				continue
			}
			m.chunkN, m.ct = chunkN, v.tableLocked(int(h%tsdb.NumStripes), chunkN, tp)
		}
		m.ct.Cell(h, tsn, &series).Add(tsn, row[5].FloatVal())
		appliedN++
	}
	v.applied += appliedN
	v.late += lateN
	return appliedN, lateN
}

// Close hands on the chunks that end at or before endN and were not
// handed on before: it returns their groups, each chunk folded as one
// bucket, ordered by (bucket, dims), and evicts them, so a record that
// lands in one later is dropped late. It is how a view fed through Fold
// is emptied.
func (v *View) Close(endN int64) []tsdb.Group {
	v.mu.Lock()
	defer v.mu.Unlock()
	groups, closedEnd, ok := v.closeBucketsLocked(v.evictedBefore, endN, v.segN)
	if !ok {
		return nil
	}
	v.dropChunksLocked(closedEnd)
	if n := len(groups); n > 0 {
		v.evictedBefore = max(v.evictedBefore, groups[n-1].Key.Ts+v.segN)
	}
	return groups
}

// closeBucketsLocked folds the granN-wide buckets from fromN (rounded up
// to a bucket start) to endN (rounded down): the buckets that end at or
// before endN. It returns their groups ordered by (bucket, dims) and the
// rounded end; ok is false when no bucket lies in between. The buckets
// alerts score and those Close hands on are this fold.
func (v *View) closeBucketsLocked(fromN, endN, granN int64) (groups []tsdb.Group, closedEnd int64, ok bool) {
	closedEnd = endN - tsdb.FloorMod(endN, granN)
	if r := tsdb.FloorMod(fromN, granN); r != 0 {
		fromN += granN - r
	}
	if fromN >= closedEnd {
		return nil, closedEnd, false
	}
	total := foldTables.Get().(*tsdb.GroupTable)
	defer foldTables.Put(total)
	v.foldRangeLocked(total, fromN, closedEnd, granN)
	return total.Sorted(), closedEnd, true
}

// tableLocked returns (creating if needed) the cell table of one
// (stripe, chunk, topic-partition).
func (v *View) tableLocked(stripe int, chunkN int64, tp topicPart) *tsdb.CellTable {
	byTP := v.stripes[stripe][chunkN]
	if byTP == nil {
		byTP = make(map[topicPart]*tsdb.CellTable)
		v.stripes[stripe][chunkN] = byTP
	}
	ct := byTP[tp]
	if ct == nil {
		ct = tsdb.NewCellTable(chunkN, v.segN, v.rollupN)
		byTP[tp] = ct
		v.noteTPLocked(tp)
	}
	return ct
}

// noteTPLocked records a newly seen (topic, partition) in fold order.
func (v *View) noteTPLocked(tp topicPart) {
	for _, have := range v.tps {
		if have == tp {
			return
		}
	}
	v.tps = append(v.tps, tp)
	sort.Slice(v.tps, func(i, j int) bool {
		if v.tps[i].topic != v.tps[j].topic {
			return v.tps[i].topic < v.tps[j].topic
		}
		return v.tps[i].part < v.tps[j].part
	})
}

// evictLocked drops whole chunks the window has moved past. Only chunks
// wholly before the window start go: the read path time-filters at cell
// granularity, so a chunk straddling the window edge stays until the
// edge passes its end.
func (v *View) evictLocked() {
	fromN, _, ok := v.windowBounds(v.watermark)
	if !ok {
		return
	}
	v.dropChunksLocked(fromN)
	if fromN > v.evictedBefore {
		v.evictedBefore = fromN
	}
}

// dropChunksLocked deletes every chunk that ends at or before endN.
func (v *View) dropChunksLocked(endN int64) {
	for s := range v.stripes {
		for chunkN := range v.stripes[s] {
			if chunkN+v.segN <= endN {
				delete(v.stripes[s], chunkN)
			}
		}
	}
}

// bump advances the view generation and pokes watchers.
func (v *View) bump() {
	v.gen.Add(1)
	v.mu.Lock()
	for _, ch := range v.subs {
		select {
		case ch <- struct{}{}:
		default: // watcher already has a wakeup pending
		}
	}
	v.mu.Unlock()
	if v.engine != nil {
		v.engine.mUpdates.Inc()
	}
}

// Gen returns the view's current generation (bumped on every applied
// batch). Watchers long-poll against it.
func (v *View) Gen() uint64 { return v.gen.Load() }

// Invalidate forces the next Read to re-fold instead of answering from
// the generation cache. Benchmarks use it to measure the fold path.
func (v *View) Invalidate() { v.gen.Add(1) }

// Subscribe registers a watcher; the channel receives (coalesced)
// wakeups on every view update. Unsubscribe with the returned cancel.
func (v *View) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	v.mu.Lock()
	id := v.nextSub
	v.nextSub++
	v.subs[id] = ch
	v.mu.Unlock()
	v.watchCount.Add(1)
	return ch, func() {
		v.mu.Lock()
		delete(v.subs, id)
		v.mu.Unlock()
		v.watchCount.Add(-1)
	}
}

// Read folds the live window into a result frame with tsdb.Run's exact
// fold order and output shape. Repeated reads at an unchanged
// generation are free (the previous frame is returned); treat returned
// frames as read-only.
func (v *View) Read() (*schema.Frame, WindowInfo) {
	gen := v.gen.Load()
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.cached != nil && v.cachedGen == gen {
		info := v.cachedAt
		info.CacheHit = true
		if v.engine != nil {
			v.engine.mReads.Inc()
			v.engine.mReadHits.Inc()
		}
		return v.cached, info
	}
	frame, info := v.foldLocked()
	info.Gen = gen
	v.cached, v.cachedGen, v.cachedAt = frame, gen, info
	if v.engine != nil {
		v.engine.mReads.Inc()
	}
	return frame, info
}

// foldLocked answers the live window: the kernel's fold and emit over
// the view's resident cells.
func (v *View) foldLocked() (*schema.Frame, WindowInfo) {
	fromN, toN, ok := v.windowBounds(v.watermark)
	info := WindowInfo{}
	total := foldTables.Get().(*tsdb.GroupTable)
	defer foldTables.Put(total)
	if ok {
		info.From = time.Unix(0, fromN).UTC()
		info.To = time.Unix(0, toN).UTC()
		info.Watermark = time.Unix(0, v.watermark).UTC()
		info.Cells = v.foldRangeLocked(total, fromN, toN, int64(v.Spec.Granularity))
	}
	out, err := v.plan.Frame(total)
	if err != nil {
		// Rows are built from the frame's own schema; unreachable.
		panic(err)
	}
	return out, info
}

// foldRangeLocked feeds the view's resident cells of [fromN, toN) to the
// same kernel tsdb.Run scans with, in the canonical order: stripe asc →
// chunk asc → (topic, partition) asc → insertion order, each stripe's
// partial merged into the total in stripe order — Run's exact float
// accumulation order over a partition-major-replayed store. granN 0
// collapses the range into one bucket at fromN. total is reset first;
// both it and the stripe partial come from foldTables.
func (v *View) foldRangeLocked(total *tsdb.GroupTable, fromN, toN, granN int64) (cellsScanned int64) {
	// Every resident cell passed the spec's filters at apply time.
	p := v.plan.Admitted().Over(fromN, toN, granN)
	part := foldTables.Get().(*tsdb.GroupTable)
	defer foldTables.Put(part)
	total.Reset()
	for s := range v.stripes {
		part.Reset()
		for _, chunkN := range tsdb.SortedChunks(v.stripes[s]) {
			overlaps, contained := p.Chunk(chunkN, v.segN)
			if !overlaps {
				continue
			}
			for _, tp := range v.tps {
				if ct := v.stripes[s][chunkN][tp]; ct != nil {
					cellsScanned += int64(ct.Len())
					part.Fold(&p, ct, contained)
				}
			}
		}
		total.Merge(part)
	}
	return cellsScanned
}

// foldTables recycles the group tables a fold builds, so a read or a
// close grows none it has grown before.
var foldTables = sync.Pool{New: func() any { return new(tsdb.GroupTable) }}

// ViewStats is a view's live state summary.
type ViewStats struct {
	ID        string        `json:"id"`
	Name      string        `json:"name"`
	Window    time.Duration `json:"window"`
	Kind      string        `json:"kind"`
	Gen       uint64        `json:"gen"`
	Applied   int64         `json:"applied"`
	Late      int64         `json:"late"`
	Cells     int64         `json:"cells"`
	Watchers  int64         `json:"watchers"`
	Alerts    int64         `json:"alerts"`
	Watermark time.Time     `json:"watermark"`
}

// Stats snapshots the view's counters.
func (v *View) Stats() ViewStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	st := ViewStats{
		ID: v.ID, Name: v.Spec.Name, Window: v.Spec.Window,
		Kind: v.Spec.Kind.String(), Gen: v.gen.Load(),
		Applied: v.applied, Late: v.late, Watchers: v.watchCount.Load(),
	}
	if v.watermark != minWatermark {
		st.Watermark = time.Unix(0, v.watermark).UTC()
	}
	for s := range v.stripes {
		for _, byTP := range v.stripes[s] {
			for _, ct := range byTP {
				st.Cells += int64(ct.Len())
			}
		}
	}
	if v.alerts != nil {
		st.Alerts = v.alerts.count()
	}
	return st
}

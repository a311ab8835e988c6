// Query engine for the LAKE store: shard-parallel scans with per-shard
// partial aggregation, per-query compiled filters, and a version-keyed
// result cache. PR 2 made ingest batch-first; this file is the matching
// read path. A query fans out one worker per lock stripe, each folding
// its stripe's cells into a private open-addressed partial-aggregation
// table (no shared map, no cross-shard lock convoy), and the partials
// are merged in stripe order so results are deterministic — merging in
// a fixed order keeps float accumulation reproducible run to run.
//
// RunSerial is retained as the reference implementation: the paper's
// original single-threaded scan, kept for equivalence testing (the
// property test asserts Run's frames are byte-identical) and as the
// baseline the query benchmarks measure speedups against.
package tsdb

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"odakit/internal/columnar"
	"odakit/internal/schema"
)

// ErrBadQuery reports an invalid query.
var ErrBadQuery = errors.New("tsdb: bad query")

// Query describes a group-by query.
type Query struct {
	// From and To bound the time range (half-open).
	From, To time.Time
	// Filters are dimension-equality constraints; a dimension maps to the
	// set of accepted values (OR within a dimension, AND across).
	Filters map[string][]string
	// GroupBy lists output dimensions (subset of system, source,
	// component, metric). Time is always grouped by Granularity.
	GroupBy []string
	// Granularity buckets output rows in time; 0 collapses the range to
	// a single bucket.
	Granularity time.Duration
	// Agg is the aggregation to report.
	Agg AggKind
}

// ResultSchema returns the schema of the query's result frame: ts, the
// group-by dimensions, then "value".
func (q Query) ResultSchema() *schema.Schema {
	fields := []schema.Field{{Name: "ts", Kind: schema.KindTime}}
	for _, d := range q.GroupBy {
		fields = append(fields, schema.Field{Name: d, Kind: schema.KindString})
	}
	fields = append(fields, schema.Field{Name: "value", Kind: schema.KindFloat})
	return schema.New(fields...)
}

func (q Query) validate() error {
	if !q.To.After(q.From) {
		return fmt.Errorf("%w: empty time range", ErrBadQuery)
	}
	if len(q.GroupBy) > len(dimNames) {
		return fmt.Errorf("%w: too many group-by dimensions", ErrBadQuery)
	}
	seen := map[string]bool{}
	for _, d := range q.GroupBy {
		if seen[d] {
			return fmt.Errorf("%w: duplicate group-by dimension %q", ErrBadQuery, d)
		}
		seen[d] = true
	}
	for _, d := range q.GroupBy {
		if !validDim(d) {
			return fmt.Errorf("%w: unknown group-by dimension %q", ErrBadQuery, d)
		}
	}
	for d := range q.Filters {
		if !validDim(d) {
			return fmt.Errorf("%w: unknown filter dimension %q", ErrBadQuery, d)
		}
	}
	return nil
}

func validDim(d string) bool {
	for _, n := range dimNames {
		if n == d {
			return true
		}
	}
	return false
}

// dimIndex maps a dimension name onto its fixed slot (0..3). Valid names
// only; callers validate first.
func dimIndex(d string) int {
	switch d {
	case DimSystem:
		return 0
	case DimSource:
		return 1
	case DimComponent:
		return 2
	default: // DimMetric
		return 3
	}
}

// clampNanos converts a bound to unix nanos with saturation, so times
// outside the representable nano range (e.g. the zero time.Time) compare
// like their time.Time counterparts instead of wrapping.
func clampNanos(t time.Time) int64 {
	if t.Before(minNanoTime) {
		return math.MinInt64
	}
	if t.After(maxNanoTime) {
		return math.MaxInt64
	}
	return t.UnixNano()
}

var (
	minNanoTime = time.Unix(0, math.MinInt64)
	maxNanoTime = time.Unix(0, math.MaxInt64)
)

// partialSet is one query's per-shard partial-aggregation tables. Sets
// are pooled per DB: a steady query load reuses grown slot arrays
// instead of re-allocating ~megabytes of table per query, which keeps
// the garbage collector out of the scan path. The cold fold's decode
// vectors and ordering scratch ride in the same pooled object for the
// same reason.
type partialSet struct {
	tables [shardCount]GroupTable
	cold   columnar.Batch
	cols   Columns // the kernel's view of cold's vectors
	order  coldOrder
	tuples rowTuples // cols' rows numbered by grouped tuple
}

func (db *DB) getPartials() *partialSet {
	if v := db.partials.Get(); v != nil {
		ps := v.(*partialSet)
		for i := range ps.tables {
			ps.tables[i].Reset()
		}
		return ps
	}
	// Cold decode helpers are scan helpers: they come from the same slots.
	return &partialSet{cold: columnar.Batch{Slots: db.scanSlots}}
}

func (db *DB) putPartials(ps *partialSet) { db.partials.Put(ps) }

// QueryStats reports what one query execution did, making the engine's
// pruning, parallelism, and caching observable to dashboards and benches.
type QueryStats struct {
	// CacheHit is true when the result came from the query-result cache
	// (the scan counters below are then zero).
	CacheHit bool
	// Workers is how many scan goroutines executed the query.
	Workers int
	// SegmentsScanned / SegmentsPruned count time chunks visited vs
	// skipped by chunk-level time pruning, summed over shards.
	SegmentsScanned int
	SegmentsPruned  int
	// CellsScanned counts rollup cells examined; CellsMatched counts
	// those that survived the time range and compiled filters.
	CellsScanned int64
	CellsMatched int64
	// Groups is the output row count.
	Groups int
	// Cold-tier federation: segments are whole offloaded time chunks,
	// row groups are the OCF groups inside the ones that survived.
	// "Pruned" means skipped by zone-map/bloom/dictionary evidence
	// without inflating the data.
	ColdSegmentsScanned  int
	ColdSegmentsPruned   int
	ColdRowGroupsScanned int
	ColdRowGroupsPruned  int
	// ColdRowsDecoded counts the rows of every cold row group inflated;
	// ColdCells counts the cold rollup cells of them that were folded into
	// the result. The ratio is what a decoded-row-group cache or finer
	// row groups would have to improve.
	ColdRowsDecoded int64
	ColdCells       int64
	// ColdWorkers is the most goroutines that decoded one cold segment,
	// the query's own included; extra ones are won from the scan slots.
	ColdWorkers int
	// GlacierSegments counts cold segments whose object had aged into
	// the archive; GlacierPending how many were unreadable this pass
	// (recall not complete — the answer excludes them), GlacierRecalls
	// how many recalls this query initiated. RecallWait is the longest
	// remaining recall wait, i.e. when re-running the query is worth it.
	GlacierSegments int
	GlacierPending  int
	GlacierRecalls  int
	RecallWait      time.Duration
	// Per-stage wall clock: cold-tier fold, shard scans, partial merge,
	// sort + emit.
	ColdWall  time.Duration
	ScanWall  time.Duration
	MergeWall time.Duration
	EmitWall  time.Duration
	TotalWall time.Duration
}

// AddStripe sums one stripe scan's counters into the query's.
func (st *QueryStats) AddStripe(ss StripeScanStats) {
	st.SegmentsScanned += ss.SegmentsScanned
	st.SegmentsPruned += ss.SegmentsPruned
	st.CellsScanned += ss.CellsScanned
	st.CellsMatched += ss.CellsMatched
}

// scanShard folds one stripe's cells into gt, the shard's private
// partial-aggregation table. Segments are visited in chunk order so
// accumulation order — and therefore float rounding — is deterministic.
func (db *DB) scanShard(si int, p *Plan, gt *GroupTable) StripeScanStats {
	var ss StripeScanStats
	sh := &db.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	segDur := int64(db.opts.SegmentDuration)
	for _, chunkN := range SortedChunks(sh.segments) {
		overlaps, contained := p.Chunk(chunkN, segDur)
		if !overlaps {
			ss.SegmentsPruned++ // segment pruning by time chunk
			continue
		}
		ss.SegmentsScanned++
		ct := sh.segments[chunkN].cells
		ss.CellsScanned += int64(ct.Len())
		ss.CellsMatched += gt.Fold(p, ct, contained)
	}
	return ss
}

// queryWorkers picks the desired scan fan-out: one worker per shard,
// bounded by the machine — on a single-core box the engine degrades to
// the serial fast path with no goroutine overhead.
func queryWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > shardCount {
		w = shardCount
	}
	if w < 1 {
		w = 1
	}
	return w
}

// aggregate executes the scan + merge phases of RunWithStats:
// shard-parallel partials, merged in stripe order into one table.
//
// The calling goroutine always scans; extra helper goroutines are
// spawned only for slots won from db.scanSlots, so the DB-wide helper
// count stays bounded regardless of query concurrency. One query on an
// idle store fans out across all shards; sixteen concurrent queries
// each run near-serial instead of stampeding 256 goroutines onto the
// scheduler.
func (db *DB) aggregate(p *Plan, st *QueryStats) (*GroupTable, *partialSet, error) {
	ps := db.getPartials()
	if ct := db.cold.Load(); ct != nil {
		// Hold the tier shared for the cold fold AND the hot scan: an
		// offload moving a chunk between the two halves would make the
		// chunk invisible (or doubly visible) to this one query.
		ct.mu.RLock()
		defer ct.mu.RUnlock()
		coldStart := time.Now()
		if err := ct.scanCold(p, st, ps); err != nil {
			return nil, ps, err
		}
		st.ColdWall = time.Since(coldStart)
	}
	helpers := 0
	for helpers < queryWorkers()-1 {
		select {
		case db.scanSlots <- struct{}{}:
			helpers++
			continue
		default:
		}
		break
	}
	st.Workers = helpers + 1
	var stats [shardCount]StripeScanStats
	scanStart := time.Now()
	var next atomic.Int32
	scanLoop := func() {
		for {
			s := int(next.Add(1)) - 1
			if s >= shardCount {
				return
			}
			stats[s] = db.scanShard(s, p, &ps.tables[s])
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		go func() {
			defer wg.Done()
			defer func() { <-db.scanSlots }()
			scanLoop()
		}()
	}
	scanLoop()
	wg.Wait()
	st.ScanWall = time.Since(scanStart)
	mergeStart := time.Now()
	// Stripe order is the deterministic fold order (see GroupTable.Merge).
	total := &ps.tables[0]
	for s := 1; s < shardCount; s++ {
		total.Merge(&ps.tables[s])
	}
	st.MergeWall = time.Since(mergeStart)
	for s := range stats {
		st.AddStripe(stats[s])
	}
	st.Groups = total.Len()
	return total, ps, nil
}

// Run executes the query and returns a frame sorted by (ts, dims).
// Granularity buckets are anchored at the Unix epoch (Druid semantics):
// the same data queried with a shifted From lands in the same buckets.
// Granularity 0 collapses the range to a single bucket labeled q.From.
//
// Results are deterministic (shards and segments are folded in a fixed
// order) and may be served from the query-result cache; treat returned
// frames as read-only.
func (db *DB) Run(q Query) (*schema.Frame, error) {
	f, _, err := db.RunWithStats(q)
	return f, err
}

// RunWithStats is Run plus execution statistics.
func (db *DB) RunWithStats(q Query) (*schema.Frame, QueryStats, error) {
	t0 := time.Now()
	var st QueryStats
	if err := q.validate(); err != nil {
		return nil, st, err
	}
	var key cacheKey
	if db.cache != nil {
		key = cacheKey{fp: q.fingerprint(), vv: db.versionVector(), gen: db.coldGeneration()}
		if f, ok := db.cache.get(key); ok {
			st.CacheHit = true
			st.Groups = f.Len()
			db.noteQuery(&st, t0)
			return f, st, nil
		}
	}
	plan := Compile(q)
	total, ps, err := db.aggregate(&plan, &st)
	defer db.putPartials(ps)
	if err != nil {
		return nil, st, err
	}
	emitStart := time.Now()
	out, err := plan.Frame(total)
	if err != nil {
		return nil, st, err
	}
	st.EmitWall = time.Since(emitStart)
	// A result missing glacier-pending segments is correct for "what is
	// readable now" but not stable: the recall completes on wall clock,
	// not on a version or generation bump, so it must never be cached.
	if db.cache != nil && st.GlacierPending == 0 {
		db.cache.put(key, out)
	}
	db.noteQuery(&st, t0)
	return out, st, nil
}

// noteQuery closes one execution's stats — total wall clock since t0 —
// and folds them into the live obs instruments. The query path is
// heavyweight enough (microseconds to milliseconds) that a few counter
// adds and one histogram observation are noise.
func (db *DB) noteQuery(st *QueryStats, t0 time.Time) {
	st.TotalWall = time.Since(t0)
	ins := db.instr.Load()
	if ins == nil {
		return
	}
	ins.queries.Inc()
	ins.cellsScanned.Add(st.CellsScanned)
	ins.cellsMatched.Add(st.CellsMatched)
	ins.segsScanned.Add(int64(st.SegmentsScanned))
	ins.segsPruned.Add(int64(st.SegmentsPruned))
	ins.coldSegsScanned.Add(int64(st.ColdSegmentsScanned))
	ins.coldSegsPruned.Add(int64(st.ColdSegmentsPruned))
	ins.coldRowGroupsScanned.Add(int64(st.ColdRowGroupsScanned))
	ins.coldRowGroupsPruned.Add(int64(st.ColdRowGroupsPruned))
	ins.coldRowsDecoded.Add(st.ColdRowsDecoded)
	ins.coldCellsFolded.Add(st.ColdCells)
	if st.ColdWall > 0 {
		ins.coldScan.Observe(st.ColdWall.Seconds())
	}
	ins.glacierPending.Add(int64(st.GlacierPending))
	ins.glacierRecalls.Add(int64(st.GlacierRecalls))
	ins.queryLatency.Observe(st.TotalWall.Seconds())
}

// RunSerial is the retained single-threaded reference implementation of
// Run: per-cell time.Time checks, uncompiled filter matching, Go-map
// partials — folded shard by shard in the same deterministic order as
// the parallel engine. It exists so the property tests can assert the
// parallel engine is byte-identical, and so benchmarks can measure the
// speedup against the original scan. It never consults the result cache.
func (db *DB) RunSerial(q Query) (*schema.Frame, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	granNanos := int64(q.Granularity)
	groups := make(map[GroupKey]*Cell)
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.RLock()
		partial := make(map[GroupKey]*Cell)
		for _, chunkN := range SortedChunks(sh.segments) {
			seg := sh.segments[chunkN]
			segStart := time.Unix(0, chunkN)
			if !segStart.Before(q.To) || !segStart.Add(db.opts.SegmentDuration).After(q.From) {
				continue // segment pruning by time chunk
			}
			for ci := 0; ci < seg.cells.Len(); ci++ {
				key, cell := seg.cells.At(ci)
				series := seg.cells.Series(key.Series)
				bucketN := seg.cells.BucketStart(key.Bucket)
				ts := time.Unix(0, bucketN).UTC()
				if ts.Before(q.From) || !ts.Before(q.To) {
					continue
				}
				if !matchFilters(series, q.Filters) {
					continue
				}
				gk := GroupKey{Ts: q.From.UnixNano()}
				if granNanos > 0 {
					gk.Ts = bucketN - FloorMod(bucketN, granNanos)
				}
				for i, d := range q.GroupBy {
					gk.Dims[i] = series.at(dimIndex(d))
				}
				g, ok := partial[gk]
				if !ok {
					g = &Cell{}
					partial[gk] = g
				}
				g.Merge(*cell)
			}
		}
		sh.mu.RUnlock()
		for gk, c := range partial {
			g, ok := groups[gk]
			if !ok {
				g = &Cell{}
				groups[gk] = g
			}
			g.Merge(*c)
		}
	}

	keys := make([]GroupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Ts != keys[j].Ts {
			return keys[i].Ts < keys[j].Ts
		}
		for d := 0; d < len(q.GroupBy); d++ {
			if keys[i].Dims[d] != keys[j].Dims[d] {
				return keys[i].Dims[d] < keys[j].Dims[d]
			}
		}
		return false
	})

	out := schema.NewFrame(q.ResultSchema())
	for _, k := range keys {
		cell := groups[k]
		row := schema.Row{schema.TimeNanos(k.Ts)}
		for i := range q.GroupBy {
			row = append(row, schema.Str(k.Dims[i]))
		}
		row = append(row, schema.Float(cell.Value(q.Agg)))
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// matchFilters is the uncompiled filter check used by RunSerial.
func matchFilters(s *Series, filters map[string][]string) bool {
	for dim, accepted := range filters {
		v := s.at(dimIndex(dim))
		ok := false
		for _, a := range accepted {
			if v == a {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// TopNQuery rewrites q into the group-by that ranks dim's values: one
// group per value over the whole range.
func TopNQuery(q Query, dim string) (Query, error) {
	if !validDim(dim) {
		return q, fmt.Errorf("%w: unknown top-n dimension %q", ErrBadQuery, dim)
	}
	q.GroupBy = []string{dim}
	q.Granularity = 0
	return q, q.validate()
}

// TopNEntry is one row of a top-N result.
type TopNEntry struct {
	Dim   string
	Value float64
}

// TopN returns the n highest-aggregating values of one dimension over a
// time range — the Druid-style "which nodes drew the most power" query
// behind user-assistance triage. It is a query like any other: TopNQuery
// goes through l's RunWithStats — result cache, cold tier, stats and all,
// on either plane — and TopNOf ranks the frame.
func TopN(l interface {
	RunWithStats(Query) (*schema.Frame, QueryStats, error)
}, q Query, dim string, n int) ([]TopNEntry, QueryStats, error) {
	q, err := TopNQuery(q, dim)
	if err != nil {
		return nil, QueryStats{}, err
	}
	f, st, err := l.RunWithStats(q)
	if err != nil {
		return nil, st, err
	}
	return TopNOf(f, n), st, nil
}

// TopNOf ranks the rows of a TopNQuery result frame (ts, dimension,
// value), best first: value descending, dimension ascending on ties — a
// total order. The rows arrive dimension-ascending, so one stable sort on
// the value does it. n <= 0 selects nothing; n beyond the group count
// selects every group.
func TopNOf(f *schema.Frame, n int) []TopNEntry {
	if n <= 0 {
		return []TopNEntry{}
	}
	dims, values := f.Col(1).Strs(), f.Col(2).Floats()
	top := make([]TopNEntry, len(dims))
	for i := range top {
		top[i] = TopNEntry{Dim: dims[i], Value: values[i]}
	}
	slices.SortStableFunc(top, func(a, b TopNEntry) int { return cmp.Compare(b.Value, a.Value) })
	return top[:min(n, len(top))]
}

// Fingerprint returns the query's canonical identity string: semantically
// equal queries (same window, filters, group-by, aggregation, and
// granularity, regardless of value order) share a fingerprint. The result
// cache keys on it; the HTTP prepared-statement registry derives
// content-addressed handles from it.
func (q Query) Fingerprint() string { return q.fingerprint() }

// fingerprint canonicalizes a query for the result cache: filter values
// are length-prefixed and sorted per dimension so semantically equal
// queries share an entry regardless of map iteration or value order.
func (q Query) fingerprint() string {
	b := make([]byte, 0, 128)
	b = strconv.AppendInt(b, q.From.UnixNano(), 36)
	b = append(b, '|')
	b = strconv.AppendInt(b, q.To.UnixNano(), 36)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.Granularity), 36)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.Agg), 10)
	for _, d := range q.GroupBy {
		b = append(b, '|', 'g')
		b = append(b, d...)
	}
	for d := 0; d < len(dimNames); d++ {
		vals, ok := q.Filters[dimNames[d]]
		if !ok {
			continue
		}
		b = append(b, '|', 'f')
		b = strconv.AppendInt(b, int64(d), 10)
		sorted := append([]string(nil), vals...)
		sort.Strings(sorted)
		for _, v := range sorted {
			b = strconv.AppendInt(b, int64(len(v)), 36)
			b = append(b, ':')
			b = append(b, v...)
		}
	}
	return string(b)
}

// Package tsdb implements the LAKE tier's time-series store (Fig 5): the
// role Apache Druid plays in the paper — online, real-time diagnostics
// over recent telemetry. Observations are rolled up on ingest (the 15 s
// aggregation of §V-A), held in time-chunked segments, and served through
// group-by, filter, and top-N queries at interactive latency. Segment
// retention keeps the hot tier bounded while OCEAN holds history.
package tsdb

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"odakit/internal/faults"
	"odakit/internal/schema"
)

// Dimension names available for filtering and grouping.
const (
	DimSystem    = "system"
	DimSource    = "source"
	DimComponent = "component"
	DimMetric    = "metric"
)

var dimNames = []string{DimSystem, DimSource, DimComponent, DimMetric}

// Options tunes the store.
type Options struct {
	// SegmentDuration is the time-chunk width (default 1h).
	SegmentDuration time.Duration
	// RollupInterval is the ingest-time aggregation bucket (default 15s),
	// reconciling differing sample rates and clock skew. A segment holds
	// at most 2^32-1 buckets (NewCellTable).
	RollupInterval time.Duration
	// QueryCacheSize bounds the query-result cache (entries). 0 selects
	// the default (64); negative disables result caching.
	QueryCacheSize int
}

// The grid an Options or a Geometry leaves zero.
const (
	defaultRollup  = 15 * time.Second
	defaultSegment = time.Hour
)

func (o Options) withDefaults() Options {
	if o.SegmentDuration <= 0 {
		o.SegmentDuration = defaultSegment
	}
	if o.RollupInterval <= 0 {
		o.RollupInterval = defaultRollup
	}
	if o.QueryCacheSize == 0 {
		o.QueryCacheSize = 64
	}
	return o
}

// Geometry is a LAKE's bucket grid: rollup buckets of Rollup filed in
// time chunks of Segment, a whole multiple of Rollup, so no bucket
// straddles a chunk start. NewGeometry is the one constructor, and the
// one place a grid is refused.
type Geometry struct {
	Rollup, Segment time.Duration
}

// NewGeometry builds a bucket grid; a zero or negative duration takes
// the default (15 s buckets, 1 h chunks). It refuses a segment that is
// not a whole multiple of the rollup and names both: a bucket would
// straddle a chunk start, ingest would split it into a cell on each
// side, and whatever files cells by the chunk their bucket starts in —
// a stripe resync, a CQ checkpoint restore (LoadCells) — would find the
// two listed as one.
func NewGeometry(rollup, segment time.Duration) (Geometry, error) {
	if rollup <= 0 {
		rollup = defaultRollup
	}
	if segment <= 0 {
		segment = defaultSegment
	}
	if segment%rollup != 0 {
		return Geometry{}, fmt.Errorf("tsdb: a %v segment is not a whole multiple of the %v rollup, so a bucket would straddle a chunk start and its two cells could not be exported and loaded back",
			segment, rollup)
	}
	return Geometry{Rollup: rollup, Segment: segment}, nil
}

type segment struct {
	cells *CellTable
	rows  int64 // raw observations ingested
}

// shardCount is the number of lock stripes. Series are hashed across
// shards by their dimensions, so concurrent producers writing different
// series never serialize on one mutex. Power of two keeps the modulo
// cheap.
const shardCount = 16

// dbShard is one lock stripe: an independent map of time-chunked
// segments holding the slice of rollup cells whose series hash here.
type dbShard struct {
	mu       sync.RWMutex
	segments map[int64]*segment // keyed by chunk start unixnano
	ingested int64
	// version counts mutations to this stripe (insert, import, retain).
	// It is bumped inside the stripe's critical section and read lock-free
	// by the query-result cache to fingerprint store state: a repeated
	// query whose shard-version vector is unchanged can be answered from
	// cache without touching any stripe.
	version atomic.Uint64
}

// DB is the time-series store. Safe for concurrent use: the cell space
// is partitioned over shardCount lock stripes by series hash, and every
// reader (Run, ExportStripes, Stats) visits the stripes one at a time.
type DB struct {
	opts   Options
	shards [shardCount]dbShard
	// batchCursor staggers the stripe visit order across InsertBatch
	// calls so concurrent batches don't convoy lock-for-lock.
	batchCursor atomic.Uint32
	// cache is the LRU query-result cache; nil when disabled.
	cache *queryCache
	// scanSlots bounds query fan-out, never admission: each in-flight scan
	// helper goroutine holds one slot, bounding the DB-wide total to
	// shardCount no matter how many queries run concurrently. A query
	// that finds the slots taken scans inline on its own goroutine —
	// under load the engine degrades toward serial instead of drowning
	// the scheduler in CPU-bound goroutines.
	scanSlots chan struct{}
	// partials pools per-query partial-aggregation tables (see
	// partialSet) so steady query traffic reuses grown slot arrays.
	partials sync.Pool
	// faults fires lake.insert before InsertBatch touches any stripe.
	faults faults.Hook
	// instr holds the live obs instruments (see instrument.go); nil —
	// the default — keeps the hot path at a single load+branch.
	instr atomic.Pointer[instruments]
	// cold is the attached OCEAN/GLACIER tier (see tier.go); nil — the
	// default — keeps un-federated queries at a single load+branch.
	cold atomic.Pointer[ColdTier]
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
func (db *DB) SetFaultHook(h func(op, target string) error) { db.faults.SetFaultHook(h) }

// New returns an empty store.
func New(opts Options) *DB {
	db := &DB{opts: opts.withDefaults(), scanSlots: make(chan struct{}, shardCount)}
	for i := range db.shards {
		db.shards[i].segments = make(map[int64]*segment)
	}
	if db.opts.QueryCacheSize > 0 {
		db.cache = newQueryCache(db.opts.QueryCacheSize)
	}
	return db
}

// versionVector snapshots every stripe's mutation counter. Reading it
// before a scan keys cached results conservatively: a write that lands
// mid-scan bumps the vector, so the (possibly fresher) cached entry can
// never be served once the store has visibly changed.
func (db *DB) versionVector() [shardCount]uint64 {
	var vv [shardCount]uint64
	for i := range db.shards {
		vv[i] = db.shards[i].version.Load()
	}
	return vv
}

// shardIndex maps a series onto a lock stripe.
func shardIndex(component, metric string) uint32 {
	return SeriesHash(component, metric) % shardCount
}

// NumStripes is the number of lock stripes (and the fixed fold order
// width) of every DB: a series lives on stripe SeriesHash % NumStripes.
// Exported for the kernel's other feeders — the continuous-query engine
// (internal/cq) keeps its view state in the same stripe geometry so
// incremental reads feed the fold in Run's exact order.
const NumStripes = shardCount

// StripeFor maps a series onto its lock stripe — the same FNV-1a hash
// the ingest and query paths use. Exported so the cluster's stripe
// placement cannot drift from the store's own striping.
func StripeFor(component, metric string) int {
	return int(shardIndex(component, metric))
}

// insertLocked rolls one observation, which lies in seg's chunk, into
// seg; the owning shard's mu must be held. h is the record's SeriesHash.
func insertLocked(sh *dbShard, seg *segment, h uint32, tsn int64, o *schema.Observation) {
	s := Series{System: o.System, Source: o.Source, Component: o.Component, Metric: o.Metric}
	seg.cells.Cell(h, tsn, &s).Add(tsn, o.Value)
	seg.rows++
	sh.ingested++
}

// segmentLocked returns (creating if needed) sh's segment for the chunk
// starting at chunkN nanos; sh.mu must be held.
func (db *DB) segmentLocked(sh *dbShard, chunkN int64) *segment {
	seg, ok := sh.segments[chunkN]
	if !ok {
		seg = &segment{cells: NewCellTable(chunkN, int64(db.opts.SegmentDuration), int64(db.opts.RollupInterval))}
		sh.segments[chunkN] = seg
	}
	return seg
}

// InsertBatch rolls a batch of observations into their segments, taking
// each shard lock at most once for the whole batch. It is the store's one
// write path: a single observation is an InsertBatch of one, so every
// write passes the lake.insert fault hook and the insert counters. A
// non-nil error means the fault hook rejected the batch before any
// observation landed, so the caller may retry the whole batch without
// double-counting. An observation within a segment of either end of the
// int64 nanosecond range has no representable chunk and is dropped.
func (db *DB) InsertBatch(obs []schema.Observation) error {
	n := len(obs)
	if n == 0 {
		return nil
	}
	if err := db.faults.Fire(faults.OpLakeInsert, obs[0].Source); err != nil {
		return err
	}
	// Counting-sort the batch indices by stripe so each stripe visit walks
	// only its own records instead of rescanning the whole batch. The
	// series hashes are kept: the stripe loop reuses them for the
	// cell-table probes.
	var hashBuf [1024]uint32
	var ordBuf [1024]int32
	var hashes []uint32
	var order []int32
	if n <= len(hashBuf) {
		hashes, order = hashBuf[:n:n], ordBuf[:n:n]
	} else {
		hashes, order = make([]uint32, n), make([]int32, n)
	}
	var counts, pos [shardCount]int32
	for i := range obs {
		h := SeriesHash(obs[i].Component, obs[i].Metric)
		hashes[i] = h
		counts[h%shardCount]++
	}
	acc := int32(0)
	for s := range counts {
		pos[s] = acc
		acc += counts[s]
	}
	for i := range obs {
		s := hashes[i] % shardCount
		order[pos[s]] = int32(i)
		pos[s]++ // pos[s] ends at the stripe's group end
	}
	// Stagger which stripe each batch starts with: concurrent batches all
	// walking stripes 0..N in lockstep would convoy on the same mutexes.
	start := int(db.batchCursor.Add(1)) % shardCount
	chunkD := int64(db.opts.SegmentDuration)
	for k := 0; k < shardCount; k++ {
		s := (start + k) % shardCount
		if counts[s] == 0 {
			continue
		}
		sh := &db.shards[s]
		sh.mu.Lock()
		// Batch timestamps are overwhelmingly near-monotonic: keep the
		// current chunk's segment across the run, so a record finds it
		// without a division or a map lookup, and its cell table finds
		// the bucket by itself.
		var seg *segment
		chunkN := int64(0)
		for _, oi := range order[pos[s]-counts[s] : pos[s]] {
			o := &obs[oi]
			tsn := o.Ts.UnixNano()
			if seg == nil || uint64(tsn-chunkN) >= uint64(chunkD) {
				if chunkN = tsn - FloorMod(tsn, chunkD); chunkN > tsn || chunkN > math.MaxInt64-chunkD {
					seg = nil
					continue
				}
				seg = db.segmentLocked(sh, chunkN)
			}
			insertLocked(sh, seg, hashes[oi], tsn, o)
		}
		sh.version.Add(1)
		sh.mu.Unlock()
	}
	// Per-batch (never per-record) instrumentation: two striped counter
	// adds, the whole hot-path observability budget.
	if ins := db.instr.Load(); ins != nil {
		ins.insertBatches.Inc()
		ins.insertRows.Add(int64(n))
	}
	return nil
}

// ScanSlotCap reports the DB-wide scan-slot budget — the maximum number
// of helper goroutines the query engine will ever run at once. It bounds
// fan-out, not admission: a query that finds every slot taken scans
// inline on its own goroutine, never refused. The serving gateway may
// size its admission window from it, so admitted queries track what the
// engine can fan out instead of an unrelated constant.
func (db *DB) ScanSlotCap() int { return cap(db.scanSlots) }

// Retain drops segments whose chunk ended before cutoff and returns how
// many time chunks were dropped — the LAKE tier's bounded retention.
func (db *DB) Retain(cutoff time.Time) int {
	dropped := make(map[int64]struct{})
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.Lock()
		before := len(sh.segments)
		for k := range sh.segments {
			if time.Unix(0, k).Add(db.opts.SegmentDuration).Before(cutoff) {
				delete(sh.segments, k)
				dropped[k] = struct{}{}
			}
		}
		if len(sh.segments) != before {
			sh.version.Add(1)
		}
		sh.mu.Unlock()
	}
	return len(dropped)
}

// Stats summarizes store contents.
type Stats struct {
	Segments    int
	RollupCells int64
	// Series counts series dictionary entries across the live cell
	// tables: a series is counted once per (stripe, chunk) table it has
	// cells in, so retention bounds it the way it bounds RollupCells.
	Series      int64
	RawIngested int64
}

// Stats returns current counters. Segments counts distinct time chunks
// (a chunk's cells are spread across shards but it is one segment).
func (db *DB) Stats() Stats {
	var st Stats
	chunks := make(map[int64]struct{})
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.RLock()
		st.RawIngested += sh.ingested
		for k, s := range sh.segments {
			chunks[k] = struct{}{}
			st.RollupCells += int64(s.cells.Len())
			st.Series += int64(len(s.cells.Dict()))
		}
		sh.mu.RUnlock()
	}
	st.Segments = len(chunks)
	return st
}

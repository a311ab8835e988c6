// Scatter-gather surface for the cluster's query router: a query can be
// executed one lock stripe at a time (StripePartial), shipped across
// nodes, and folded back together (MergeStripePartials) with results
// byte-identical to a single-node Run. The identity holds because float
// accumulation order only matters within one output group, every group's
// cells live on exactly one stripe (striping hashes the same dimensions
// the group key is built from, component+metric — and the dimensions a
// group does not include are aggregated over cells that still fold in
// stripe-major, chunk-ascending, insertion order), and the merge is the
// kernel's own (kernel.go): remote partials are fed to the GroupTable.Merge
// Run's in-process merge calls, in the same fixed stripe order
// 0..NumStripes-1, and emitted by the same Plan.Frame. A partial's group
// ids index its own dictionary, so each merge remaps them into the
// total's; the strings leave the tables only at emit.
package tsdb

import (
	"fmt"
	"math"
	"sync"
	"time"

	"odakit/internal/schema"
)

// StripeScanStats counts what one stripe-local scan did; the router sums
// them into a cluster-level QueryStats.
type StripeScanStats struct {
	SegmentsScanned int
	SegmentsPruned  int
	CellsScanned    int64
	CellsMatched    int64
}

// StripePartial is one stripe's partial-aggregation result: the output
// groups that stripe's cells contribute to, with full aggregation state
// so any AggKind can be finalized after the merge. Determinism comes from
// per-group accumulation order, which scanShard fixes at chunk-ascending,
// insertion order.
type StripePartial struct {
	Stripe int
	Stats  StripeScanStats
	groups *GroupTable // nil once merged
}

// Groups returns how many output groups the partial carries; 0 once
// merged.
func (sp *StripePartial) Groups() int {
	if sp.groups == nil {
		return 0
	}
	return sp.groups.Len()
}

// partialTables recycles the tables of stripe partials: MergeStripePartials
// hands back every table it consumed, so a scatter-gather regrows no
// slots, group dictionary or scratch per query. A table is Reset on Put.
var partialTables = sync.Pool{New: func() any { return new(GroupTable) }}

// StripePartial executes q against a single lock stripe of the hot tier
// and returns that stripe's partial aggregation. The cold tier is not
// consulted: clustered nodes serve the hot tier and leave OCEAN/GLACIER
// federation to the single-facility query path.
func (db *DB) StripePartial(q Query, stripe int) (*StripePartial, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	if stripe < 0 || stripe >= NumStripes {
		return nil, fmt.Errorf("%w: stripe %d out of range", ErrBadQuery, stripe)
	}
	plan := Compile(q)
	sp := &StripePartial{Stripe: stripe, groups: partialTables.Get().(*GroupTable)}
	sp.Stats = db.scanShard(stripe, &plan, sp.groups)
	return sp, nil
}

// MergeStripePartials folds stripe partials — which must be supplied in
// ascending stripe order, Run's fixed fold order, and are consumed: each
// one's table goes back to partialTables — into the final result frame,
// sorted and emitted by the same code as Run. Nil entries (stripes with
// no live owner already reported as errors by the router) are rejected:
// a silent gap would silently drop that stripe's groups.
func MergeStripePartials(q Query, parts []*StripePartial) (*schema.Frame, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	total := partialTables.Get().(*GroupTable)
	defer func() { total.Reset(); partialTables.Put(total) }()
	prev := -1
	for _, sp := range parts {
		if sp == nil {
			return nil, fmt.Errorf("%w: nil stripe partial", ErrBadQuery)
		}
		if sp.groups == nil {
			return nil, fmt.Errorf("%w: stripe %d partial merged twice", ErrBadQuery, sp.Stripe)
		}
		if sp.Stripe <= prev {
			return nil, fmt.Errorf("%w: stripe partials out of order (%d after %d)", ErrBadQuery, sp.Stripe, prev)
		}
		prev = sp.Stripe
		total.Merge(sp.groups)
		sp.groups.Reset()
		partialTables.Put(sp.groups)
		sp.groups = nil
	}
	plan := Compile(q)
	return plan.Frame(total)
}

// CellExport writes cell tables as one ColdSchema frame in fold order:
// each stripe's tables go in chunk-ascending order, and a cell's seq is
// its position in its stripe's run. ExportStripes and a CQ checkpoint
// both write through it; LoadCells reads what it writes.
type CellExport struct {
	b   cellColumns
	seq [NumStripes]int
}

// Grow reserves room for n more cells.
func (e *CellExport) Grow(n int) { e.b.grow(n) }

// Add appends t's cells, in insertion order, to stripe's run.
func (e *CellExport) Add(stripe int, t *CellTable) {
	dict := t.Dict()
	for pi := 0; pi < t.Pages(); pi++ {
		keys, cells := t.Page(pi)
		for i := range keys {
			e.b.add(stripe, e.seq[stripe], t.BucketStart(keys[i].Bucket), &dict[keys[i].Series], &cells[i])
			e.seq[stripe]++
		}
	}
}

// Frame hands the cells over as a ColdSchema frame; e is spent.
func (e *CellExport) Frame() (*schema.Frame, error) { return e.b.frame() }

// LoadCells is the one loader of ColdSchema cells that crossed a
// transport or came off disk, into tables of segN-wide chunks of
// rollupN-wide buckets. A frame that is not ColdSchema, carries a null,
// or puts a row on a stripe other than its series' own, a bucket off the
// rollupN grid or one whose chunk is not representable is refused before
// any cell lands. The rows then land in frame order, which cells new to
// a table take as their insertion order: row r goes to the table that
// table(stripe, chunk, count) returns for its bucket's chunk, count
// being the raw observations the row rolls up; a table whose grid does
// not hold the bucket is an error. Into existing tables a row merges;
// into fresh ones (fresh) it is copied exactly, and a (bucket, series)
// the table already holds is an error.
func LoadCells(f *schema.Frame, segN, rollupN int64, fresh bool, table func(stripe int, chunkN, count int64) *CellTable) error {
	if !f.Schema().Equal(ColdSchema) {
		return fmt.Errorf("tsdb: cells: frame schema %v does not conform to ColdSchema", f.Schema())
	}
	cols, stripe, _ := coldColumns(f)
	bad := func(r int, format string, args ...any) error {
		return fmt.Errorf("tsdb: cells: stripe %d, row %d: "+format, append([]any{stripe[r], r}, args...)...)
	}
	for r, s := range stripe {
		if f.Col(0).IsNull(r) { // ColdSchema's first column is the stripe
			return fmt.Errorf("tsdb: cells: row %d: null stripe", r)
		}
		for i := 1; i < ColdSchema.Len(); i++ {
			if f.Col(i).IsNull(r) {
				return bad(r, "null %s", ColdSchema.Field(i).Name)
			}
		}
		// Implies 0 <= s < NumStripes.
		if own := StripeFor(cols.Dims[2][r], cols.Dims[3][r]); s != int64(own) {
			return bad(r, "series %s/%s lives on stripe %d", cols.Dims[2][r], cols.Dims[3][r], own)
		}
		b := cols.Bucket[r]
		if FloorMod(b, rollupN) != 0 {
			return bad(r, "bucket %d is off the %v rollup grid", b, time.Duration(rollupN))
		}
		// Flooring wraps within a chunk of either end of the int64 range.
		if c := b - FloorMod(b, segN); c > b || c-FloorMod(c, rollupN) > c || c > math.MaxInt64-segN {
			return bad(r, "bucket %d has no %v chunk", b, time.Duration(segN))
		}
	}
	for r := range stripe {
		ts, cell := cols.Bucket[r], cols.cell(int32(r))
		s := Series{System: cols.Dims[0][r], Source: cols.Dims[1][r], Component: cols.Dims[2][r], Metric: cols.Dims[3][r]}
		ct := table(int(stripe[r]), ts-FloorMod(ts, segN), cell.Count)
		if uint64(ts-ct.grid.origin)/uint64(ct.grid.width) >= uint64(ct.grid.span) {
			return bad(r, "bucket %d is outside its table's grid", ts)
		}
		n := ct.Len()
		c := ct.Cell(SeriesHash(s.Component, s.Metric), ts, &s)
		switch {
		case !fresh:
			c.Merge(cell)
		case ct.Len() == n:
			return bad(r, "cell %s/%s/%s/%s at %d listed twice", s.System, s.Source, s.Component, s.Metric, ts)
		default:
			*c = cell
		}
	}
	return nil
}

// ExportStripes serializes every cell of the given stripes as a
// ColdSchema frame in stripe-major, chunk-ascending, insertion order —
// the exact fold order of a stripe scan; seq is the cell's position in
// its stripe's run. Importing the frame into an empty stripe via
// ImportStripes rebuilds each (stripe, chunk) cell table with identical
// insertion order, so a re-replicated replica answers StripePartial
// byte-identically to the replica it was copied from. Both stores must
// share SegmentDuration and RollupInterval.
func (db *DB) ExportStripes(stripes []int) (*schema.Frame, error) {
	var e CellExport
	for _, si := range stripes {
		if si < 0 || si >= NumStripes {
			return nil, fmt.Errorf("tsdb: export stripe %d out of range", si)
		}
		sh := &db.shards[si]
		sh.mu.RLock()
		for _, chunkN := range SortedChunks(sh.segments) {
			e.Add(si, sh.segments[chunkN].cells)
		}
		sh.mu.RUnlock()
	}
	return e.Frame()
}

// ImportStripes merges a ColdSchema frame — a peer's ExportStripes — into
// the store through LoadCells, so a frame it refuses lands no cell. Each
// run of one stripe takes that stripe's lock, and bumps its version, once.
func (db *DB) ImportStripes(f *schema.Frame) error {
	var held *dbShard
	release := func() {
		if held != nil {
			held.version.Add(1)
			held.mu.Unlock()
		}
	}
	err := LoadCells(f, int64(db.opts.SegmentDuration), int64(db.opts.RollupInterval), false, func(stripe int, chunkN, count int64) *CellTable {
		if sh := &db.shards[stripe]; sh != held {
			release()
			held = sh
			sh.mu.Lock()
		}
		seg := db.segmentLocked(held, chunkN)
		seg.rows += count
		held.ingested += count
		return seg.cells
	})
	release()
	return err
}

// DropStripes discards every segment whose cells live on the given
// stripes, leaving the rest of the store untouched. This is the
// destructive half of stripe re-replication: a replica that diverged
// (missed an insert) drops the stripe and re-imports it from a healthy
// peer's ExportStripes frame, which rebuilds cells in the peer's exact
// scan order.
func (db *DB) DropStripes(stripes []int) error {
	for _, s := range stripes {
		if s < 0 || s >= NumStripes {
			return fmt.Errorf("tsdb: drop: stripe %d out of range [0,%d)", s, NumStripes)
		}
	}
	for _, s := range stripes {
		sh := &db.shards[s]
		sh.mu.Lock()
		for _, seg := range sh.segments {
			sh.ingested -= seg.rows
		}
		sh.segments = make(map[int64]*segment)
		sh.version.Add(1)
		sh.mu.Unlock()
	}
	return nil
}

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
// 0..NumStripes-1, and emitted by the same Plan.Frame.
package tsdb

import (
	"fmt"

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
	groups GroupTable
}

// Groups returns how many output groups the partial carries.
func (sp *StripePartial) Groups() int { return sp.groups.Len() }

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
	sp := &StripePartial{Stripe: stripe}
	sp.Stats = db.scanShard(stripe, &plan, &sp.groups)
	return sp, nil
}

// MergeStripePartials folds stripe partials — which must be supplied in
// ascending stripe order, Run's fixed fold order, and are consumed (see
// GroupTable.Merge) — into the final result frame, sorted and emitted by
// the same code as Run. Nil entries (stripes with no live owner already
// reported as errors by the router) are rejected: a silent gap would
// silently drop that stripe's groups.
func MergeStripePartials(q Query, parts []*StripePartial) (*schema.Frame, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	total := &GroupTable{}
	prev := -1
	for _, sp := range parts {
		if sp == nil {
			return nil, fmt.Errorf("%w: nil stripe partial", ErrBadQuery)
		}
		if sp.Stripe <= prev {
			return nil, fmt.Errorf("%w: stripe partials out of order (%d after %d)", ErrBadQuery, sp.Stripe, prev)
		}
		prev = sp.Stripe
		total.Merge(&sp.groups)
	}
	plan := Compile(q)
	return plan.Frame(total)
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
	var b cellColumns
	for _, si := range stripes {
		if si < 0 || si >= NumStripes {
			return nil, fmt.Errorf("tsdb: export stripe %d out of range", si)
		}
		sh := &db.shards[si]
		sh.mu.RLock()
		seq := 0
		for _, chunkN := range SortedChunks(sh.segments) {
			seg := sh.segments[chunkN]
			for i := 0; i < seg.cells.Len(); i++ {
				k, c := seg.cells.At(i)
				b.add(si, seq, k.Ts, seg.cells.Series(k.Series), c)
				seq++
			}
		}
		sh.mu.RUnlock()
	}
	return b.frame()
}

// ImportStripes merges a ColdSchema frame — a peer's ExportStripes — into
// the store in frame order, which cells new to a table take as their
// insertion order. The frame has crossed a transport: one that is not
// ColdSchema, carries a null, or puts a row on a stripe other than its
// series' own is rejected before any cell lands. Each run of one stripe
// takes that stripe's lock, and bumps its version, once.
func (db *DB) ImportStripes(f *schema.Frame) error {
	if !f.Schema().Equal(ColdSchema) {
		return fmt.Errorf("tsdb: import: frame schema %v does not conform to ColdSchema", f.Schema())
	}
	cols, stripe, _ := coldColumns(f)
	for r, s := range stripe {
		for i := 0; i < ColdSchema.Len(); i++ {
			if f.Col(i).IsNull(r) {
				return fmt.Errorf("tsdb: import: row %d: null %s", r, ColdSchema.Field(i).Name)
			}
		}
		// Implies 0 <= s < NumStripes.
		if own := StripeFor(cols.Dims[2][r], cols.Dims[3][r]); s != int64(own) {
			return fmt.Errorf("tsdb: import: row %d: series %s/%s lives on stripe %d, not %d",
				r, cols.Dims[2][r], cols.Dims[3][r], own, s)
		}
	}
	chunkD := int64(db.opts.SegmentDuration)
	for lo, n := 0, len(stripe); lo < n; {
		hi := lo + 1
		for hi < n && stripe[hi] == stripe[lo] {
			hi++
		}
		sh := &db.shards[stripe[lo]]
		sh.mu.Lock()
		for r := int32(lo); r < int32(hi); r++ {
			ts, s, cell := cols.Bucket[r], cols.series(r), cols.cell(r)
			seg := sh.segmentLocked(ts - FloorMod(ts, chunkD))
			seg.cells.Cell(SeriesHash(s.Component, s.Metric), ts, &s).Merge(cell)
			seg.rows += cell.Count
			sh.ingested += cell.Count
		}
		sh.version.Add(1)
		sh.mu.Unlock()
		lo = hi
	}
	return nil
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

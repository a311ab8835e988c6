// The aggregation kernel: the one place the rollup algebra lives. Every
// path that turns rollup cells into an answer — the hot shard scan, the
// cold tier's row groups (tier.go), a continuous-query view's resident
// chunks (internal/cq) and the cluster's remote stripe partials
// (partial.go) — is a feeder of the same three GroupTable operations:
// Fold a CellTable (or FoldColumns a cold scan's vectors) under a Plan,
// Merge another table in stripe order, and emit (Plan.Frame). The
// byte-identity the property suites check across those paths therefore
// holds by construction: they share the float accumulation code, not a
// mirror of it. RunSerial (query.go) stays outside on purpose, as the
// independent reference.
//
// Inside the kernel a group is integers: its output bucket and an id in
// the table's own group dictionary. A feeder resolves a series (Fold) or
// a column code (FoldColumns) to its group id once, Merge remaps the
// other table's ids once per group, and only emit reads the grouped
// dimensions' strings back.
package tsdb

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"unsafe"

	"odakit/internal/schema"
)

// AggKind selects the aggregation applied to matching cells.
type AggKind int

// Supported aggregations.
const (
	AggAvg AggKind = iota
	AggSum
	AggMin
	AggMax
	AggCount
	AggLast
)

// Series names one time series: the four dimensions every rollup cell of
// it shares. A CellTable interns each series it holds once, in its own
// dictionary, and its cells' keys carry the series' id there.
type Series struct {
	System, Source, Component, Metric string
}

// at returns the series' value for a dimension slot (see dimIndex).
func (s *Series) at(d int) string {
	switch d {
	case 0:
		return s.System
	case 1:
		return s.Source
	case 2:
		return s.Component
	default:
		return s.Metric
	}
}

// Key identifies one rollup cell: a series in one rollup bucket. Both
// are integers that mean nothing outside the CellTable holding the cell:
// the bucket's ordinal on the table's grid (CellTable.BucketStart) and
// an id into the table's dictionary. A Key holds no pointer, so key
// pages are noscan and a push writes no pointer.
type Key struct {
	Bucket uint32 // ordinal on the owning table's bucket grid
	Series uint32 // the owning table's series id
}

// Cell is one rolled-up cell: enough state for every supported
// aggregation without keeping raw samples.
type Cell struct {
	Count    int64
	Sum      float64
	Min, Max float64
	LastTs   int64
	Last     float64
}

// Add rolls one sample into the cell.
func (c *Cell) Add(tsNanos int64, v float64) {
	if c.Count == 0 || v < c.Min {
		c.Min = v
	}
	if c.Count == 0 || v > c.Max {
		c.Max = v
	}
	c.Count++
	c.Sum += v
	if tsNanos >= c.LastTs {
		c.LastTs, c.Last = tsNanos, v
	}
}

// Merge folds another cell's state into c. Float sums are
// order-sensitive: callers fix the merge order to keep results
// reproducible.
func (c *Cell) Merge(o Cell) {
	if o.Count == 0 {
		return
	}
	if c.Count == 0 || o.Min < c.Min {
		c.Min = o.Min
	}
	if c.Count == 0 || o.Max > c.Max {
		c.Max = o.Max
	}
	c.Count += o.Count
	c.Sum += o.Sum
	if o.LastTs >= c.LastTs {
		c.LastTs, c.Last = o.LastTs, o.Last
	}
}

// Value finalizes the cell for one aggregation.
func (c *Cell) Value(kind AggKind) float64 {
	switch kind {
	case AggSum:
		return c.Sum
	case AggMin:
		return c.Min
	case AggMax:
		return c.Max
	case AggCount:
		return float64(c.Count)
	case AggLast:
		return c.Last
	default: // AggAvg
		if c.Count == 0 {
			return 0
		}
		return c.Sum / float64(c.Count)
	}
}

// CellTable maps (series, bucket) to Cell for one time chunk of a LAKE
// segment or a CQ view. Layout is structure-of-arrays: insertion-ordered,
// parallel key and cell pages, which queries stream over sequentially,
// touching aggregation state only for cells that match.
//
// The owner gives the table its bucket grid (NewCellTable), so a cell is
// found by arithmetic: each series keeps a run of 1-based cell positions
// over the bucket ordinals it touched, the runs back to back in one
// arena. A record in its series' latest bucket — most records, since
// telemetry samples faster than the rollup — costs a compare and a load;
// any other costs a division and, in a bucket new to the series, a
// widened run. A run costs the buckets its series touched, rounded up to
// a power of two, never the chunk's width. Per cell that is an 8-byte
// Key, the 48-byte Cell and a 4-byte run slot (~60–64 bytes with run
// rounding and dead slots), where a 16-byte Key holding the bucket's
// timestamp plus an open-addressed probe index (8 bytes a cell at up to
// 3/4 load) cost 75–85; per series, a 12-byte run replaces a 16-byte
// cursor.
//
// Each table interns its series in a dictionary of its own, in
// first-insertion order, and whatever reads dimensions reads them back
// through the table (Series, Dict). The dictionary lives and dies with
// the table, so retention bounds it, and ids never leave the table:
// everything a table writes out (ColdSchema frames, checkpoints, stripe
// partials) carries the strings and the bucket's timestamp.
//
// Cells live in pages of pageSize entries that are never re-copied: a
// table that keeps growing allocates each byte of cell storage once,
// where one dense array re-grown 1.25x at a time zeroed ~5x and moved
// ~4x its final size. Page 0 still grows by append, so the many tiny
// tables (a CQ view keeps one per stripe, chunk and partition) pay for
// the cells they hold, not for a page; every later page is allocated
// full.
type CellTable struct {
	first  cellPage   // page 0, grown by append up to pageSize entries
	rest   []cellPage // pages 1.., each allocated at full capacity
	n      int
	series dict[Series] // series id → dimensions, probed by SeriesHash
	grid   grid
	runs   []seriesRun // by series id
	// slots holds the runs' cell positions, 0 for a bucket the series
	// has no cell in. A run that outgrows its capacity moves to the end,
	// leaving its old slots dead until the arena is next reallocated.
	slots []int32
}

// grid is a table's buckets: bucket b < span starts at origin + b×width.
type grid struct {
	origin, width int64
	span          uint32
}

// seriesRun is one series' run: the slots from off hold its cells'
// positions in buckets lo..lo+n-1, so its latest bucket is lo+n-1; n is 0
// until the series has a cell. Its capacity is runCap(n).
type seriesRun struct{ lo, n, off uint32 }

// NewCellTable returns an empty table for the chunk of g that starts at
// chunkN: its grid is the chunk's Segment / Rollup buckets from chunkN.
func NewCellTable(chunkN int64, g Geometry) *CellTable {
	span := int64(g.Segment / g.Rollup)
	if span > math.MaxUint32 {
		panic(fmt.Sprintf("tsdb: a %v chunk holds %d buckets of %v", g.Segment, span, g.Rollup))
	}
	return &CellTable{grid: grid{origin: chunkN, width: int64(g.Rollup), span: uint32(span)}}
}

// BucketStart returns the start, in unix nanos, of the bucket a Key's
// Bucket names on t's grid.
func (t *CellTable) BucketStart(b uint32) int64 { return t.grid.origin + int64(b)*t.grid.width }

// cellPage is one run of the table's parallel key and cell arrays — the
// slice pair GroupTable.Fold consumes.
type cellPage struct {
	keys  []Key
	cells []Cell
}

// pageSize is an RSS decision: every table that outgrew page 0 strands
// part of its last page. A full page is 2 KB of keys plus 12 KB of cells,
// both exact malloc size classes. Measured on the benchmark harness with
// the 72-byte string keys of the time (medians of 10 runs; 5 for 1024):
// history_scan, whose 160 hot tables hold ~1200 cells each, read
// peak_rss_mb 94.9 with one dense array pair per table, 88.9 with
// 256-entry pages and 106 with 1024-entry pages, while ingest_replicated
// — +25 % records/s and -24 % RSS over the dense layout at 256 — gained
// nothing further at 1024 (406-459 k records/s in 3 runs against
// 468-505 k).
const (
	pageShift = 8
	pageSize  = 1 << pageShift
)

// dictRef is one dictionary index entry: the probe hash plus a 1-based
// insertion position (0 marks an empty slot).
type dictRef struct {
	hash uint32
	idx  int32
}

// SeriesHash is FNV-1a over component and metric — the dimensions that
// actually vary across concurrent producers. It is computed once per
// record and reused for the lock stripe (modulo NumStripes) and the
// series dictionary probe; series differing only in system or source
// share a stripe and a probe chain, which costs a little clustering,
// never correctness.
func SeriesHash(component, metric string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(component); i++ {
		h = (h ^ uint32(component[i])) * prime32
	}
	h = (h ^ 0xff) * prime32 // separator so ("ab","c") != ("a","bc")
	for i := 0; i < len(metric); i++ {
		h = (h ^ uint32(metric[i])) * prime32
	}
	return h
}

// Cell returns series s's cell in the bucket holding ts (creating the
// series' dictionary entry and the cell if absent). seriesH must be
// SeriesHash(s.Component, s.Metric) and ts inside the table's grid. A
// cell moves only while page 0 is still growing: once the table holds
// pageSize cells every pointer handed out stays valid for the table's
// lifetime; below that, only until the next Cell call that inserts.
func (t *CellTable) Cell(seriesH uint32, ts int64, s *Series) *Cell {
	id := t.series.intern(seriesH, s)
	if int(id) == len(t.runs) {
		t.runs = append(t.runs, seriesRun{})
	}
	r := &t.runs[id]
	if r.n != 0 && uint64(ts-t.BucketStart(r.lo+r.n-1)) < uint64(t.grid.width) {
		_, c := t.At(int(t.slots[r.off+r.n-1] - 1))
		return c
	}
	return t.cell(r, id, uint32((ts-t.grid.origin)/t.grid.width))
}

// cell finds series id's cell in bucket b through the series' run r,
// adding the cell, and widening the run to cover b, if absent.
func (t *CellTable) cell(r *seriesRun, id, b uint32) *Cell {
	switch {
	case r.n == 0:
		r.lo, r.n, r.off = b, 1, t.reserve(1)
	case b < r.lo:
		t.widen(r, b, r.lo+r.n-b)
	case b >= r.lo+r.n:
		t.widen(r, r.lo, b-r.lo+1)
	default:
		if pos := t.slots[r.off+b-r.lo]; pos != 0 {
			_, c := t.At(int(pos - 1))
			return c
		}
	}
	t.slots[r.off+b-r.lo] = int32(t.n + 1)
	return t.push(Key{Bucket: b, Series: id})
}

// runCap is the capacity of a run covering n buckets: n rounded up to a
// power of two, at most the grid's span.
func (t *CellTable) runCap(n uint32) uint32 {
	return min(1<<bits.Len32(n-1), t.grid.span)
}

// widen makes run r cover the n buckets from lo, which include its own,
// keeping its positions. A run that outgrows its capacity moves to the
// arena's end.
func (t *CellTable) widen(r *seriesRun, lo, n uint32) {
	shift := r.lo - lo
	old := t.slots[r.off : r.off+r.n]
	if n <= t.runCap(r.n) {
		run := t.slots[r.off : r.off+n]
		copy(run[shift:], old)
		clear(run[:shift])
	} else {
		r.n = 0 // reserve must not keep the old slots: they are copied here
		r.off = t.reserve(t.runCap(n))
		copy(t.slots[r.off+shift:], old)
	}
	r.lo, r.n = lo, n
}

// reserve returns the offset of c zeroed slots at the arena's end. An
// arena without room is replaced by one half again the size of the live
// runs, which it copies; the dead slots of moved runs stay behind.
func (t *CellTable) reserve(c uint32) uint32 {
	if len(t.slots)+int(c) > cap(t.slots) {
		live := int(c)
		for _, r := range t.runs {
			if r.n != 0 {
				live += int(t.runCap(r.n))
			}
		}
		arena := make([]int32, 0, max(live+live/2, 16))
		for i := range t.runs {
			if r := &t.runs[i]; r.n != 0 {
				off := len(arena)
				arena = append(arena, t.slots[r.off:r.off+t.runCap(r.n)]...)
				r.off = uint32(off)
			}
		}
		t.slots = arena
	}
	off := len(t.slots)
	t.slots = t.slots[:off+int(c)]
	return uint32(off)
}

// dict interns values in first-insertion order, id i naming vals[i]: a
// CellTable's series, a GroupTable's groups and the cold fold's code
// tuples. The probe compares whole values, so values that share a hash
// keep their own ids.
type dict[T comparable] struct {
	vals   []T
	byHash []dictRef // probe index, by the hash callers pass
}

// intern returns v's id, adding v if it is new; h is v's hash.
func (d *dict[T]) intern(h uint32, v *T) uint32 {
	if len(d.vals) >= len(d.byHash)*3/4 {
		d.byHash = grown(d.byHash)
	}
	mask := uint32(len(d.byHash) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		r := d.byHash[i]
		if r.idx == 0 {
			d.byHash[i] = dictRef{hash: h, idx: int32(len(d.vals) + 1)}
			d.vals = append(d.vals, *v)
			return uint32(len(d.vals) - 1)
		}
		if r.hash == h && d.vals[r.idx-1] == *v {
			return uint32(r.idx - 1)
		}
	}
}

// reset empties d, keeping its storage.
func (d *dict[T]) reset() {
	d.vals = d.vals[:0]
	clear(d.byHash)
}

// push appends key with an empty cell at position t.n.
func (t *CellTable) push(key Key) *Cell {
	p := &t.first
	if t.n >= pageSize {
		if t.n&(pageSize-1) == 0 {
			t.rest = append(t.rest, cellPage{
				keys: make([]Key, 0, pageSize), cells: make([]Cell, 0, pageSize),
			})
		}
		p = &t.rest[len(t.rest)-1]
	}
	p.keys = append(p.keys, key)
	p.cells = append(p.cells, Cell{})
	t.n++
	return &p.cells[len(p.cells)-1]
}

// Len returns the number of cells.
func (t *CellTable) Len() int { return t.n }

// At returns the i-th cell in insertion order, 0 <= i < Len.
func (t *CellTable) At(i int) (*Key, *Cell) {
	p := &t.first
	if i >= pageSize {
		p = &t.rest[i>>pageShift-1]
		i &= pageSize - 1
	}
	return &p.keys[i], &p.cells[i]
}

// Series returns the dimensions of the table's series id. Treat them as
// read-only.
func (t *CellTable) Series(id uint32) *Series { return &t.series.vals[id] }

// Dict returns the table's series dictionary, indexed by series id — what
// Fold resolves a page's keys through. Treat it as read-only.
func (t *CellTable) Dict() []Series { return t.series.vals }

// Pages returns the number of pages; Page(0..Pages-1) in order is the
// whole table in insertion order.
func (t *CellTable) Pages() int {
	if t.n == 0 {
		return 0
	}
	return 1 + len(t.rest)
}

// Page returns page i's parallel key and cell slices, for Fold.
func (t *CellTable) Page(i int) ([]Key, []Cell) {
	p := &t.first
	if i > 0 {
		p = &t.rest[i-1]
	}
	return p.keys, p.cells
}

// grown returns a dictionary index rehashed into twice its slots, or
// into 16 when it is empty.
func grown(old []dictRef) []dictRef {
	newCap := max(2*len(old), 16)
	index := make([]dictRef, newCap)
	mask := uint32(newCap - 1)
	for _, r := range old {
		if r.idx == 0 {
			continue
		}
		i := r.hash & mask
		for index[i].idx != 0 {
			i = (i + 1) & mask
		}
		index[i] = r
	}
	return index
}

// FloorMod returns x mod m with the sign of m (m > 0), so bucket
// alignment is correct for timestamps before the epoch too.
func FloorMod(x, m int64) int64 {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}

// SortedChunks returns the chunk starts keying m in ascending order —
// the order every fold visits a stripe's time chunks in.
func SortedChunks[V any](m map[int64]V) []int64 {
	chunks := make([]int64, 0, len(m))
	for k := range m {
		chunks = append(chunks, k)
	}
	slices.Sort(chunks)
	return chunks
}

// dimFilter is one compiled dimension constraint. Single-value filters
// (the common dashboard shape: one metric) compare directly; multi-value
// filters hit a lookup set. Compiling once per query replaces the
// per-cell map iteration + nested linear scan of matchFilters.
type dimFilter struct {
	dim    int
	single string
	set    map[string]struct{} // nil when single applies
}

// Plan is a compiled query: the time range, bucket width, dimension
// filters, group-by slots and aggregation every feeder folds under.
type Plan struct {
	fromN, toN  int64
	granN       int64
	collapsedTs int64 // output ts when granN == 0
	filters     []dimFilter
	groupDims   []int // dimension slot per GroupBy position
	agg         AggKind
	result      *schema.Schema
	// shape is the query's Query.shape when a cold tier may key cached
	// segment partials on it (set by RunWithStats), "" otherwise.
	shape string
}

// Compile builds q's plan. It does not validate; a standing query
// compiles its shape once with a zero range and sets the window per read
// with Over.
func Compile(q Query) Plan {
	p := Plan{
		fromN:       clampNanos(q.From),
		toN:         clampNanos(q.To),
		granN:       int64(q.Granularity),
		collapsedTs: q.From.UnixNano(),
		agg:         q.Agg,
		result:      q.ResultSchema(),
	}
	for d := 0; d < len(dimNames); d++ {
		vals, ok := q.Filters[dimNames[d]]
		if !ok {
			continue
		}
		f := dimFilter{dim: d}
		if len(vals) == 1 {
			f.single = vals[0]
		} else {
			f.set = make(map[string]struct{}, len(vals))
			for _, v := range vals {
				f.set[v] = struct{}{}
			}
		}
		p.filters = append(p.filters, f)
	}
	p.groupDims = make([]int, len(q.GroupBy))
	for i, d := range q.GroupBy {
		p.groupDims[i] = dimIndex(d)
	}
	return p
}

// Over returns the plan re-targeted at [fromN, toN) with granN-wide
// output buckets; granN 0 collapses the range into one bucket at fromN.
func (p Plan) Over(fromN, toN, granN int64) Plan {
	p.fromN, p.toN, p.granN, p.collapsedTs = fromN, toN, granN, fromN
	return p
}

// Admitted returns the plan without its dimension filters, for folding
// cells that already passed Match (a view admits at apply time, the cold
// tier pushes the filters down into the columnar reader).
func (p Plan) Admitted() Plan {
	p.filters = nil
	return p
}

// Match reports whether a series passes every compiled filter.
func (p *Plan) Match(s *Series) bool {
	for i := range p.filters {
		f := &p.filters[i]
		v := s.at(f.dim)
		if f.set == nil {
			if v != f.single {
				return false
			}
		} else if _, ok := f.set[v]; !ok {
			return false
		}
	}
	return true
}

// tuple returns s's values of p's grouped dimensions, aligned with the
// query's GroupBy: a group's dictionary entry.
func (p *Plan) tuple(s *Series) (tuple [4]string) {
	for gi, d := range p.groupDims {
		tuple[gi] = s.at(d)
	}
	return tuple
}

// Chunk classifies the time chunk [chunkN, chunkN+segDur) against the
// plan's range: whether it overlaps at all (else prune it), and whether
// it lies wholly inside, in which case Fold needs no per-cell time check.
func (p *Plan) Chunk(chunkN, segDur int64) (overlaps, contained bool) {
	if chunkN >= p.toN || chunkN+segDur <= p.fromN {
		return false, false
	}
	return true, chunkN >= p.fromN && chunkN+segDur <= p.toN
}

// GroupKey identifies one output group as emitted: the bucket start plus
// the grouped dimension values, aligned with the query's GroupBy.
type GroupKey struct {
	Ts   int64
	Dims [4]string
}

// Group is one output group with its full aggregation state, so any
// AggKind can be finalized after merging.
type Group struct {
	Key  GroupKey
	Cell Cell
}

// tupleHash hashes a group's values as two SeriesHash pairs.
func tupleHash(t *[4]string) uint32 {
	return SeriesHash(t[0], t[1])*16777619 ^ SeriesHash(t[2], t[3])
}

// GroupTable is the open-addressed partial-aggregation table — the query
// path's counterpart of the ingest path's CellTable. A group is keyed by
// its output bucket and a group id into the table's own dictionary of
// grouped dimension values: folding and merging hash and compare
// integers, a feeder resolves a series or a column code to its group id
// once, not per cell, and only emit (Sorted, Plan.Frame) reads the
// strings back. Group cells live inline in the slots; one table per
// stripe means no locks and no shared state between scan workers. The
// zero value is an empty table.
type GroupTable struct {
	slots  []groupSlot
	n      int
	groups dict[[4]string] // group id → grouped values, as GroupKey.Dims
	// Scratch kept across Reset, so a pooled table allocates none of it
	// per query: ids holds a folded CellTable's series → group memo
	// (Fold), a folded column set's tuple → group memo (FoldColumns), a
	// merged table's group remap (Merge) or the dictionary's sort
	// permutation (emitOrder), one at a time.
	ids  []uint32
	rank []uint32   // by group id: its tuple's place in sort order
	refs []groupRef // the groups in emit order
}

// groupSlot is one group: its bucket, its group id and its aggregation
// state. It holds no string, slice or pointer.
type groupSlot struct {
	ts   int64
	gid  uint32
	used bool
	cell Cell
}

// noGroup marks a series the plan does not admit in Fold's memo.
const noGroup = ^uint32(0)

// Len returns the number of groups.
func (t *GroupTable) Len() int { return t.n }

// Reset empties the table, keeping its storage for reuse.
func (t *GroupTable) Reset() {
	for i := range t.slots {
		t.slots[i].used = false
	}
	t.n = 0
	t.groups.reset()
}

// groupHash mixes a group's bucket and id into its slot hash; the multiply
// carries every input bit into the high half the hash is taken from.
func groupHash(ts int64, g uint32) uint32 {
	return uint32((uint64(ts) ^ uint64(g)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9 >> 32)
}

// cell returns the aggregation cell of group g in bucket ts, creating it
// if absent. The pointer is only valid until the next cell call (growth
// moves slots).
func (t *GroupTable) cell(ts int64, g uint32) *Cell {
	if t.n >= len(t.slots)*3/4 {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := groupHash(ts, g) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			// Slots are reused; clear the prior fold's state.
			*s = groupSlot{ts: ts, gid: g, used: true}
			t.n++
			return &s.cell
		}
		if s.ts == ts && s.gid == g {
			return &s.cell
		}
	}
}

func (t *GroupTable) grow() {
	newCap := 2 * len(t.slots)
	if newCap == 0 {
		newCap = 64
	}
	old := t.slots
	t.slots = make([]groupSlot, newCap)
	mask := uint32(newCap - 1)
	for oi := range old {
		s := &old[oi]
		if !s.used {
			continue
		}
		i := groupHash(s.ts, s.gid) & mask
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = *s
	}
}

// Fold accumulates the cells of ct — a LAKE segment's table or a view
// chunk's — into the table under p, page by page in insertion order, and
// returns how many cells matched. A series is tested against p's filters
// and resolved to its group id once, at its first cell in range, and
// memoized by series id: no cell does string work. contained skips the
// per-cell time check for a chunk wholly inside the range (see
// Plan.Chunk). Per-group accumulation order is insertion order, so
// folding tables in a fixed order makes float rounding deterministic.
func (t *GroupTable) Fold(p *Plan, ct *CellTable, contained bool) (matched int64) {
	dict := ct.Dict()
	gids := slices.Grow(t.ids[:0], len(dict))[:len(dict)]
	clear(gids)
	t.ids = gids
	for pi := 0; pi < ct.Pages(); pi++ {
		keys, cells := ct.Page(pi)
		matched += t.fold(p, &ct.grid, dict, gids, keys, cells, contained)
	}
	return matched
}

// group returns tuple's group id, adding it to the dictionary if it is new.
func (t *GroupTable) group(tuple *[4]string) uint32 {
	return t.groups.intern(tupleHash(tuple), tuple)
}

// fold accumulates one (keys, cells) page of a table whose bucket grid
// is g and whose series dictionary is dict. gids memoizes by series id
// 1 + the series' group id, noGroup for a series p does not admit, 0 for
// one not met yet.
func (t *GroupTable) fold(p *Plan, g *grid, dict []Series, gids []uint32, keys []Key, cells []Cell, contained bool) (matched int64) {
	for i := range keys {
		key := &keys[i]
		ts := g.origin + int64(key.Bucket)*g.width
		if !contained && (ts < p.fromN || ts >= p.toN) {
			continue
		}
		gid := gids[key.Series]
		if gid == 0 {
			gid = noGroup
			if s := &dict[key.Series]; p.Match(s) {
				tuple := p.tuple(s)
				gid = 1 + t.group(&tuple)
			}
			gids[key.Series] = gid
		}
		if gid != noGroup {
			matched++
			t.accumulate(p, ts, gid-1, &cells[i])
		}
	}
	return matched
}

// accumulate merges one admitted cell into group g's cell of its output
// bucket. It is the only copy of that sequence — Fold and FoldColumns both
// end here, so the hot scan, the CQ views, the cluster's stripe partials
// and the cold tier cannot drift.
func (t *GroupTable) accumulate(p *Plan, ts int64, g uint32, c *Cell) {
	if p.granN > 0 {
		ts -= FloorMod(ts, p.granN)
	} else {
		ts = p.collapsedTs
	}
	t.cell(ts, g).Merge(*c)
}

// Columns is a set of rollup cells held column-wise — what a cold scan
// projects out of an OCF object. A nil vector was not projected: its
// field reads as zero, which neither the group key nor the requested agg
// looks at (see coldPlan). Bucket and Count are always present.
type Columns struct {
	Bucket []int64
	Dims   [4][]string // by dimension slot: system, source, component, metric
	// Codes number the values of Dims, by slot, as columnar.Vector.Codes
	// does: rows with equal codes hold equal values, and every code is
	// below its vector's length. A grouped dimension must carry them.
	Codes  [4][]uint32
	Count  []int64
	Sum    []float64
	Min    []float64
	Max    []float64
	Last   []float64
	LastTs []int64
}

// rowTuples numbers the distinct tuples of grouped dimension values among
// a column set's rows from their codes alone, so a fold resolves each row
// to its group by integer lookups and reads a tuple's strings once per
// table it lands in.
type rowTuples struct {
	ids   []uint32        // by row: its tuple id
	codes dict[[4]uint32] // the tuples' codes, by tuple id
}

// number numbers the tuples of p's grouped dimensions among cols' rows,
// for the FoldColumns calls that fold them. Rows in file order come
// sorted by dimensions, so a row whose codes repeat the previous row's
// takes its tuple id without a dictionary probe.
func (rt *rowTuples) number(p *Plan, cols *Columns, rows []int32) {
	rt.ids = slices.Grow(rt.ids[:0], len(cols.Bucket))[:len(cols.Bucket)]
	rt.codes.reset()
	var last [4]uint32
	id := noGroup
	for _, r := range rows {
		var k [4]uint32
		same := id != noGroup
		for gi, d := range p.groupDims {
			k[gi] = cols.Codes[d][r]
			same = same && k[gi] == last[gi]
		}
		if !same {
			var h uint64
			for _, c := range k {
				h = (h ^ uint64(c)) * 0x9E3779B97F4A7C15
			}
			id, last = rt.codes.intern(uint32(h>>32), &k), k
		}
		rt.ids[r] = id
	}
}

// cell assembles row r's aggregation state.
func (c *Columns) cell(r int32) (x Cell) {
	x.Count = c.Count[r]
	if c.Sum != nil {
		x.Sum = c.Sum[r]
	}
	if c.Min != nil {
		x.Min = c.Min[r]
	}
	if c.Max != nil {
		x.Max = c.Max[r]
	}
	if c.Last != nil {
		x.Last = c.Last[r]
	}
	if c.LastTs != nil {
		x.LastTs = c.LastTs[r]
	}
	return x
}

// FoldColumns is Fold fed from column vectors: it accumulates rows
// order[0], order[1], … of cols, every one already admitted (time range
// and filters applied by whoever built order) and numbered by rt, so p's
// filters are not consulted. A row reaches its group through its tuple
// id; a tuple's strings are interned into t's dictionary once, when its
// first row comes, so no row does string work and nothing is staged on
// the heap. Per-group accumulation order is order's.
func (t *GroupTable) FoldColumns(p *Plan, cols *Columns, rt *rowTuples, order []int32) {
	// memo holds by tuple id 1 + its group id in t, 0 for none yet.
	memo := slices.Grow(t.ids[:0], len(rt.codes.vals))[:len(rt.codes.vals)]
	clear(memo)
	t.ids = memo
	var tuple [4]string
	for _, r := range order {
		x := rt.ids[r]
		if memo[x] == 0 {
			for gi, d := range p.groupDims {
				tuple[gi] = cols.Dims[d][r]
			}
			memo[x] = 1 + t.group(&tuple)
		}
		cell := cols.cell(r)
		t.accumulate(p, cols.Bucket[r], memo[x]-1, &cell)
	}
}

// Merge folds o's groups into t and leaves o's contents unspecified. o's
// group ids are remapped into t's dictionary once each, then its groups
// merge by integer key. Callers merge stripe partials in ascending stripe
// order — the fixed fold order that keeps float accumulation
// deterministic and identical to RunSerial. An empty t takes o's slots
// over instead of copying, so the first non-empty partial doubles as the
// accumulator and a query whose matches live on one stripe merges for
// free.
func (t *GroupTable) Merge(o *GroupTable) {
	if o.n == 0 {
		return
	}
	if t.n == 0 {
		*t, *o = *o, *t
		return
	}
	t.mergeGroups(o.groups.vals, o.slots)
}

// mergeGroups folds groups given as slots, whose ids index tuples, into t:
// each tuple is remapped into t's dictionary once, then every used slot
// merges by integer key. The arguments are only read.
func (t *GroupTable) mergeGroups(tuples [][4]string, slots []groupSlot) {
	remap := slices.Grow(t.ids[:0], len(tuples))
	for g := range tuples {
		remap = append(remap, t.group(&tuples[g]))
	}
	t.ids = remap
	for i := range slots {
		if s := &slots[i]; s.used {
			t.cell(s.ts, remap[s.gid]).Merge(s.cell)
		}
	}
}

// segPartial is one cold segment's fold under one query shape, frozen:
// per stripe, the groups it produced (bucket, id into the stripe's
// tuples, aggregation state) and the object version and size it was
// folded from. It holds no GroupTable and no decode scratch, and nothing
// writes it once frozen, so any number of queries merge it at once.
type segPartial struct {
	version, size int64
	tuples        [][4]string
	slots         []groupSlot // all used
	// Stripe s owns tuples[tupleOff[s]:tupleOff[s+1]] and
	// slots[slotOff[s]:slotOff[s+1]]; a slot's gid is relative to the
	// stripe's first tuple.
	tupleOff, slotOff [shardCount + 1]int32
}

// freeze copies the groups of tables, one per stripe, into a partial of
// the given object version.
func freeze(tables *[shardCount]GroupTable, version, size int64) *segPartial {
	nt, ns := 0, 0
	for s := range tables {
		nt += len(tables[s].groups.vals)
		ns += tables[s].n
	}
	sp := &segPartial{version: version, size: size,
		tuples: make([][4]string, 0, nt), slots: make([]groupSlot, 0, ns)}
	for s := range tables {
		t := &tables[s]
		sp.tuples = append(sp.tuples, t.groups.vals...)
		for i := range t.slots {
			if t.slots[i].used {
				sp.slots = append(sp.slots, t.slots[i])
			}
		}
		sp.tupleOff[s+1], sp.slotOff[s+1] = int32(len(sp.tuples)), int32(len(sp.slots))
	}
	return sp
}

// mergeInto merges each stripe's groups into tables[s].
func (sp *segPartial) mergeInto(tables *[shardCount]GroupTable) {
	for s := range tables {
		if lo, hi := sp.slotOff[s], sp.slotOff[s+1]; lo < hi {
			tables[s].mergeGroups(sp.tuples[sp.tupleOff[s]:sp.tupleOff[s+1]], sp.slots[lo:hi])
		}
	}
}

// bytes is the partial's resident size as the cache budgets it: its
// tuple and slot arrays plus a fixed allowance for the header, list and
// map entry. The tuples' strings are the decoder's interned values,
// shared with every other partial of the segment, and are not counted.
func (sp *segPartial) bytes() int64 {
	const overhead = 256
	return int64(cap(sp.tuples))*int64(unsafe.Sizeof([4]string{})) +
		int64(cap(sp.slots))*int64(unsafe.Sizeof(groupSlot{})) + overhead
}

// groupRef is one group's place in emit order: its bucket, its tuple's
// rank and its slot.
type groupRef struct {
	ts   int64
	rank uint32
	slot uint32
}

// emitOrder returns the table's groups ordered by (ts, grouped dimension
// values) — the row order of every result frame — in t's scratch. One
// sort of the dictionary ranks the tuples, so the groups sort on
// integers. Keys are unique, so the order is total.
func (t *GroupTable) emitOrder() []groupRef {
	perm := slices.Grow(t.ids[:0], len(t.groups.vals))
	for g := range t.groups.vals {
		perm = append(perm, uint32(g))
	}
	slices.SortFunc(perm, func(a, b uint32) int {
		x, y := &t.groups.vals[a], &t.groups.vals[b]
		for d := range x {
			if c := strings.Compare(x[d], y[d]); c != 0 {
				return c
			}
		}
		return 0
	})
	rank := slices.Grow(t.rank[:0], len(perm))[:len(perm)]
	for i, g := range perm {
		rank[g] = uint32(i)
	}
	refs := slices.Grow(t.refs[:0], t.n)
	for i := range t.slots {
		if s := &t.slots[i]; s.used {
			refs = append(refs, groupRef{ts: s.ts, rank: rank[s.gid], slot: uint32(i)})
		}
	}
	slices.SortFunc(refs, func(a, b groupRef) int {
		if a.ts != b.ts {
			return cmp.Compare(a.ts, b.ts)
		}
		return cmp.Compare(a.rank, b.rank)
	})
	t.ids, t.rank, t.refs = perm, rank, refs
	return refs
}

// Sorted returns the table's groups in emit order, their keys' strings
// read back from the dictionary.
func (t *GroupTable) Sorted() []Group {
	refs := t.emitOrder()
	groups := make([]Group, len(refs))
	for i, r := range refs {
		s, g := &t.slots[r.slot], &groups[i]
		g.Key, g.Cell = GroupKey{Ts: s.ts, Dims: t.groups.vals[s.gid]}, s.cell
	}
	return groups
}

// Frame emits the table as the plan's result frame: one row per group in
// emit order — ts, the grouped dimensions, then the finalized value.
func (p *Plan) Frame(t *GroupTable) (*schema.Frame, error) {
	out := schema.NewFrame(p.result)
	row := make(schema.Row, 0, len(p.groupDims)+2)
	for _, r := range t.emitOrder() {
		s := &t.slots[r.slot]
		row = append(row[:0], schema.TimeNanos(s.ts))
		for _, v := range t.groups.vals[s.gid][:len(p.groupDims)] {
			row = append(row, schema.Str(v))
		}
		row = append(row, schema.Float(s.cell.Value(p.agg)))
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

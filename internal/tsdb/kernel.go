// The aggregation kernel: the one place the rollup algebra lives. Every
// path that turns rollup cells into an answer — the hot shard scan, the
// cold tier's row groups (tier.go), a continuous-query view's resident
// chunks (internal/cq) and the cluster's remote stripe partials
// (partial.go) — is a feeder of the same three GroupTable operations:
// Fold an insertion-ordered (keys, cells) slice pair under a Plan, Merge
// another table in stripe order, and emit (Plan.Frame). The
// byte-identity the property suites check across those paths therefore
// holds by construction: they share the float accumulation code, not a
// mirror of it. RunSerial (query.go) stays outside on purpose, as the
// independent reference.
package tsdb

import (
	"cmp"
	"slices"
	"strings"

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

// Key identifies one rollup cell: a series in one rollup bucket. The
// series is an id into the dictionary of the CellTable that holds the
// cell; it means nothing outside that table. A Key holds no pointer, so
// key pages are noscan and a push writes no pointer.
type Key struct {
	Ts     int64  // rollup bucket start, unix nanos
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

// CellTable maps (series, bucket) to Cell. It replaces a Go map on the
// ingest hot path: the probe hash is derived from the series hash already
// computed for shard striping, and the stored hash makes misses cheap.
// Layout is structure-of-arrays: a compact open-addressed index (8 bytes
// per entry) resolves a key to a position in insertion-ordered, parallel
// key and cell pages. Queries stream sequentially over the packed keys and
// touch aggregation state only for cells that match.
//
// Each table interns its series in a dictionary of its own, in
// first-insertion order: a cell's Key is its bucket plus the series' id
// there, 16 pointer-free bytes, and whatever reads dimensions reads them
// back through the table (Series, Dict). The dictionary lives and dies
// with the table — a LAKE segment or a view chunk — so retention bounds
// it, and ids never leave the table: everything a table writes out
// (ColdSchema frames, checkpoints, stripe partials) carries the strings.
//
// Cells live in pages of pageSize entries that are never re-copied: a
// table that keeps growing allocates each byte of cell storage once,
// where one dense array re-grown 1.25x at a time zeroed ~5x and moved
// ~4x its final size. Page 0 still grows by append, so the many tiny
// tables (a CQ view keeps one per stripe, chunk and partition) pay for
// the cells they hold, not for a page; every later page is allocated
// full. The zero value is an empty table.
type CellTable struct {
	index  []cellRef  // cell probe index, by CellHash
	first  cellPage   // page 0, grown by append up to pageSize entries
	rest   []cellPage // pages 1.., each allocated at full capacity
	n      int
	series []Series  // the dictionary: series id → dimensions
	byHash []cellRef // series probe index, by SeriesHash
}

// cellPage is one run of the table's parallel key and cell arrays — the
// slice pair GroupTable.Fold consumes.
type cellPage struct {
	keys  []Key
	cells []Cell
}

// pageSize is an RSS decision: every table that outgrew page 0 strands
// part of its last page. A full page is 4 KB of keys plus 12 KB of cells,
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

// cellRef is one index entry: the probe hash plus a 1-based insertion
// position (0 marks an empty slot).
type cellRef struct {
	hash uint32
	idx  int32
}

// SeriesHash is FNV-1a over component and metric — the dimensions that
// actually vary across concurrent producers. It is computed once per
// record and reused for the lock stripe (modulo NumStripes), the series
// dictionary probe and the cell probe; series differing only in system or
// source share a stripe and a probe chain, which costs a little
// clustering, never correctness.
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

// cellHash mixes the rollup bucket into the series hash. bucketN is in
// nanos so consecutive buckets differ only in high bits; the shift brings
// them down and the odd multiplier spreads them.
func cellHash(seriesH uint32, bucketN int64) uint32 {
	return (seriesH ^ uint32(uint64(bucketN)>>30)) * 2654435761
}

// Cell returns series s's cell in the bucket starting at ts (creating the
// series' dictionary entry and the cell if absent). seriesH must be
// SeriesHash(s.Component, s.Metric). A cell moves only while page 0 is
// still growing: once the table holds pageSize cells every pointer handed
// out stays valid for the table's lifetime; below that, only until the
// next Cell call that inserts.
func (t *CellTable) Cell(seriesH uint32, ts int64, s *Series) *Cell {
	key := Key{Ts: ts, Series: t.intern(seriesH, s)}
	if t.n >= len(t.index)*3/4 { // covers the empty table too
		t.index = grown(t.index, 64)
	}
	h := cellHash(seriesH, ts)
	mask := uint32(len(t.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		r := t.index[i]
		if r.idx == 0 {
			t.index[i] = cellRef{hash: h, idx: int32(t.n + 1)}
			return t.push(key)
		}
		if r.hash == h {
			if k, c := t.At(int(r.idx - 1)); *k == key {
				return c
			}
		}
	}
}

// intern returns s's series id, adding s to the dictionary if it is new.
// h is s's SeriesHash; the probe compares all four dimensions, so series
// that share a hash keep their own ids.
func (t *CellTable) intern(h uint32, s *Series) uint32 {
	if len(t.series) >= len(t.byHash)*3/4 {
		t.byHash = grown(t.byHash, 16)
	}
	mask := uint32(len(t.byHash) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		r := t.byHash[i]
		if r.idx == 0 {
			t.byHash[i] = cellRef{hash: h, idx: int32(len(t.series) + 1)}
			t.series = append(t.series, *s)
			return uint32(len(t.series) - 1)
		}
		if r.hash == h && t.series[r.idx-1] == *s {
			return uint32(r.idx - 1)
		}
	}
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
func (t *CellTable) Series(id uint32) *Series { return &t.series[id] }

// Dict returns the table's series dictionary, indexed by series id — what
// Fold resolves a page's keys through. Treat it as read-only.
func (t *CellTable) Dict() []Series { return t.series }

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

// grown returns an open-addressed index rehashed into twice its slots, or
// into first slots when it is empty.
func grown(old []cellRef, first int) []cellRef {
	newCap := 2 * len(old)
	if newCap == 0 {
		newCap = first
	}
	index := make([]cellRef, newCap)
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

// admit tests p's filters once per series of a table's dictionary and
// returns the answers by series id in buf's storage: Fold's admit vector,
// nil (admit all) when p has no filters.
func (p *Plan) admit(dict []Series, buf []bool) []bool {
	if len(p.filters) == 0 {
		return nil
	}
	buf = buf[:0]
	for i := range dict {
		buf = append(buf, p.Match(&dict[i]))
	}
	return buf
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

// groupHash hashes the output group (bucket ts + grouped dims) for the
// group table. Only the dimensions the query groups by are hashed — a Go
// map over GroupKey would hash all four plus padding.
func (p *Plan) groupHash(ts int64, s *Series) uint32 {
	const prime32 = 16777619
	h := uint32(2166136261)
	for _, d := range p.groupDims {
		v := s.at(d)
		for j := 0; j < len(v); j++ {
			h = (h ^ uint32(v[j])) * prime32
		}
		h = (h ^ 0xff) * prime32
	}
	return (h ^ uint32(uint64(ts)>>30) ^ uint32(uint64(ts))) * 2654435761
}

// GroupKey identifies one output group: the bucket start plus the
// grouped dimension values, aligned with the query's GroupBy.
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

// GroupTable is the open-addressed partial-aggregation table — the query
// path's counterpart of the ingest path's CellTable. Group cells live
// inline in the slots; one table per stripe means no locks and no shared
// state between scan workers. The zero value is an empty table.
type GroupTable struct {
	slots []groupSlot
	n     int
}

type groupSlot struct {
	hash uint32
	used bool
	Group
}

// Len returns the number of groups.
func (t *GroupTable) Len() int { return t.n }

// Reset empties the table, keeping its slot array for reuse.
func (t *GroupTable) Reset() {
	for i := range t.slots {
		t.slots[i].used = false
	}
	t.n = 0
}

// cell returns the aggregation cell for key, creating it if absent. The
// pointer is only valid until the next cell call (growth moves slots).
func (t *GroupTable) cell(h uint32, key GroupKey) *Cell {
	if t.n >= len(t.slots)*3/4 {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	for {
		s := &t.slots[i]
		if !s.used {
			s.used = true
			s.hash = h
			s.Key = key
			s.Cell = Cell{} // slots are reused; clear the prior fold's state
			t.n++
			return &s.Cell
		}
		if s.hash == h && s.Key == key {
			return &s.Cell
		}
		i = (i + 1) & mask
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
		i := s.hash & mask
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = *s
	}
}

// Fold accumulates one insertion-ordered (keys, cells) slice pair — a
// page of a segment's CellTable or of a view chunk's — into the table
// under p and returns how many cells matched. dict is the series
// dictionary the keys' ids index (the owning table's Dict), and admit
// says by series id which series pass p's filters (Plan.admit over dict);
// nil admits every series, and p's filters are not consulted. contained
// skips the per-cell time check for a chunk wholly inside the range (see
// Plan.Chunk). Per-group accumulation order is slice order, so feeding
// pairs in a fixed order makes float rounding deterministic.
func (t *GroupTable) Fold(p *Plan, dict []Series, admit []bool, keys []Key, cells []Cell, contained bool) (matched int64) {
	for i := range keys {
		key := &keys[i]
		if !contained && (key.Ts < p.fromN || key.Ts >= p.toN) {
			continue
		}
		if admit != nil && !admit[key.Series] {
			continue
		}
		matched++
		t.accumulate(p, key.Ts, &dict[key.Series], &cells[i])
	}
	return matched
}

// accumulate merges one admitted cell into its output group: bucket
// floor, group key, group hash, Cell.Merge. It is the only copy of that
// sequence — Fold and FoldColumns both end here, so the hot scan, the CQ
// views, the cluster's stripe partials and the cold tier cannot drift.
func (t *GroupTable) accumulate(p *Plan, ts int64, s *Series, c *Cell) {
	gk := GroupKey{Ts: p.collapsedTs}
	if p.granN > 0 {
		gk.Ts = ts - FloorMod(ts, p.granN)
	}
	for gi, d := range p.groupDims {
		gk.Dims[gi] = s.at(d)
	}
	t.cell(p.groupHash(gk.Ts, s), gk).Merge(*c)
}

// Columns is a set of rollup cells held column-wise — what a cold scan
// projects out of an OCF object. A nil vector was not projected: its
// field reads as zero, which neither the group key nor the requested agg
// looks at (see coldPlan). Bucket and Count are always present.
type Columns struct {
	Bucket []int64
	Dims   [4][]string // by dimension slot: system, source, component, metric
	Count  []int64
	Sum    []float64
	Min    []float64
	Max    []float64
	Last   []float64
	LastTs []int64
}

// series assembles row r's series.
func (c *Columns) series(r int32) (s Series) {
	if v := c.Dims[0]; v != nil {
		s.System = v[r]
	}
	if v := c.Dims[1]; v != nil {
		s.Source = v[r]
	}
	if v := c.Dims[2]; v != nil {
		s.Component = v[r]
	}
	if v := c.Dims[3]; v != nil {
		s.Metric = v[r]
	}
	return s
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
// and filters applied by whoever built order), so p's filters are not
// consulted. Each row goes vector → stack Series/Cell → group cell;
// nothing is staged on the heap. Per-group accumulation order is order's.
func (t *GroupTable) FoldColumns(p *Plan, cols *Columns, order []int32) {
	for _, r := range order {
		s, cell := cols.series(r), cols.cell(r)
		t.accumulate(p, cols.Bucket[r], &s, &cell)
	}
}

// Merge folds o's groups into t and leaves o's contents unspecified.
// Callers merge stripe partials in ascending stripe order — the fixed
// fold order that keeps float accumulation deterministic and identical
// to RunSerial. An empty t takes o's slots over instead of copying, so
// the first non-empty partial doubles as the accumulator and a query
// whose matches live on one stripe merges for free.
func (t *GroupTable) Merge(o *GroupTable) {
	if o.n == 0 {
		return
	}
	if t.n == 0 {
		*t, *o = *o, *t
		return
	}
	for i := range o.slots {
		if s := &o.slots[i]; s.used {
			t.cell(s.hash, s.Key).Merge(s.Cell)
		}
	}
}

// Sorted returns the table's groups ordered by (ts, dims) — the row
// order of every result frame. Keys are unique, so the order is total.
func (t *GroupTable) Sorted() []Group {
	// Sort pointers into the slots, then copy each 120-byte group out
	// once, to its final position: a typed compare, 8-byte swaps.
	refs := make([]*Group, 0, t.n)
	for i := range t.slots {
		if s := &t.slots[i]; s.used {
			refs = append(refs, &s.Group)
		}
	}
	slices.SortFunc(refs, func(a, b *Group) int {
		if a.Key.Ts != b.Key.Ts {
			return cmp.Compare(a.Key.Ts, b.Key.Ts)
		}
		for d := range a.Key.Dims {
			if c := strings.Compare(a.Key.Dims[d], b.Key.Dims[d]); c != 0 {
				return c
			}
		}
		return 0
	})
	groups := make([]Group, len(refs))
	for i, g := range refs {
		groups[i] = *g
	}
	return groups
}

// Frame emits the table as the plan's result frame: one row per group in
// Sorted order — ts, the grouped dimensions, then the finalized value.
func (p *Plan) Frame(t *GroupTable) (*schema.Frame, error) {
	out := schema.NewFrame(p.result)
	nDims := len(p.groupDims)
	row := make(schema.Row, 0, nDims+2)
	groups := t.Sorted()
	for i := range groups {
		g := &groups[i]
		row = append(row[:0], schema.TimeNanos(g.Key.Ts))
		for d := 0; d < nDims; d++ {
			row = append(row, schema.Str(g.Key.Dims[d]))
		}
		row = append(row, schema.Float(g.Cell.Value(p.agg)))
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

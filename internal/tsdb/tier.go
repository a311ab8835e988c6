// Tiered federation: age-based offload of LAKE segments into columnar
// OCEAN objects, and the cold half of the query planner that folds those
// objects back into a query so callers never see the tier boundary.
//
// Offload extracts whole time chunks (all 16 stripes of a chunk at once)
// into one OCF object sorted by dimensions for zone-map and bloom
// clustering, plus explicit stripe and seq columns recording each cell's
// stripe and insertion position. At query time a segment's matched rows
// are put back in (stripe, seq) order without being moved: seq is a dense
// insertion index and there are 16 stripes, so one counting-sort scatter
// of row indices into base[stripe]+seq slots does it (coldOrder; a file
// whose coordinates are not such a scatter gets a comparison sort with
// the same total order). The decoded column vectors are then folded
// through that order vector (GroupTable.FoldColumns) into the per-stripe
// partial tables, each row reaching its group through the codes the scan
// gave its dimension values (rowTuples.number), before the hot scan runs —
// chunk-ascending, insertion-ordered, exactly the fold order of a store
// that never offloaded — so federated float accumulation is
// byte-identical to the all-hot reference.
//
// Pruning happens in three layers before any chunk is inflated — time
// range → per-segment zone maps + blooms (manifest, no object read) →
// per-row-group zone maps + blooms (file footer) — and a fourth inside
// the columnar reader: a row group's predicate columns decode first, and
// a group they leave no row in decodes nothing more.
package tsdb

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odakit/internal/archive"
	"odakit/internal/columnar"
	"odakit/internal/objstore"
	"odakit/internal/resilience"
	"odakit/internal/schema"
)

// ColdSchema is the one serialized form of rollup cells — an offloaded
// segment object and a stripe in transit between replicas alike: the full
// aggregation state (any AggKind re-aggregates without the raw data) plus
// the (stripe, seq) fold coordinates that make accumulation order
// reproducible.
var ColdSchema = schema.New(
	schema.Field{Name: "stripe", Kind: schema.KindInt},
	schema.Field{Name: "seq", Kind: schema.KindInt},
	schema.Field{Name: "bucket", Kind: schema.KindTime},
	schema.Field{Name: "system", Kind: schema.KindString},
	schema.Field{Name: "source", Kind: schema.KindString},
	schema.Field{Name: "component", Kind: schema.KindString},
	schema.Field{Name: "metric", Kind: schema.KindString},
	schema.Field{Name: "count", Kind: schema.KindInt},
	schema.Field{Name: "sum", Kind: schema.KindFloat},
	schema.Field{Name: "min", Kind: schema.KindFloat},
	schema.Field{Name: "max", Kind: schema.KindFloat},
	schema.Field{Name: "last", Kind: schema.KindFloat},
	schema.Field{Name: "last_ts", Kind: schema.KindTime},
)

// ColdTierConfig wires a DB to its OCEAN (and optionally GLACIER) tier.
type ColdTierConfig struct {
	// Store and Bucket locate the OCEAN objects; the bucket must exist.
	Store  *objstore.Store
	Bucket string
	// Prefix namespaces this DB's objects within the bucket (e.g.
	// "lake/"). The manifest lives at <Prefix>manifest and segment
	// objects under <Prefix>segments/.
	Prefix string
	// Glacier, when set, is consulted for segment objects missing from
	// the store (aged out by lifecycle rules): staged items are read,
	// everything else triggers a non-blocking recall and the query
	// reports the gap via QueryStats.GlacierPending / RecallWait.
	Glacier *archive.Archive
	// RowGroupRows is the OCF row-group size (default 1024). Smaller
	// groups prune finer; larger groups compress better. Objects written
	// at another size stay readable.
	RowGroupRows int
}

// coldDimMeta is one dimension's segment-level pruning state as stored
// in the manifest.
type coldDimMeta struct {
	Min   string `json:"min"`
	Max   string `json:"max"`
	Bloom []byte `json:"bloom,omitempty"`
}

// coldSegmentMeta is one offloaded chunk's manifest entry.
type coldSegmentMeta struct {
	Chunk int64  `json:"chunk"` // chunk start, unix nanos
	Key   string `json:"key"`   // object key within the bucket
	Cells int64  `json:"cells"` // rollup cells stored
	Rows  int64  `json:"rows"`  // raw observations the cells roll up
	Bytes int64  `json:"bytes"` // encoded object size
	MinTs int64  `json:"min_ts"`
	MaxTs int64  `json:"max_ts"`
	// Dims are per-dimension zone maps + bloom filters, indexed by the
	// fixed dimension slots (system, source, component, metric).
	Dims [4]coldDimMeta `json:"dims"`
}

// coldManifest is the persisted tier state: the segment list plus a
// generation counter the query-result cache keys on.
type coldManifest struct {
	Generation uint64            `json:"generation"`
	Segments   []coldSegmentMeta `json:"segments"`
}

// coldSegment is one manifest entry with its blooms decoded, and the
// parsed index of its object from the first scan that read it.
type coldSegment struct {
	meta   coldSegmentMeta
	blooms [4]*columnar.Bloom
	index  atomic.Pointer[segmentIndex]
}

// segmentIndex is a segment object's parsed index and the object version
// and size it was parsed from; versions are immutable.
type segmentIndex struct {
	*columnar.Index
	version, size int64
}

// reader binds the segment's index to data, the object as info describes
// it, when the index was parsed from that version; otherwise it parses
// data and keeps the index for the next scan. A read staged from GLACIER
// (a zero info) is parsed and not kept.
func (ct *ColdTier) reader(seg *coldSegment, data []byte, info objstore.ObjectInfo) (*columnar.FileReader, error) {
	if ix := seg.index.Load(); ix != nil && ix.version == info.Version && ix.size == info.Size {
		return ix.Bind(data)
	}
	ix, err := columnar.ParseIndex(data)
	if err != nil {
		return nil, err
	}
	ct.parses.Add(1)
	if info.Version != 0 {
		seg.index.Store(&segmentIndex{Index: ix, version: info.Version, size: info.Size})
	}
	return ix.Bind(data)
}

// ColdTier is a DB's attached OCEAN/GLACIER storage. mu serializes
// offloads against federated scans: queries hold it shared for the whole
// cold-fold + hot-scan window, so an offload can never move a chunk
// between the two halves of one query.
type ColdTier struct {
	cfg     ColdTierConfig
	mu      sync.RWMutex
	segs    []*coldSegment // chunk-ascending, manifest order within a chunk
	gen     atomic.Uint64
	noPrune atomic.Bool
	parses  atomic.Int64 // segment indexes parsed
}

// manifestKey returns the tier's manifest object key.
func (ct *ColdTier) manifestKey() string { return ct.cfg.Prefix + "manifest" }

// SetPruning toggles segment/row-group pruning live; disabling it turns
// every federated query into the decode-everything baseline scan.
func (ct *ColdTier) SetPruning(enabled bool) { ct.noPrune.Store(!enabled) }

// Generation returns the tier's current offload generation. It advances
// on every successful Offload, and cache keys include it so results
// computed against different tier contents never alias.
func (ct *ColdTier) Generation() uint64 { return ct.gen.Load() }

// coldGeneration returns the attached tier's generation for cache keys
// (0 when no tier is attached — indistinguishable from a never-offloaded
// fresh tier, which has identical query results, so aliasing is safe).
func (db *DB) coldGeneration() uint64 {
	if ct := db.cold.Load(); ct != nil {
		return ct.gen.Load()
	}
	return 0
}

// ColdStats summarizes the attached tier.
type ColdStats struct {
	Segments   int
	Cells      int64
	Rows       int64
	Bytes      int64
	Generation uint64
	IndexBytes int64 // resident size of the segment indexes scans keep
}

// ColdStats returns tier totals (zero value when no tier is attached).
func (db *DB) ColdStats() ColdStats {
	ct := db.cold.Load()
	if ct == nil {
		return ColdStats{}
	}
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	st := ColdStats{Segments: len(ct.segs), Generation: ct.gen.Load()}
	for _, s := range ct.segs {
		st.Cells += s.meta.Cells
		st.Rows += s.meta.Rows
		st.Bytes += s.meta.Bytes
		if ix := s.index.Load(); ix != nil {
			st.IndexBytes += int64(ix.Bytes())
		}
	}
	return st
}

// AttachColdTier connects a DB to its cold tier, rehydrating the segment
// manifest from the store so a restarted process sees prior offloads.
// Every subsequent query transparently federates across hot shards and
// the tier's segments.
func (db *DB) AttachColdTier(cfg ColdTierConfig) (*ColdTier, error) {
	if cfg.Store == nil || cfg.Bucket == "" {
		return nil, fmt.Errorf("tsdb: cold tier needs a store and bucket")
	}
	if cfg.RowGroupRows <= 0 {
		cfg.RowGroupRows = 1024
	}
	ct := &ColdTier{cfg: cfg}
	data, _, err := cfg.Store.Get(cfg.Bucket, ct.manifestKey())
	switch {
	case errors.Is(err, objstore.ErrNoObject):
		// Fresh tier.
	case err != nil:
		return nil, fmt.Errorf("tsdb: load cold manifest: %w", err)
	default:
		var m coldManifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("tsdb: decode cold manifest: %w", err)
		}
		for i := range m.Segments {
			seg := &coldSegment{meta: m.Segments[i]}
			for d := range seg.meta.Dims {
				if b := seg.meta.Dims[d].Bloom; len(b) > 0 {
					bl, err := columnar.DecodeBloom(b)
					if err != nil {
						return nil, fmt.Errorf("tsdb: cold manifest bloom: %w", err)
					}
					seg.blooms[d] = bl
				}
			}
			ct.segs = append(ct.segs, seg)
		}
		// The manifest is persisted chunk-ascending; a stable sort keeps
		// same-chunk segments in offload order if one was hand-edited.
		sort.SliceStable(ct.segs, func(i, j int) bool {
			return ct.segs[i].meta.Chunk < ct.segs[j].meta.Chunk
		})
		ct.gen.Store(m.Generation)
	}
	db.cold.Store(ct)
	return ct, nil
}

// ColdTier returns the attached tier, or nil.
func (db *DB) ColdTier() *ColdTier { return db.cold.Load() }

// coldRetry bounds retries of transient store faults on the offload
// write path and the query read path: four attempts, backing off between.
var coldRetry = resilience.Policy{MaxAttempts: 4}

func retryPut(store *objstore.Store, bucket, key string, data []byte) (info objstore.ObjectInfo, err error) {
	err = resilience.Retry(context.Background(), coldRetry, func() error {
		info, err = store.Put(bucket, key, data)
		return err
	})
	return info, err
}

// OffloadStats reports what one Offload call moved.
type OffloadStats struct {
	Segments int   // time chunks offloaded
	Cells    int64 // rollup cells written
	Rows     int64 // raw observations those cells roll up
	Bytes    int64 // encoded object bytes written
}

// Offload moves every segment whose time chunk ended before cutoff into
// the attached cold tier: the chunk's cells (all stripes) are encoded as
// one sorted OCF object with bloom filters, the manifest gains a zone-map
// + bloom entry for the segment, and the hot chunk is dropped. Queries
// are excluded for the duration, so a chunk is always visible in exactly
// one tier and a federated answer equals the never-offloaded one. A
// store failure rolls the in-flight chunk back into the hot shards.
func (db *DB) Offload(cutoff time.Time) (OffloadStats, error) {
	var st OffloadStats
	ct := db.cold.Load()
	if ct == nil {
		return st, fmt.Errorf("tsdb: no cold tier attached")
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()

	// Chunks whose end precedes the cutoff, oldest first.
	chunkSet := make(map[int64]struct{})
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.RLock()
		for k := range sh.segments {
			if time.Unix(0, k).Add(db.opts.SegmentDuration).Before(cutoff) {
				chunkSet[k] = struct{}{}
			}
		}
		sh.mu.RUnlock()
	}
	for _, chunkN := range SortedChunks(chunkSet) {
		if err := db.offloadChunk(ct, chunkN, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// cellColumns builds a ColdSchema frame one cell at a time. It is the
// only writer of that form: Offload feeds it a chunk's cells in
// dimension-clustered order, ExportStripes a stripe's cells in fold order.
type cellColumns struct {
	stripe, seq, bucket, count, lastTs []int64
	dims                               [4][]string // system, source, component, metric
	sum, min, max, last                []float64
}

// grow reserves room for n more cells.
func (b *cellColumns) grow(n int) {
	for _, v := range []*[]int64{&b.stripe, &b.seq, &b.bucket, &b.count, &b.lastTs} {
		*v = slices.Grow(*v, n)
	}
	for d := range b.dims {
		b.dims[d] = slices.Grow(b.dims[d], n)
	}
	for _, v := range []*[]float64{&b.sum, &b.min, &b.max, &b.last} {
		*v = slices.Grow(*v, n)
	}
}

// add appends series s's cell in bucket ts at fold coordinates (stripe,
// seq).
func (b *cellColumns) add(stripe, seq int, ts int64, s *Series, c *Cell) {
	b.stripe = append(b.stripe, int64(stripe))
	b.seq = append(b.seq, int64(seq))
	b.bucket = append(b.bucket, ts)
	for d := range b.dims {
		b.dims[d] = append(b.dims[d], s.at(d))
	}
	b.count = append(b.count, c.Count)
	b.sum = append(b.sum, c.Sum)
	b.min = append(b.min, c.Min)
	b.max = append(b.max, c.Max)
	b.last = append(b.last, c.Last)
	b.lastTs = append(b.lastTs, c.LastTs)
}

// frame hands the columns over as a ColdSchema frame; b is spent.
func (b *cellColumns) frame() (*schema.Frame, error) {
	cols := make([]*schema.Column, 0, ColdSchema.Len())
	var err error
	add := func(c *schema.Column, cerr error) { cols, err = append(cols, c), errors.Join(err, cerr) }
	add(schema.IntColumn(schema.KindInt, b.stripe, nil))
	add(schema.IntColumn(schema.KindInt, b.seq, nil))
	add(schema.IntColumn(schema.KindTime, b.bucket, nil))
	for d := range b.dims {
		add(schema.StringColumn(b.dims[d], nil))
	}
	add(schema.IntColumn(schema.KindInt, b.count, nil))
	for _, v := range [][]float64{b.sum, b.min, b.max, b.last} {
		add(schema.FloatColumn(v, nil))
	}
	add(schema.IntColumn(schema.KindTime, b.lastTs, nil))
	if err != nil {
		return nil, err
	}
	return schema.FrameOfColumns(ColdSchema, cols)
}

// coldCell is one cell extracted for offload: its fold coordinates and
// its place in the extracted segment's table, which nothing else can
// reach (or grow) while offloadChunk holds it.
type coldCell struct {
	stripe int32
	seq    int32
	ts     int64
	series *Series
	cell   *Cell
}

// offloadChunk moves one time chunk into the tier; ct.mu must be held
// exclusively.
func (db *DB) offloadChunk(ct *ColdTier, chunkN int64, st *OffloadStats) (err error) {
	// Extract the chunk's segments from every stripe. Extraction (not a
	// read-only snapshot) keeps a concurrent insert from landing between
	// snapshot and drop and being lost; queries are blocked on ct.mu, and
	// a failure below re-imports the extracted segments verbatim.
	var extracted [shardCount]*segment
	var rawRows int64
	nCells := 0
	for si := range db.shards {
		sh := &db.shards[si]
		sh.mu.Lock()
		seg := sh.segments[chunkN]
		if seg != nil {
			delete(sh.segments, chunkN)
			sh.version.Add(1)
		}
		sh.mu.Unlock()
		extracted[si] = seg
		if seg == nil {
			continue
		}
		rawRows += seg.rows
		nCells += seg.cells.Len()
	}
	defer func() {
		if err == nil {
			return
		}
		// Roll back: put the extracted segments back so the data stays
		// queryable in the hot tier.
		for si, seg := range extracted {
			if seg == nil {
				continue
			}
			sh := &db.shards[si]
			sh.mu.Lock()
			if cur, ok := sh.segments[chunkN]; ok {
				// A concurrent insert re-created the chunk: merge the
				// extracted cells into it rather than dropping either side.
				for i := 0; i < seg.cells.Len(); i++ {
					k, c := seg.cells.At(i)
					s := seg.cells.Series(k.Series)
					cur.cells.Cell(SeriesHash(s.Component, s.Metric), seg.cells.BucketStart(k.Bucket), s).Merge(*c)
				}
				cur.rows += seg.rows
			} else {
				sh.segments[chunkN] = seg
			}
			sh.version.Add(1)
			sh.mu.Unlock()
		}
	}()
	if nCells == 0 {
		return nil
	}
	cells := make([]coldCell, 0, nCells)
	for si, seg := range extracted {
		if seg == nil {
			continue
		}
		for i := 0; i < seg.cells.Len(); i++ {
			k, c := seg.cells.At(i)
			cells = append(cells, coldCell{stripe: int32(si), seq: int32(i), ts: seg.cells.BucketStart(k.Bucket), series: seg.cells.Series(k.Series), cell: c})
		}
	}

	// Sort by dimensions for zone-map/bloom clustering; (stripe, seq)
	// ride along as columns so queries can restore fold order.
	slices.SortFunc(cells, func(a, b coldCell) int {
		if c := strings.Compare(a.series.Metric, b.series.Metric); c != 0 {
			return c
		}
		if c := strings.Compare(a.series.Component, b.series.Component); c != 0 {
			return c
		}
		if c := strings.Compare(a.series.System, b.series.System); c != 0 {
			return c
		}
		if c := strings.Compare(a.series.Source, b.series.Source); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		if c := cmp.Compare(a.stripe, b.stripe); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})

	// Zone maps and bloom inputs, and the object's columns, in one pass.
	meta := coldSegmentMeta{Chunk: chunkN, Cells: int64(nCells), Rows: rawRows}
	var distinct [4]map[string]struct{}
	for d := range distinct {
		distinct[d] = make(map[string]struct{})
	}
	var b cellColumns
	b.grow(nCells)
	for i := range cells {
		c := &cells[i]
		if i == 0 || c.ts < meta.MinTs {
			meta.MinTs = c.ts
		}
		if i == 0 || c.ts > meta.MaxTs {
			meta.MaxTs = c.ts
		}
		for d := 0; d < 4; d++ {
			v := c.series.at(d)
			distinct[d][v] = struct{}{}
			if i == 0 || v < meta.Dims[d].Min {
				meta.Dims[d].Min = v
			}
			if i == 0 || v > meta.Dims[d].Max {
				meta.Dims[d].Max = v
			}
		}
		b.add(int(c.stripe), int(c.seq), c.ts, c.series, c.cell)
	}
	f, err := b.frame()
	if err != nil {
		return err
	}
	seg := &coldSegment{meta: meta}
	for d := 0; d < 4; d++ {
		bl := columnar.NewBloom(len(distinct[d]))
		for v := range distinct[d] {
			bl.Insert(columnar.BloomHash(v))
		}
		seg.blooms[d] = bl
		seg.meta.Dims[d].Bloom = columnar.EncodeBloom(bl)
	}

	data, err := columnar.Encode(f, columnar.WriterOptions{
		RowGroupRows: ct.cfg.RowGroupRows,
		Compression:  columnar.CompressFlate,
		BloomColumns: dimNames,
	})
	if err != nil {
		return err
	}
	seg.meta.Bytes = int64(len(data))
	// The sequence suffix keeps keys unique when late-arriving data makes
	// the same chunk offload twice.
	seg.meta.Key = fmt.Sprintf("%ssegments/%020d-%06d.ocf", ct.cfg.Prefix, chunkN, len(ct.segs))
	if _, err := retryPut(ct.cfg.Store, ct.cfg.Bucket, seg.meta.Key, data); err != nil {
		return fmt.Errorf("tsdb: offload put: %w", err)
	}
	ct.segs = append(ct.segs, seg)
	sort.SliceStable(ct.segs, func(i, j int) bool { return ct.segs[i].meta.Chunk < ct.segs[j].meta.Chunk })
	nextGen := ct.gen.Load() + 1
	if err := ct.persistManifest(nextGen); err != nil {
		ct.segs = removeSegment(ct.segs, seg)
		return fmt.Errorf("tsdb: offload manifest: %w", err)
	}
	ct.gen.Store(nextGen)
	st.Segments++
	st.Cells += seg.meta.Cells
	st.Rows += seg.meta.Rows
	st.Bytes += seg.meta.Bytes
	if ins := db.instr.Load(); ins != nil {
		ins.offloadSegments.Inc()
		ins.offloadCells.Add(seg.meta.Cells)
		ins.offloadBytes.Add(seg.meta.Bytes)
	}
	return nil
}

func removeSegment(segs []*coldSegment, target *coldSegment) []*coldSegment {
	out := segs[:0]
	for _, s := range segs {
		if s != target {
			out = append(out, s)
		}
	}
	return out
}

// persistManifest writes the tier state to the store; ct.mu must be held.
func (ct *ColdTier) persistManifest(gen uint64) error {
	m := coldManifest{Generation: gen, Segments: make([]coldSegmentMeta, len(ct.segs))}
	for i, s := range ct.segs {
		m.Segments[i] = s.meta
	}
	data, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	_, err = retryPut(ct.cfg.Store, ct.cfg.Bucket, ct.manifestKey(), data)
	return err
}

// filterValues returns a compiled filter's candidate values.
func filterValues(f *dimFilter) []string {
	if f.set == nil {
		return []string{f.single}
	}
	vals := make([]string, 0, len(f.set))
	for v := range f.set {
		vals = append(vals, v)
	}
	return vals
}

// mayMatch reports whether the segment can contain cells satisfying the
// query's filters, using the manifest's per-dimension zone maps and
// bloom filters.
func (s *coldSegment) mayMatch(p *Plan) bool {
	for i := range p.filters {
		f := &p.filters[i]
		d := &s.meta.Dims[f.dim]
		any := false
		for _, v := range filterValues(f) {
			if v < d.Min || v > d.Max {
				continue
			}
			if !s.blooms[f.dim].MayContain(columnar.BloomHash(v)) {
				continue
			}
			any = true
			break
		}
		if !any {
			return false
		}
	}
	return true
}

// scanCold folds every surviving cold segment into the per-stripe
// partial tables; ct.mu must be held (shared) by the caller across the
// subsequent hot scan too.
func (ct *ColdTier) scanCold(p *Plan, st *QueryStats, ps *partialSet) error {
	noPrune := ct.noPrune.Load()
	for _, seg := range ct.segs {
		if !noPrune {
			if seg.meta.MinTs >= p.toN || seg.meta.MaxTs < p.fromN {
				st.ColdSegmentsPruned++
				continue
			}
			if !seg.mayMatch(p) {
				st.ColdSegmentsPruned++
				continue
			}
		}
		if err := ct.scanSegment(seg, p, st, ps, noPrune); err != nil {
			return err
		}
	}
	return nil
}

// getObject fetches a segment object, retrying transient faults. A nil
// data with nil error means the object has aged into GLACIER and is not
// staged yet — the segment is skipped and the gap reported in st. Data
// read back from GLACIER comes with a zero info.
func (ct *ColdTier) getObject(key string, st *QueryStats) (data []byte, info objstore.ObjectInfo, err error) {
	err = resilience.Retry(context.Background(), coldRetry, func() error {
		data, info, err = ct.cfg.Store.Get(ct.cfg.Bucket, key)
		return err
	})
	if errors.Is(err, objstore.ErrNoObject) && ct.cfg.Glacier != nil {
		data, err = ct.glacierFetch(key, st) // info stays zero: the store had no object
	}
	return data, info, err
}

// glacierFetch resolves a segment that lifecycle rules moved to the
// archive: staged items are read back; otherwise a recall is kicked off
// (or its progress observed) without blocking, and the caller skips the
// segment this time around.
func (ct *ColdTier) glacierFetch(key string, st *QueryStats) ([]byte, error) {
	g := ct.cfg.Glacier
	gkey := ct.cfg.Bucket + "/" + key
	rs, err := g.Status(gkey)
	if err != nil {
		return nil, fmt.Errorf("tsdb: cold segment %s in neither store nor archive: %w", key, err)
	}
	st.GlacierSegments++
	switch rs.State {
	case archive.RecallStaged:
		return g.Read(gkey)
	case archive.RecallNone: // kick off the recall, answer without the segment
		if rs, err = g.Recall(gkey); err != nil {
			return nil, err
		}
		st.GlacierRecalls++
	}
	// The wait is the archive's, on its own clock.
	st.GlacierPending++
	st.RecallWait = max(st.RecallWait, rs.Wait)
	return nil, nil
}

// coldOrder restores the fold order of one segment's matched rows. It is
// scratch owned by a partialSet, so a steady query load sorts in memory
// sized by the largest segment it has seen: 4 bytes per matched row plus
// 4 per scatter slot.
type coldOrder struct {
	// rows holds the matched row indices — ascending as admitted, in
	// (stripe, seq, row) order after restore.
	rows []int32
	// off delimits the stripe runs after restore: stripe s's rows are
	// rows[off[s]:off[s+1]].
	off   [shardCount + 1]int
	slots []int32 // scatter target: slot base[stripe]+seq holds row+1, 0 = empty
}

// scatterSlack is how many scatter slots beyond twice the matched rows a
// segment may ask for. seq is a cell's insertion index in its (stripe,
// chunk) table, so an unfiltered scan fills every slot, and a filter that
// keeps 1 row in 40 of an 8-node segment still fits; a file whose seq
// values are wild (or forged) falls back to the comparison sort instead
// of sizing an allocation by them.
const scatterSlack = 1 << 16

// restore reorders rows by (stripe, seq, row index). stripe and seq are
// the segment's coordinate vectors; every admitted row's stripe is already
// range-checked. When the coordinates are what Offload writes — seq >= 0,
// no (stripe, seq) pair twice, the seq range not much wider than the
// matched rows — that is one counting-sort scatter and one sweep; on any
// other input the same total order comes from a comparison sort, so which
// path ran is never visible in a result.
func (o *coldOrder) restore(stripe, seq []int64) {
	if o.scatter(stripe, seq) {
		return
	}
	slices.SortFunc(o.rows, func(a, b int32) int {
		if c := cmp.Compare(stripe[a], stripe[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(seq[a], seq[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	k := 0
	for s := 0; s < shardCount; s++ {
		o.off[s] = k
		for k < len(o.rows) && stripe[o.rows[k]] == int64(s) {
			k++
		}
	}
	o.off[shardCount] = k
}

// scatter is restore's O(n) path; it reports false, with rows untouched,
// when the coordinates do not allow it.
func (o *coldOrder) scatter(stripe, seq []int64) bool {
	var top [shardCount]int64 // the stripe's largest matched seq, -1 for none
	for s := range top {
		top[s] = -1
	}
	for _, r := range o.rows {
		q := seq[r]
		if q < 0 {
			return false
		}
		if s := stripe[r]; q > top[s] {
			top[s] = q
		}
	}
	var base [shardCount + 1]int64 // stripe s scatters into slots[base[s]:base[s+1]]
	limit := int64(2*len(o.rows) + scatterSlack)
	for s, hi := range top {
		if hi >= limit-base[s] {
			return false
		}
		base[s+1] = base[s] + hi + 1
	}
	total := base[shardCount]
	if int64(cap(o.slots)) < total {
		o.slots = make([]int32, total)
	}
	slots := o.slots[:total]
	clear(slots)
	for _, r := range o.rows {
		slot := &slots[base[stripe[r]]+seq[r]]
		if *slot != 0 {
			return false // a (stripe, seq) pair twice
		}
		*slot = r + 1
	}
	k := 0
	for s := 0; s < shardCount; s++ {
		o.off[s] = k
		for _, v := range slots[base[s]:base[s+1]] {
			if v != 0 {
				o.rows[k] = v - 1
				k++
			}
		}
	}
	o.off[shardCount] = k
	return true
}

// coldColumn points the kernel's column set, or a fold coordinate, at
// the vector of ColdSchema column name; an unknown name is ignored.
func coldColumn(cols *Columns, stripe, seq *[]int64, name string, ints []int64, floats []float64, strs []string, codes []uint32) {
	switch name {
	case "stripe":
		*stripe = ints
	case "seq":
		*seq = ints
	case "bucket":
		cols.Bucket = ints
	case "system":
		cols.Dims[0], cols.Codes[0] = strs, codes
	case "source":
		cols.Dims[1], cols.Codes[1] = strs, codes
	case "component":
		cols.Dims[2], cols.Codes[2] = strs, codes
	case "metric":
		cols.Dims[3], cols.Codes[3] = strs, codes
	case "count":
		cols.Count = ints
	case "sum":
		cols.Sum = floats
	case "min":
		cols.Min = floats
	case "max":
		cols.Max = floats
	case "last":
		cols.Last = floats
	case "last_ts":
		cols.LastTs = ints
	}
}

// coldColumns splits a ColdSchema frame into the fold coordinates and the
// kernel's column set.
func coldColumns(f *schema.Frame) (cols Columns, stripe, seq []int64) {
	sch := f.Schema()
	for i := 0; i < sch.Len(); i++ {
		c := f.Col(i)
		coldColumn(&cols, &stripe, &seq, sch.Field(i).Name, c.Ints(), c.Floats(), c.Strs(), nil)
	}
	return cols, stripe, seq
}

// scanSegment scans one segment object with predicate + projection
// pushdown into the set's batch and folds the matches into its tables.
func (ct *ColdTier) scanSegment(seg *coldSegment, p *Plan, st *QueryStats, ps *partialSet, noPrune bool) error {
	data, info, err := ct.getObject(seg.meta.Key, st)
	if err != nil {
		return fmt.Errorf("tsdb: cold segment %s: %w", seg.meta.Key, err)
	}
	if data == nil {
		return nil // awaiting GLACIER recall; reported in st
	}
	fr, err := ct.reader(seg, data, info)
	if err != nil {
		return fmt.Errorf("tsdb: cold segment %s: %w", seg.meta.Key, err)
	}

	names, preds := coldPlan(p, noPrune)
	ss, err := fr.ScanInto(&ps.cold, names, preds...)
	if err != nil {
		return fmt.Errorf("tsdb: cold segment %s: %w", seg.meta.Key, err)
	}
	st.ColdSegmentsScanned++
	st.ColdRowGroupsScanned += ss.GroupsScanned - ss.GroupsEmptied
	st.ColdRowGroupsPruned += ss.GroupsTotal - ss.GroupsScanned + ss.GroupsEmptied
	st.ColdRowsDecoded += int64(ss.RowsDecoded)
	st.ColdWorkers = max(st.ColdWorkers, ss.Workers)
	folded, err := ps.foldCold(names, p, noPrune)
	if err != nil {
		return fmt.Errorf("tsdb: cold segment %s: %w", seg.meta.Key, err)
	}
	st.ColdCells += folded
	return nil
}

// foldCold folds the selected rows of the set's batch — one segment's
// scan of the ColdSchema columns names — into the per-stripe tables in
// (stripe, seq) order, straight from the decoded vectors, and returns how
// many cells that was. It allocates nothing once the set's ordering
// scratch has grown to the segment.
func (ps *partialSet) foldCold(names []string, p *Plan, noPrune bool) (int64, error) {
	b := &ps.cold
	if len(b.Sel) == 0 {
		// Nothing survived; a fresh batch's vectors may not even exist.
		return 0, nil
	}
	cols := &ps.cols
	*cols = Columns{}
	var stripe, seq []int64
	for j, name := range names {
		v := &b.Cols[j]
		i, _ := ColdSchema.Index(name)
		if want := ColdSchema.Field(i).Kind; v.Kind != want {
			return 0, fmt.Errorf("column %s is %v, want %v", name, v.Kind, want)
		}
		coldColumn(cols, &stripe, &seq, name, v.Ints, v.Floats, v.Strs, v.Codes)
	}
	if stripe == nil || seq == nil || cols.Bucket == nil || cols.Count == nil {
		return 0, fmt.Errorf("scan without stripe, seq, bucket and count columns")
	}
	o := &ps.order
	o.rows = o.rows[:0]
	for _, r := range b.Sel {
		if stripe[r] < 0 || stripe[r] >= shardCount {
			return 0, fmt.Errorf("stripe %d out of range", stripe[r])
		}
		if noPrune {
			// No pushdown happened: apply the time range and filters
			// exactly, same as the hot scan loop.
			if ts := cols.Bucket[r]; ts < p.fromN || ts >= p.toN {
				continue
			}
			s := Series{System: cols.Dims[0][r], Source: cols.Dims[1][r], Component: cols.Dims[2][r], Metric: cols.Dims[3][r]}
			if !p.Match(&s) {
				continue
			}
		}
		o.rows = append(o.rows, r)
	}
	if len(o.rows) == 0 {
		return 0, nil
	}
	// The rows were admitted above or by the pushdown, whose projection
	// may not even carry the filtered dimensions: number their group
	// tuples once, in file order, then restore per-stripe insertion order
	// so folding reproduces the hot path's accumulation order exactly, and
	// fold them unfiltered, one stripe's run at a time.
	admitted := p.Admitted()
	ps.tuples.number(&admitted, cols, o.rows)
	o.restore(stripe, seq)
	for s := 0; s < shardCount; s++ {
		if run := o.rows[o.off[s]:o.off[s+1]]; len(run) > 0 {
			ps.tables[s].FoldColumns(&admitted, cols, &ps.tuples, run)
		}
	}
	return int64(len(o.rows)), nil
}

// coldPlan computes the projection and pushdown predicates for one
// query: always the fold coordinates plus count (merge() ignores cells
// with count 0), the grouped dimensions, and only the aggregation-state
// columns the query's agg actually reads. With pruning on, the time
// range and every dimension filter travel as predicates, so whole files
// and row groups are skipped before decode; with pruning off, everything
// is decoded and filtered row-exactly in the fold loop.
func coldPlan(p *Plan, noPrune bool) ([]string, []columnar.Predicate) {
	if noPrune {
		cols := make([]string, ColdSchema.Len())
		for i := range cols {
			cols[i] = ColdSchema.Field(i).Name
		}
		return cols, nil
	}
	cols := []string{"stripe", "seq", "bucket", "count"}
	for _, d := range p.groupDims {
		cols = append(cols, dimNames[d])
	}
	switch p.agg {
	case AggAvg, AggSum:
		cols = append(cols, "sum")
	case AggMin:
		cols = append(cols, "min")
	case AggMax:
		cols = append(cols, "max")
	case AggLast:
		cols = append(cols, "last", "last_ts")
	}
	preds := []columnar.Predicate{{
		Col: "bucket",
		Min: schema.TimeNanos(p.fromN),
		Max: schema.TimeNanos(p.toN - 1),
	}}
	for i := range p.filters {
		f := &p.filters[i]
		vals := filterValues(f)
		in := make([]schema.Value, len(vals))
		for j, v := range vals {
			in[j] = schema.Str(v)
		}
		preds = append(preds, columnar.Predicate{Col: dimNames[f.dim], In: in})
	}
	return cols, preds
}

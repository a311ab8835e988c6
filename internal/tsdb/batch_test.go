package tsdb

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"odakit/internal/schema"
)

// TestInsertBatchMatchesInsert proves one batch produces exactly the state
// of the same records written per record, as batches of one.
func TestInsertBatchMatchesInsert(t *testing.T) {
	var batch []schema.Observation
	for s := 0; s < 120; s++ {
		batch = append(batch,
			ob(s, "node00000", "node_power_w", 1000+float64(s)),
			ob(s, "node00001", "node_power_w", 2000+float64(s)),
			ob(s, "node00000", "cpu_temp_c", 40),
		)
	}
	single := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second})
	insert(single, batch...)
	batched := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second})
	batched.InsertBatch(batch)

	if s, b := single.Stats(), batched.Stats(); s != b {
		t.Fatalf("stats diverge: single=%+v batched=%+v", s, b)
	}
	// Same cells, in the same per-stripe insertion order.
	fs, fb := exportAll(t, single), exportAll(t, batched)
	if fs.Len() != fb.Len() {
		t.Fatalf("export rows: single=%d batched=%d", fs.Len(), fb.Len())
	}
	for i := 0; i < fs.Len(); i++ {
		if fmt.Sprint(fs.Row(i)) != fmt.Sprint(fb.Row(i)) {
			t.Fatalf("row %d diverges:\n single  %v\n batched %v", i, fs.Row(i), fb.Row(i))
		}
	}
}

func TestInsertBatchEmptyAndLarge(t *testing.T) {
	db := New(Options{})
	db.InsertBatch(nil)
	if got := db.Stats().RawIngested; got != 0 {
		t.Fatalf("ingested = %d after empty batch", got)
	}
	// Larger than the stack-side shard-id buffer (1024).
	var batch []schema.Observation
	for i := 0; i < 3000; i++ {
		batch = append(batch, ob(i%120, fmt.Sprintf("node%03d", i%7), "m", float64(i)))
	}
	db.InsertBatch(batch)
	if got := db.Stats().RawIngested; got != 3000 {
		t.Fatalf("ingested = %d, want 3000", got)
	}
}

// TestExportIncludesLastState is the regression test for the missing
// last/last_ts columns: AggLast must be recoverable from an export.
func TestExportIncludesLastState(t *testing.T) {
	db := New(Options{SegmentDuration: time.Hour, RollupInterval: time.Minute})
	// Out of order: the later timestamp must win the exported last value.
	insert(db, ob(30, "n", "m", 999))
	insert(db, ob(10, "n", "m", 111))
	f := exportAll(t, db)
	if !f.Schema().Equal(ColdSchema) {
		t.Fatalf("schema = %s", f.Schema())
	}
	if f.Len() != 1 {
		t.Fatalf("rows = %d, want 1", f.Len())
	}
	s := f.Schema()
	for _, col := range []string{"last", "last_ts"} {
		if !s.Has(col) {
			t.Fatalf("ColdSchema missing %q column", col)
		}
	}
	r := f.Row(0)
	if got := r[s.MustIndex("last")].FloatVal(); got != 999 {
		t.Fatalf("last = %v, want 999", got)
	}
	if got := r[s.MustIndex("last_ts")].TimeVal(); !got.Equal(base.Add(30 * time.Second)) {
		t.Fatalf("last_ts = %v, want %v", got, base.Add(30*time.Second))
	}
}

// TestExportImportRoundTrip proves the full aggregation state — AggLast
// included — survives serialization to a ColdSchema frame and back.
func TestExportImportRoundTrip(t *testing.T) {
	src := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second})
	for s := 0; s < 120; s++ {
		insert(src, ob(s, "node00000", "node_power_w", 1000+float64(s)))
		insert(src, ob(s, "node00001", "node_power_w", 2000+float64(s)))
	}
	dst := New(Options{SegmentDuration: time.Hour, RollupInterval: 15 * time.Second})
	if err := dst.ImportStripes(exportAll(t, src)); err != nil {
		t.Fatal(err)
	}
	q := Query{
		From: base, To: base.Add(2 * time.Minute),
		GroupBy: []string{DimComponent},
	}
	for _, agg := range []AggKind{AggAvg, AggSum, AggMin, AggMax, AggCount, AggLast} {
		q.Agg = agg
		want, err := src.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() != got.Len() {
			t.Fatalf("agg %d: rows %d vs %d", agg, want.Len(), got.Len())
		}
		for i := 0; i < want.Len(); i++ {
			w, g := want.Row(i), got.Row(i)
			if w[1].StrVal() != g[1].StrVal() || math.Abs(w[2].FloatVal()-g[2].FloatVal()) > 1e-9 {
				t.Fatalf("agg %d row %d: want %v got %v", agg, i, w, g)
			}
		}
	}
	// A frame of another schema is rejected.
	bad := schema.NewFrame(schema.ObservationSchema)
	if err := dst.ImportStripes(bad); err == nil {
		t.Fatal("import of a non-ColdSchema frame should fail")
	}
}

// TestGranularityAnchoredToEpoch is the regression test for From-anchored
// buckets: shifting the query window must not move bucket boundaries.
func TestGranularityAnchoredToEpoch(t *testing.T) {
	db := New(Options{RollupInterval: time.Second})
	for s := 0; s < 120; s++ {
		insert(db, ob(s, "n", "m", float64(s)))
	}
	run := func(from time.Time) map[int64]float64 {
		f, err := db.Run(Query{
			From: from, To: base.Add(2 * time.Minute),
			Granularity: time.Minute, Agg: AggCount,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[int64]float64)
		for i := 0; i < f.Len(); i++ {
			out[f.Row(i)[0].TimeVal().UnixNano()] = f.Row(i)[1].FloatVal()
		}
		return out
	}
	aligned := run(base)
	// Shift From by 17s: the same retained data must land in the same
	// minute buckets (Druid epoch-anchored semantics), only the rows
	// excluded by the range filter change.
	shifted := run(base.Add(17 * time.Second))
	for ts := range shifted {
		if _, ok := aligned[ts]; !ok {
			t.Fatalf("shifted query created new bucket %v", time.Unix(0, ts).UTC())
		}
		if got := time.Unix(0, ts).UTC(); !got.Truncate(time.Minute).Equal(got) {
			t.Fatalf("bucket %v not minute-aligned", got)
		}
	}
	// The second minute is untouched by the shift and must agree exactly.
	m1 := base.Add(time.Minute).UnixNano()
	if aligned[m1] != shifted[m1] {
		t.Fatalf("minute-1 bucket diverged: %v vs %v", aligned[m1], shifted[m1])
	}
	// Granularity 0 still collapses the range to one bucket at From.
	f, err := db.Run(Query{From: base.Add(3 * time.Second), To: base.Add(2 * time.Minute), Agg: AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 || !f.Row(0)[0].TimeVal().Equal(base.Add(3*time.Second)) {
		t.Fatalf("zero-granularity result = %v", f.Rows())
	}
}

// TestConcurrentBatchIngestQueryRetain is the tsdb half of the ingest
// stress test: parallel InsertBatch / Run / Retain / ExportStripes under
// -race.
func TestConcurrentBatchIngestQueryRetain(t *testing.T) {
	db := New(Options{SegmentDuration: time.Minute, RollupInterval: time.Second})
	const writers = 8
	const perWriter = 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				batch := make([]schema.Observation, 0, 32)
				for j := 0; j < 32; j++ {
					batch = append(batch, ob((i*32+j)%600, fmt.Sprintf("node%02d", w), "m", float64(j)))
				}
				db.InsertBatch(batch)
			}
		}(w)
	}
	errc := make(chan error, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, err := db.Run(Query{
					From: base, To: base.Add(time.Hour),
					GroupBy: []string{DimComponent}, Granularity: time.Minute, Agg: AggSum,
				}); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			db.Retain(base.Add(time.Duration(i) * time.Second))
			if _, err := db.ExportStripes(allStripes()); err != nil {
				errc <- err
				return
			}
			db.Stats()
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got := db.Stats().RawIngested; got != writers*perWriter*32 {
		t.Fatalf("ingested = %d, want %d", got, writers*perWriter*32)
	}
}

// TestShardIndexSpread guards that realistic component names spread
// across most stripes instead of piling onto a few.
func TestShardIndexSpread(t *testing.T) {
	seen := make(map[uint32]bool)
	for i := 0; i < 64; i++ {
		seen[shardIndex(fmt.Sprintf("node%05d", i), "node_power_w")] = true
	}
	if len(seen) < shardCount/2 {
		t.Fatalf("64 components hashed to only %d of %d stripes", len(seen), shardCount)
	}
}

package tsdb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"odakit/internal/columnar"
)

// componentOn returns the first node name whose series of metric lives on
// stripe, skipping the names in taken.
func componentOn(t *testing.T, metric string, stripe int, taken map[string]bool) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if c := fmt.Sprintf("node%05d", i); !taken[c] && StripeFor(c, metric) == stripe {
			taken[c] = true
			return c
		}
	}
	t.Fatalf("no component of %s on stripe %d", metric, stripe)
	return ""
}

// TestMergeRemapsOppositeDictionaries: two stripes intern the same two
// groups in opposite orders, so merging one partial into the other must
// remap its group ids, not reuse them; the two metrics' values are three
// orders of magnitude apart, so a group merged under the other's id shows.
// Run, a direct GroupTable.Merge of the stripe partials and
// MergeStripePartials all answer byte-identically to RunSerial, and
// partials MergeStripePartials consumed are refused a second time.
func TestMergeRemapsOppositeDictionaries(t *testing.T) {
	const lo, hi = 3, 11
	taken := map[string]bool{}
	first := []struct{ comp, metric string }{ // in insertion order
		{componentOn(t, "m_small", lo, taken), "m_small"},
		{componentOn(t, "m_large", lo, taken), "m_large"},
		{componentOn(t, "m_large", hi, taken), "m_large"},
		{componentOn(t, "m_small", hi, taken), "m_small"},
	}
	db := New(Options{SegmentDuration: 10 * time.Minute, RollupInterval: 15 * time.Second, QueryCacheSize: -1})
	for s := 0; s < 600; s += 15 {
		for i, f := range first {
			v := float64(s%7) + float64(i)/3
			if f.metric == "m_large" {
				v = 1000*v + 0.1
			}
			insert(db, ob(s, f.comp, f.metric, v))
		}
	}
	for _, q := range []Query{
		{From: base, To: base.Add(10 * time.Minute), GroupBy: []string{DimMetric}, Granularity: time.Minute, Agg: AggSum},
		{From: base, To: base.Add(10 * time.Minute), GroupBy: []string{DimMetric}, Agg: AggAvg},
		{From: base, To: base.Add(10 * time.Minute), GroupBy: []string{DimMetric, DimSystem}, Granularity: 2 * time.Minute, Agg: AggLast},
	} {
		want, err := db.RunSerial(q)
		if err != nil {
			t.Fatal(err)
		}
		partials := func() []*StripePartial {
			parts := make([]*StripePartial, NumStripes)
			for s := range parts {
				if parts[s], err = db.StripePartial(plan(q), s); err != nil {
					t.Fatal(err)
				}
			}
			return parts
		}
		parts := partials()
		if a, b := parts[lo].groups.groups.vals, parts[hi].groups.groups.vals; len(a) != 2 || len(b) != 2 || a[0] != b[1] || a[1] != b[0] {
			t.Fatalf("group-by %v: stripe dictionaries %v and %v are not one pair in opposite orders", q.GroupBy, a, b)
		}
		p := Compile(q)
		var total GroupTable
		for _, sp := range parts {
			total.Merge(sp.groups)
		}
		direct, err := p.Frame(&total)
		if err != nil {
			t.Fatal(err)
		}
		again := partials()
		viaPartials, err := MergeStripePartials(plan(q), again)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := MergeStripePartials(plan(q), again); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("merging consumed partials again: %v, want ErrBadQuery", err)
		}
		run, err := db.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if !direct.Equal(want) || !viaPartials.Equal(want) || !run.Equal(want) {
			t.Fatalf("group-by %v: merged answers diverge from serial\nserial: %v\nMerge: %v\nMergeStripePartials: %v\nRun: %v",
				q.GroupBy, want.Rows(), direct.Rows(), viaPartials.Rows(), run.Rows())
		}
	}
}

// coldIDQueries are the grouping shapes the cold fold resolves to group
// ids differently: one dimension (a code lookup), two dimensions in either
// order (a code-tuple dictionary), none, and the collapsed bucket.
var coldIDQueries = []Query{
	{From: base, To: base.Add(time.Hour), GroupBy: []string{DimComponent}, Granularity: 5 * time.Minute, Agg: AggSum},
	{From: base, To: base.Add(time.Hour), GroupBy: []string{DimComponent, DimMetric}, Granularity: 10 * time.Minute, Agg: AggAvg},
	{From: base.Add(5 * time.Minute), To: base.Add(50 * time.Minute), GroupBy: []string{DimMetric, DimComponent}, Agg: AggLast},
	{From: base, To: base.Add(time.Hour), GroupBy: []string{DimMetric}, Agg: AggMin,
		Filters: map[string][]string{DimComponent: {"node00004", "node00021", "node00022"}}},
	{From: base, To: base.Add(time.Hour), Granularity: 15 * time.Minute, Agg: AggCount},
	{From: base, To: base.Add(time.Hour), Agg: AggMax},
}

// TestColdGroupIDsMatchSerial holds the cold fold's group ids to the
// all-hot serial reference on two layouts of the grouped dimensions'
// chunks: dictionary mode, each row group's dictionary coding the same
// values afresh, and plain mode, where every row has a code of its own and
// equal values must still meet in one group. Pruning off folds every row
// through the same ids after filtering in the fold loop.
func TestColdGroupIDsMatchSerial(t *testing.T) {
	for _, layout := range []struct {
		name  string
		plain bool
		fill  func(db *DB)
	}{
		// 8 nodes x 3 metrics every 15 s: each 64-row group holds a few
		// values per dimension, many times each.
		{"dictionary", false, func(db *DB) {
			for s := 0; s < 3600; s += 15 {
				for n := 0; n < 8; n++ {
					for m := 0; m < 3; m++ {
						insert(db, ob(s, fmt.Sprintf("node%05d", n), fmt.Sprintf("metric_%d", m), float64(s%101)/7+float64(100*m+n)))
					}
				}
			}
		}},
		// 200 nodes, most reporting once a chunk and every third twice:
		// more distinct components in a row group than half its rows.
		{"plain", true, func(db *DB) {
			for chunk := 0; chunk < 6; chunk++ {
				for n := 0; n < 200; n++ {
					for k := 0; k < 1+n%3/2; k++ {
						s := chunk*600 + (n%19)*15 + k*300
						insert(db, ob(s, fmt.Sprintf("node%05d", n), []string{"power_w", "temp_c"}[n%2], float64(s%89)/3+float64(n)))
					}
				}
			}
		}},
	} {
		t.Run(layout.name, func(t *testing.T) {
			opts := tierOptions()
			opts.QueryCacheSize = -1
			twin, db := New(opts), New(opts)
			layout.fill(twin)
			layout.fill(db)
			ct := attachTier(t, db, nil, ColdTierConfig{Prefix: "lake/", RowGroupRows: 64})
			if _, err := db.Offload(base.Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			if got := componentChunksPlain(t, ct); got != layout.plain {
				t.Fatalf("component chunks plain = %v, want %v", got, layout.plain)
			}
			for _, pruning := range []bool{true, false} {
				ct.SetPruning(pruning)
				for qi, q := range coldIDQueries {
					got, st, err := db.RunWithStats(q)
					if err != nil {
						t.Fatal(err)
					}
					want, err := twin.RunSerial(q)
					if err != nil {
						t.Fatal(err)
					}
					if st.ColdCells == 0 || want.Len() == 0 {
						t.Fatalf("pruning=%v query %d: %d cold cells, %d rows: the case checks nothing", pruning, qi, st.ColdCells, want.Len())
					}
					if !got.Equal(want) {
						t.Fatalf("pruning=%v query %d: cold fold diverges from serial (%d vs %d rows)", pruning, qi, got.Len(), want.Len())
					}
				}
			}
		})
	}
}

// componentChunksPlain reports whether the writer chose plain mode for
// every component chunk of the tier's objects (more distinct values than
// half the rows), and fails unless it chose one mode for all of them.
func componentChunksPlain(t *testing.T, ct *ColdTier) bool {
	t.Helper()
	var plain, dict int
	for _, seg := range ct.segs {
		data, _, err := ct.cfg.Store.Get(ct.cfg.Bucket, seg.meta.Key)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := columnar.NewFileReader(data)
		if err != nil {
			t.Fatal(err)
		}
		col, _ := ColdSchema.Index(DimComponent)
		for g := 0; g < fr.NumRowGroups(); g++ {
			f, err := fr.ReadGroup(g)
			if err != nil {
				t.Fatal(err)
			}
			vals := f.Col(col).Strs()
			distinct := map[string]bool{}
			for _, v := range vals {
				distinct[v] = true
			}
			if len(vals) >= 8 && 2*len(distinct) <= len(vals) {
				dict++
			} else {
				plain++
			}
		}
	}
	if plain > 0 && dict > 0 {
		t.Fatalf("%d plain and %d dictionary component chunks", plain, dict)
	}
	return plain > 0
}

// TestConcurrentStripeMergesShareTables: scatter-gathers running at once
// recycle one another's partial tables through partialTables, and each
// still answers as RunSerial does.
func TestConcurrentStripeMergesShareTables(t *testing.T) {
	db := propDB(-1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				q := randomQuery(rng)
				want, err := db.RunSerial(q)
				if err != nil {
					t.Error(err)
					return
				}
				parts := make([]*StripePartial, NumStripes)
				for s := range parts {
					if parts[s], err = db.StripePartial(plan(q), s); err != nil {
						t.Error(err)
						return
					}
				}
				got, err := MergeStripePartials(plan(q), parts)
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(want) {
					t.Errorf("worker %d query %d: merged partials diverge from serial (%d vs %d rows)", seed, i, got.Len(), want.Len())
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

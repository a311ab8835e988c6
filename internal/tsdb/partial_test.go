package tsdb

import (
	"math/rand"
	"testing"
	"time"
)

// TestStripePartialMergeMatchesRun is the scatter-gather equivalence
// property: executing a query stripe by stripe and folding the partials
// back together must be byte-identical to Run, across randomized query
// shapes — the same contract the cluster router's distributed merge
// relies on.
func TestStripePartialMergeMatchesRun(t *testing.T) {
	forceParallel(t)
	db := propDB(64)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		q := randomQuery(rng)
		want, err := db.Run(q)
		if err != nil {
			t.Fatalf("query %d: run: %v (%+v)", i, err, q)
		}
		parts := make([]*StripePartial, 0, NumStripes)
		for s := 0; s < NumStripes; s++ {
			sp, err := db.StripePartial(plan(q), s)
			if err != nil {
				t.Fatalf("query %d: stripe %d: %v", i, s, err)
			}
			parts = append(parts, sp)
		}
		got, err := MergeStripePartials(plan(q), parts)
		if err != nil {
			t.Fatalf("query %d: merge: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: stripe merge diverges from Run\nquery: %+v\nrun: %v\nmerged: %v",
				i, q, want.Rows(), got.Rows())
		}
	}
}

// TestExportStripesRoundTripPreservesScanOrder rebuilds a store from the
// order-preserving stripe export and checks the rebuilt replica answers
// queries — whole runs and individual stripe partials — byte-identically
// to the original. This is the re-replication path: a replacement
// replica built this way cannot perturb the cluster's merged results.
func TestExportStripesRoundTripPreservesScanOrder(t *testing.T) {
	db := propDB(64)
	re := New(Options{SegmentDuration: 10 * time.Minute, RollupInterval: 15 * time.Second})
	if err := re.ImportStripes(exportAll(t, db)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 300; i++ {
		q := randomQuery(rng)
		want, err := db.RunSerial(q)
		if err != nil {
			t.Fatalf("query %d: original: %v", i, err)
		}
		got, err := re.RunSerial(q)
		if err != nil {
			t.Fatalf("query %d: rebuilt: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: rebuilt replica diverges\nquery: %+v", i, q)
		}
		s := rng.Intn(NumStripes)
		wp, err := db.StripePartial(plan(q), s)
		if err != nil {
			t.Fatal(err)
		}
		gp, err := re.StripePartial(plan(q), s)
		if err != nil {
			t.Fatal(err)
		}
		wf, err := MergeStripePartials(plan(q), []*StripePartial{wp})
		if err != nil {
			t.Fatal(err)
		}
		gf, err := MergeStripePartials(plan(q), []*StripePartial{gp})
		if err != nil {
			t.Fatal(err)
		}
		if !gf.Equal(wf) {
			t.Fatalf("query %d stripe %d: rebuilt stripe partial diverges", i, s)
		}
	}
}

// TestMergeSparseStripePartials covers the merge's accumulator shortcut
// — the first non-empty partial's table becomes the total instead of
// being copied — on the inputs that steer it: filters that leave most
// stripes (the leading ones included) with no groups, and groups that
// span the stripes that do match, so later partials merge into a table
// that began life as an earlier one. The serial reference shares none of
// this code.
func TestMergeSparseStripePartials(t *testing.T) {
	db := propDB(-1)
	sawLeadingEmpty := false
	for _, comps := range [][]string{
		{"node00000"}, {"node00003", "node00007"}, {"node00001", "node00002", "node00005"},
	} {
		for _, groupBy := range [][]string{nil, {DimMetric}, {DimSystem, DimMetric}} {
			q := Query{
				From: base, To: base.Add(25 * time.Minute), Granularity: 7 * time.Minute,
				Filters: map[string][]string{DimComponent: comps}, GroupBy: groupBy, Agg: AggAvg,
			}
			want, err := db.RunSerial(q)
			if err != nil {
				t.Fatal(err)
			}
			// A merge consumes its partials, so each merge scans its own.
			scan := func(keepEmpty bool) (parts []*StripePartial) {
				for s := 0; s < NumStripes; s++ {
					sp, err := db.StripePartial(plan(q), s)
					if err != nil {
						t.Fatal(err)
					}
					if keepEmpty || sp.Groups() > 0 {
						parts = append(parts, sp)
					}
				}
				return parts
			}
			all, nonEmpty := scan(true), scan(false)
			if len(nonEmpty) == 0 || len(nonEmpty) > 2*len(comps) {
				t.Fatalf("%v: %d non-empty stripes, want a sparse non-zero count", comps, len(nonEmpty))
			}
			sawLeadingEmpty = sawLeadingEmpty || all[0].Groups() == 0
			for name, parts := range map[string][]*StripePartial{"all stripes": all, "non-empty only": nonEmpty} {
				got, err := MergeStripePartials(plan(q), parts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s, components %v, group-by %v: merge diverges from serial\nserial: %v\nmerged: %v",
						name, comps, groupBy, want.Rows(), got.Rows())
				}
			}
		}
	}
	if !sawLeadingEmpty {
		t.Fatal("no case left stripe 0 empty: the accumulator never moved off the first partial")
	}
}

// plan compiles a valid query for the scatter-gather surface.
func plan(q Query) *Plan {
	p := Compile(q)
	return &p
}

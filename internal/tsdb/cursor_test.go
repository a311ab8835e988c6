package tsdb

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"odakit/internal/schema"
)

// cursorStream draws a random observation stream for the per-series
// cursor: a clock that advances across ~80 rollup buckets while records
// arrive up to skew behind it, and a few series whose records alternate
// across a bucket boundary, one nanosecond either side. Enough series
// and buckets that a table holds several pages of cells, so page 0 grows
// (and moves) under the cursors' positions.
func cursorStream(rng *rand.Rand) []schema.Observation {
	const rollup = int64(15 * time.Second)
	nSeries := 8 + rng.Intn(40)
	alternating := 1 + rng.Intn(4)
	skew := rng.Int63n(3 * rollup)
	n := 3000 + rng.Intn(3000)
	step := 80 * rollup / int64(n)
	var obs []schema.Observation
	now := base.UnixNano()
	for i := 0; i < n; i++ {
		now += rng.Int63n(2 * step)
		s := rng.Intn(nSeries)
		ts := now - rng.Int63n(skew+1)
		if s < alternating {
			boundary := now - FloorMod(now, rollup)
			ts = boundary - 1 + int64(i%2)
		}
		obs = append(obs, schema.Observation{
			Ts:        time.Unix(0, ts).UTC(),
			System:    fmt.Sprintf("sys%d", s%2),
			Source:    "src",
			Component: fmt.Sprintf("node%05d", s/2),
			Metric:    "m",
			Value:     float64(rng.Intn(1000)) / 7,
		})
	}
	return obs
}

// TestCellCursorMatchesProbe holds CellTable.Cell, which finds a series'
// cell in its latest bucket through the series' cursor, to a reference
// table that probes the cell index for every record: after every record
// Cell returned the cell the index holds for its key, and at the end both
// tables hold the same keys and cells in the same insertion order under
// the same dictionary. The same streams through a DB answer Run exactly
// as RunSerial does.
func TestCellCursorMatchesProbe(t *testing.T) {
	const rollup = int64(15 * time.Second)
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		obs := cursorStream(rng)
		var ct, ref CellTable
		for i := range obs {
			o := &obs[i]
			s := Series{System: o.System, Source: o.Source, Component: o.Component, Metric: o.Metric}
			h := SeriesHash(s.Component, s.Metric)
			tsn := o.Ts.UnixNano()
			bucket := tsn - FloorMod(tsn, rollup)
			c := ct.Cell(h, bucket, &s)
			if _, want := ct.probe(h, Key{Ts: bucket, Series: ct.series.intern(h, &s)}); c != want {
				t.Fatalf("seed %d record %d: Cell returned a cell other than the index's for its key", seed, i)
			}
			c.Add(tsn, o.Value)
			_, rc := ref.probe(h, Key{Ts: bucket, Series: ref.series.intern(h, &s)})
			rc.Add(tsn, o.Value)
		}
		if ct.Len() != ref.Len() || ct.Len() <= 2*pageSize {
			t.Fatalf("seed %d: %d cells with the cursor, %d probing (want the same, over %d)", seed, ct.Len(), ref.Len(), 2*pageSize)
		}
		for i := 0; i < ct.Len(); i++ {
			k, c := ct.At(i)
			rk, rc := ref.At(i)
			if *k != *rk || *c != *rc {
				t.Fatalf("seed %d cell %d: %+v %+v with the cursor, %+v %+v probing", seed, i, *k, *c, *rk, *rc)
			}
		}
		if fmt.Sprint(ct.Dict()) != fmt.Sprint(ref.Dict()) {
			t.Fatalf("seed %d: dictionaries differ", seed)
		}

		db := New(Options{SegmentDuration: 5 * time.Minute, RollupInterval: 15 * time.Second, QueryCacheSize: -1})
		for rest := obs; len(rest) > 0; {
			k := min(len(rest), 1+rng.Intn(700))
			if err := db.InsertBatch(rest[:k]); err != nil {
				t.Fatal(err)
			}
			rest = rest[k:]
		}
		for _, gb := range [][]string{nil, {DimComponent}, {DimSystem, DimComponent}} {
			for _, gran := range []time.Duration{15 * time.Second, 45 * time.Second} {
				for agg := AggAvg; agg <= AggLast; agg++ {
					q := Query{From: base.Add(-time.Minute), To: base.Add(time.Hour), GroupBy: gb, Granularity: gran, Agg: agg}
					want, err := db.RunSerial(q)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := db.Run(q); err != nil || !got.Equal(want) {
						t.Fatalf("seed %d %s: Run diverges from RunSerial (err %v)", seed, q.Fingerprint(), err)
					}
				}
			}
		}
	}
}

package tsdb

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"odakit/internal/schema"
)

// cursorStream draws a random observation stream for a series' latest
// bucket shortcut: a clock that advances across ~80 rollup buckets while
// records arrive up to skew behind it, and a few series whose records
// alternate across a bucket boundary, one nanosecond either side. Enough
// series and buckets that a table holds several pages of cells, so page 0
// grows (and moves) under the shortcut's positions.
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

// TestCellCursorMatchesProbe holds CellTable.Cell, which finds a cell in
// its series' latest bucket from the tail of the series' run, to a
// reference table that looks every record up through the whole run
// (CellTable.cell): after every record Cell returned the cell the run
// holds for its bucket, and at the end both tables hold the same keys and
// cells in the same insertion order under the same dictionary. The same
// streams through a DB answer Run exactly as RunSerial does.
func TestCellCursorMatchesProbe(t *testing.T) {
	const rollup = int64(15 * time.Second)
	chunkN, segN := base.UnixNano()-4*rollup, 200*rollup
	probe := func(tab *CellTable, h uint32, ts int64, s *Series) *Cell {
		id := tab.series.intern(h, s)
		if int(id) == len(tab.runs) {
			tab.runs = append(tab.runs, seriesRun{})
		}
		return tab.cell(&tab.runs[id], id, uint32((ts-tab.grid.origin)/tab.grid.width))
	}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		obs := cursorStream(rng)
		geom := Geometry{Rollup: time.Duration(rollup), Segment: time.Duration(segN)}
		ct, ref := NewCellTable(chunkN, geom), NewCellTable(chunkN, geom)
		for i := range obs {
			o := &obs[i]
			s := Series{System: o.System, Source: o.Source, Component: o.Component, Metric: o.Metric}
			h := SeriesHash(s.Component, s.Metric)
			tsn := o.Ts.UnixNano()
			if tsn < chunkN || tsn >= chunkN+segN {
				t.Fatalf("seed %d record %d: %v is outside the table's chunk", seed, i, o.Ts)
			}
			c := ct.Cell(h, tsn, &s)
			if want := probe(ct, h, tsn, &s); c != want {
				t.Fatalf("seed %d record %d: Cell returned a cell other than the run's for its bucket", seed, i)
			}
			c.Add(tsn, o.Value)
			probe(ref, h, tsn, &s).Add(tsn, o.Value)
		}
		if ct.Len() != ref.Len() || ct.Len() <= 2*pageSize {
			t.Fatalf("seed %d: %d cells through Cell, %d through the run (want the same, over %d)", seed, ct.Len(), ref.Len(), 2*pageSize)
		}
		for i := 0; i < ct.Len(); i++ {
			k, c := ct.At(i)
			rk, rc := ref.At(i)
			if *k != *rk || *c != *rc {
				t.Fatalf("seed %d cell %d: %+v %+v through Cell, %+v %+v through the run", seed, i, *k, *c, *rk, *rc)
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

package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"odakit/internal/schema"
	"odakit/internal/tsdb"
)

var dimNames = []string{tsdb.DimSystem, tsdb.DimSource, tsdb.DimComponent, tsdb.DimMetric}

// randomQuery mirrors the tsdb property-test generator: random window,
// granularity, aggregation, group-by subset, and filters mixing known,
// unknown, and empty value lists.
func randomQuery(rng *rand.Rand) tsdb.Query {
	from := base.Add(time.Duration(rng.Intn(40)-5) * time.Minute)
	q := tsdb.Query{
		From: from,
		To:   from.Add(time.Duration(1+rng.Intn(40*60)) * time.Second),
		Agg:  tsdb.AggKind(rng.Intn(6)),
	}
	q.Granularity = []time.Duration{0, 15 * time.Second, time.Minute, 7 * time.Minute}[rng.Intn(4)]
	dims := append([]string(nil), dimNames...)
	rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
	q.GroupBy = dims[:rng.Intn(len(dims)+1)]
	q.Filters = map[string][]string{}
	known := map[string][]string{
		tsdb.DimSystem:    {"sys0", "sys1"},
		tsdb.DimSource:    {"src0", "src1"},
		tsdb.DimComponent: {"node00000", "node00003", "node00007"},
		tsdb.DimMetric:    {"node_power_w", "cpu_temp_c"},
	}
	for _, d := range dimNames {
		switch rng.Intn(5) {
		case 0:
			vals := known[d]
			q.Filters[d] = []string{vals[rng.Intn(len(vals))]}
		case 1:
			vals := append([]string(nil), known[d]...)
			if rng.Intn(2) == 0 {
				vals = append(vals, "ghost")
			}
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			q.Filters[d] = vals[:1+rng.Intn(len(vals))]
		case 2:
			if rng.Intn(4) == 0 {
				q.Filters[d] = []string{}
			}
		}
	}
	if len(q.Filters) == 0 {
		q.Filters = nil
	}
	return q
}

// insertBoth feeds the same observations to the reference store and the
// cluster; both must accept (a cluster insert failure here is a test
// failure, not a tolerated fault).
func insertBoth(t *testing.T, ref *tsdb.DB, c *Cluster, obs []schema.Observation) {
	t.Helper()
	if err := ref.InsertBatch(obs); err != nil {
		t.Fatalf("reference insert: %v", err)
	}
	if err := c.InsertBatch(obs); err != nil {
		t.Fatalf("cluster insert: %v", err)
	}
}

// assertQueriesMatch runs n random queries against the cluster's
// scatter-gather router and the single-node reference, requiring
// byte-identical frames (same rows, same order, same float bits).
func assertQueriesMatch(t *testing.T, ref *tsdb.DB, c *Cluster, rng *rand.Rand, n int, epoch string) {
	t.Helper()
	for i := 0; i < n; i++ {
		q := randomQuery(rng)
		want, err := ref.Run(q)
		if err != nil {
			t.Fatalf("%s query %d: reference: %v", epoch, i, err)
		}
		got, err := c.Run(q)
		if err != nil {
			t.Fatalf("%s query %d: cluster: %v", epoch, i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s query %d: clustered result diverges from single-node\nquery: %+v\nwant: %v\ngot: %v",
				epoch, i, q, want.Rows(), got.Rows())
		}
	}
}

// TestClusterQueryByteIdentityAcrossEpochs is the tentpole's correctness
// property: at every membership epoch — initial, node killed, repaired,
// restarted, node joined, node drained out — the scatter-gather router
// answers randomized queries byte-identically to a single-node store
// holding the same data. Fresh data lands between epochs so each
// assertion also covers post-event ingest.
func TestClusterQueryByteIdentityAcrossEpochs(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	ref := tsdb.New(lakeOpts())
	c := testCluster(t, 3, 2)

	feed := func(n int) {
		batch := make([]schema.Observation, n)
		for i := range batch {
			batch[i] = seedObs(rng, rng.Intn(1<<20))
		}
		insertBoth(t, ref, c, batch)
	}
	step := func(name string, ev func() error) {
		t.Helper()
		if err := ev(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		feed(400)
		assertQueriesMatch(t, ref, c, rng, 60, fmt.Sprintf("%s(epoch %d)", name, c.Epoch()))
		if h := c.Health(); h.Status == "down" {
			t.Fatalf("%s: cluster reports down (%+v)", name, h)
		}
	}

	step("initial", func() error { return nil })
	step("kill n2", func() error { return c.Kill("n2") })
	step("repair", c.Repair)
	step("restart n2", func() error {
		if err := c.Restart("n2"); err != nil {
			return err
		}
		return c.Repair()
	})
	step("join n4", func() error {
		if err := c.AddNode("n4"); err != nil {
			return err
		}
		return c.Repair()
	})
	step("drain n1", func() error { return c.RemoveNode("n1") })
	step("final repair", c.Repair)

	if h := c.Health(); h.Status != "ok" {
		t.Fatalf("final health = %s, want ok (%+v)", h.Status, h)
	}
}

// serialTopN ranks the single node's serial reference scan by hand: full
// group-by, sort by (value descending, dimension ascending), truncate.
func serialTopN(t *testing.T, ref *tsdb.DB, q tsdb.Query, dim string, n int) []tsdb.TopNEntry {
	t.Helper()
	q, err := tsdb.TopNQuery(q, dim)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ref.RunSerial(q)
	if err != nil {
		t.Fatal(err)
	}
	top := make([]tsdb.TopNEntry, f.Len())
	for i := range top {
		top[i] = tsdb.TopNEntry{Dim: f.Row(i)[1].StrVal(), Value: f.Row(i)[2].FloatVal()}
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Value != top[j].Value {
			return top[i].Value > top[j].Value
		}
		return top[i].Dim < top[j].Dim
	})
	return top[:max(0, min(n, len(top)))]
}

// TestClusterTopNMatchesSingleNode pins top-N through the router to the
// single node's — both to the serial reference: same entries, same
// order, for every n including the edges (n <= 0 selects nothing, n past
// the group count returns every group) and with two components tied on
// value, where only the dimension tie-break orders them.
func TestClusterTopNMatchesSingleNode(t *testing.T) {
	ref := tsdb.New(lakeOpts())
	c := testCluster(t, 3, 2)
	var batch []schema.Observation
	for comp, v := range []float64{40, 70, 70, 10, 55} { // node00001 ties node00002
		for i := 0; i < 6; i++ {
			batch = append(batch, schema.Observation{
				Ts: base.Add(time.Duration(i) * 20 * time.Second), System: "sys0", Source: "src0",
				Component: fmt.Sprintf("node%05d", comp), Metric: "node_power_w", Value: v,
			})
		}
	}
	insertBoth(t, ref, c, batch)
	const groups = 5
	for _, agg := range []tsdb.AggKind{tsdb.AggAvg, tsdb.AggMax, tsdb.AggCount} {
		q := tsdb.Query{From: base, To: base.Add(10 * time.Minute), Agg: agg}
		for _, n := range []int{-1, 0, 1, 2, groups + 5} {
			want := serialTopN(t, ref, q, tsdb.DimComponent, n)
			single, sst, err := tsdb.TopN(ref, q, tsdb.DimComponent, n)
			if err != nil {
				t.Fatalf("agg %d n %d: single node: %v", agg, n, err)
			}
			got, st, err := tsdb.TopN(c, q, tsdb.DimComponent, n)
			if err != nil {
				t.Fatalf("agg %d n %d: cluster: %v", agg, n, err)
			}
			if got == nil || single == nil || !slices.Equal(got, want) || !slices.Equal(single, want) {
				t.Fatalf("agg %d n %d: cluster %v, single node %v, serial reference %v", agg, n, got, single, want)
			}
			// The router's top-N is metered like its Run: the cells the
			// single node scanned (when its result cache did not answer).
			if st.CellsScanned == 0 || st.Groups != groups || (!sst.CacheHit && sst.CellsScanned != st.CellsScanned) {
				t.Fatalf("agg %d n %d: cluster stats %+v, single node %+v", agg, n, st, sst)
			}
		}
	}
	if _, _, err := tsdb.TopN(c, tsdb.Query{From: base, To: base.Add(time.Minute)}, "bogus", 3); !errors.Is(err, tsdb.ErrBadQuery) {
		t.Fatalf("bogus dimension: err = %v, want ErrBadQuery", err)
	}
}

package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// chaosSeed returns the deterministic chaos seed: ODA_CHAOS_SEED when
// set (the Makefile pins 20240601), else the same default.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("ODA_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad ODA_CHAOS_SEED %q: %v", v, err)
		}
		return n
	}
	return 20240601
}

var base = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func lakeOpts() tsdb.Options {
	return tsdb.Options{SegmentDuration: 10 * time.Minute, RollupInterval: 15 * time.Second}
}

// keyedMsgs builds a deterministic batch of keyed messages.
func keyedMsgs(rng *rand.Rand, batch, n int) []stream.Message {
	msgs := make([]stream.Message, n)
	for i := range msgs {
		msgs[i] = stream.Message{
			Key:   []byte(fmt.Sprintf("k%d", rng.Intn(64))),
			Value: []byte(fmt.Sprintf("b%d-m%d-%d", batch, i, rng.Int63())),
		}
	}
	return msgs
}

// seedObsBatch builds n deterministic observations over 8 components,
// 2 metrics, 2 systems and 2 sources in a 30-minute window.
func seedObsBatch(rng *rand.Rand, n int) []schema.Observation {
	obs := make([]schema.Observation, n)
	for j := range obs {
		i := rng.Intn(1 << 20)
		c := i % 8
		obs[j] = schema.Observation{
			Ts:        base.Add(time.Duration(i%1800) * time.Second),
			System:    fmt.Sprintf("sys%d", c%2),
			Source:    fmt.Sprintf("src%d", (c/2)%2),
			Component: fmt.Sprintf("node%05d", c),
			Metric:    []string{"node_power_w", "cpu_temp_c"}[i%2],
			Value:     float64(rng.Intn(2000)) / 3.0,
		}
	}
	return obs
}

// retryFailed publishes msgs and, after each failure, publishes again
// exactly the Failed remainder — the plane contract core.publishRetry
// follows — up to attempts times, returning the last error.
func retryFailed(c *Cluster, topic string, msgs []stream.Message, attempts int) error {
	var err error
	for a := 0; a < attempts; a++ {
		if _, err = c.PublishBatch(topic, msgs); err == nil {
			return nil
		}
		var pp *stream.PartialPublishError
		if errors.As(err, &pp) {
			msgs = pp.Failed
		}
	}
	return err
}

// assertValues reads every partition of topic through the cluster and
// requires exactly want's values — in order, or, for publishers whose
// interleaving no one order describes, as a multiset (sorted).
func assertValues(t *testing.T, c *Cluster, topic string, want map[int][]string, sorted bool) {
	t.Helper()
	parts, err := c.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		fetch := func(off int64, max int) ([]stream.Record, error) { return c.AppendRecords(nil, topic, p, off, max) }
		recs, err := readLog(fetch, 1<<62, 512)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(recs))
		for i, r := range recs {
			got[i] = string(r.Value)
		}
		w := slices.Clone(want[p])
		if sorted {
			slices.Sort(got)
			slices.Sort(w)
		}
		if !slices.Equal(got, w) {
			t.Fatalf("%s/%d holds %d records, want %d: committed records lost, duplicated or reordered", topic, p, len(got), len(w))
		}
	}
}

// readLog drains a log from offset 0 to end in pages of up to max.
func readLog(fetch func(off int64, max int) ([]stream.Record, error), end int64, max int) ([]stream.Record, error) {
	var out []stream.Record
	for off := int64(0); off < end; {
		recs, err := fetch(off, int(min(int64(max), end-off)))
		if err != nil || len(recs) == 0 {
			return out, err
		}
		out = append(out, recs...)
		off = recs[len(recs)-1].Offset + 1
	}
	return out, nil
}

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

// TestClusterReadyWakesOnCommit: a reader parked on Ready wakes when the
// high watermark rises, not when the leader log grows. A publish staged
// without quorum leaves the channel open, and so does Repair, which
// commits nothing no publisher was told succeeded; publishing the failed
// record again once the follower is back commits it and closes the
// channel.
func TestClusterReadyWakesOnCommit(t *testing.T) {
	c := build(t, 2, Config{RF: 2})
	if err := c.CreateTopic("telemetry", stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	ch, err := c.Ready("telemetry", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := c.topic("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	follower := tp.parts[0].followers[0]
	if err := c.Kill(follower); err != nil {
		t.Fatal(err)
	}
	msgs := []stream.Message{{Key: []byte("k"), Value: []byte("staged")}}
	if _, err := c.PublishBatch("telemetry", msgs); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("publish with the follower dead: %v, want ErrQuorumLost", err)
	}
	if end, _ := c.node(tp.parts[0].leader).Broker.EndOffset("telemetry", 0); end != 1 {
		t.Fatalf("the leader log ends at %d, want the staged record at 0", end)
	}
	if isClosed(ch) {
		t.Fatal("a staged, unacked record woke the parked reader")
	}
	if again, err := c.Ready("telemetry", 0, 0); err != nil || isClosed(again) {
		t.Fatalf("Ready at the high watermark over a staged suffix fired (%v)", err)
	}
	if err := c.Restart(follower); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	if isClosed(ch) {
		t.Fatal("Repair committed a publish that failed")
	}
	if _, err := c.PublishBatch("telemetry", msgs); err != nil {
		t.Fatal(err)
	}
	if !isClosed(ch) {
		t.Fatal("the commit did not wake the parked reader")
	}
	if recs, err := c.AppendRecords(nil, "telemetry", 0, 0, 10); err != nil || len(recs) != 1 || string(recs[0].Value) != "staged" {
		t.Fatalf("fetch after the commit: %d records, %v", len(recs), err)
	}
	if ready, err := c.Ready("telemetry", 0, 0); err != nil || !isClosed(ready) {
		t.Fatalf("Ready below the high watermark comes back open (%v)", err)
	}
}

// isClosed reports whether a Ready channel has fired, without waiting.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
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
	c := build(t, 3, Config{RF: 2})
	var batch []schema.Observation
	for comp, v := range []float64{40, 70, 70, 10, 55} { // node00001 ties node00002
		for i := 0; i < 6; i++ {
			batch = append(batch, schema.Observation{
				Ts: base.Add(time.Duration(i) * 20 * time.Second), System: "sys0", Source: "src0",
				Component: fmt.Sprintf("node%05d", comp), Metric: "node_power_w", Value: v,
			})
		}
	}
	if err := ref.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
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

package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odakit/internal/faults"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// ingestBatch is the k-th batch of a telemetry feed in the benchmark
// harness's shape: n records, tick-major over 256 nodes × 2 metrics, one
// tick every second, each message keyed by component with the encoded
// observation as its value. tag prefixes the component names so feeds
// can be told apart.
func ingestBatch(tag string, k, n int) ([]schema.Observation, []stream.Message) {
	obs := make([]schema.Observation, n)
	msgs := make([]stream.Message, n)
	for i := range obs {
		seq := k*n + i
		o := schema.Observation{
			Ts:     base.Add(time.Duration(seq/512) * time.Second),
			System: "compass", Source: "power_temp",
			Component: fmt.Sprintf("%snode%05d", tag, seq%256),
			Metric:    []string{"node_power_w", "cpu_temp_c"}[seq/256%2],
			Value:     float64(seq%977) / 7,
		}
		obs[i] = o
		msgs[i] = stream.Message{Key: []byte(o.Component), Value: schema.EncodeRow(o.Row())}
	}
	return obs, msgs
}

// mixedMsgs is a batch with roughly one keyless message in four and a
// value unique under tag.
func mixedMsgs(rng *rand.Rand, tag string, n int) []stream.Message {
	msgs := make([]stream.Message, n)
	for i := range msgs {
		if rng.Intn(4) > 0 {
			msgs[i].Key = fmt.Appendf(nil, "k%d", rng.Intn(48))
		}
		msgs[i].Value = fmt.Appendf(nil, "%s-%04d", tag, i)
	}
	return msgs
}

// TestClusterPublishRegroupProperty: the cluster's counting-sort regroup
// leaves every partition's committed log holding what message-at-a-time
// routing puts there — keyed by stream.KeyPartition, keyless by the same
// round-robin walk, batch order inside a partition — through one-partition
// topics, batches that land on one partition, and a fault on one
// partition's leader hop, whose sub-batch (and only it) comes back in
// Failed as a slice later batches never touch.
func TestClusterPublishRegroupProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	for _, parts := range []int{1, 4, 7} {
		c := testCluster(t, 3, 2)
		topic := fmt.Sprintf("regroup-%d", parts)
		if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: parts}); err != nil {
			t.Fatal(err)
		}
		var rr atomic.Uint64 // the reference walk of the topic's keyless cursor
		want := map[int][]string{}
		type kept struct {
			failed []stream.Message
			was    string
		}
		var keptFailed []kept
		for b := 0; b < 24; b++ {
			msgs := mixedMsgs(rng, fmt.Sprintf("b%d", b), 1+rng.Intn(200))
			if b%5 == 4 { // every message on one partition: the uncopied path
				key := fmt.Appendf(nil, "only-%d", b)
				for i := range msgs {
					msgs[i].Key = key
				}
			}
			byPart := make([][]stream.Message, parts)
			for _, m := range msgs {
				p := stream.KeyPartition(m.Key, parts)
				if len(m.Key) == 0 {
					p = int(rr.Add(1) % uint64(parts))
				}
				byPart[p] = append(byPart[p], m)
			}
			if b%3 == 2 {
				// Drop the k-th router→leader publish hop of this batch:
				// sub-batches stage in partition order, so that is the k-th
				// touched partition.
				k, calls := rng.Intn(2), 0
				c.Transport().SetFaultHook(func(op, target string) error {
					if op != OpPublish {
						return nil
					}
					calls++
					if calls-1 == k {
						return &faults.InjectedError{Op: op, Target: target}
					}
					return nil
				})
			}
			n, err := c.PublishBatch(topic, msgs)
			c.Transport().SetFaultHook(nil)
			failedPart := -1
			var ppe *stream.PartialPublishError
			if errors.As(err, &ppe) {
				for p := range byPart {
					if reflect.DeepEqual(byPart[p], ppe.Failed) {
						failedPart = p
					}
				}
				if failedPart < 0 || n != len(msgs)-len(ppe.Failed) {
					t.Fatalf("parts=%d batch %d: Failed (%d msgs, %d published) is no partition's sub-batch", parts, b, len(ppe.Failed), n)
				}
				keptFailed = append(keptFailed, kept{ppe.Failed, fmt.Sprint(ppe.Failed)})
			} else if err != nil {
				t.Fatalf("parts=%d batch %d: %v", parts, b, err)
			}
			for p := range byPart {
				if p == failedPart {
					continue
				}
				for _, m := range byPart[p] {
					if len(m.Key) > 0 && p != stream.KeyPartition(m.Key, parts) {
						t.Fatalf("reference routed key %q to %d", m.Key, p)
					}
					want[p] = append(want[p], string(m.Value))
				}
			}
		}
		assertExactSequences(t, c, topic, want, fmt.Sprintf("parts=%d", parts))
		if len(keptFailed) == 0 {
			t.Fatalf("parts=%d: no partial publish occurred", parts)
		}
		for _, k := range keptFailed {
			if fmt.Sprint(k.failed) != k.was {
				t.Fatalf("parts=%d: a PartialPublishError's Failed changed under later batches: it aliases the pooled scratch", parts)
			}
		}
	}
}

// TestClusterInsertRegroupKeepsStripeOrder: every replica of every stripe
// holds its cells in the insertion order a single node fed the same
// batches holds them in, whether a batch spans all stripes or sits on one
// (the uncopied path) — which is what keeps any replica's stripe scan
// byte-identical to the single node's.
func TestClusterInsertRegroupKeepsStripeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	c := testCluster(t, 3, 2)
	ref := tsdb.New(lakeOpts())
	for b := 0; b < 40; b++ {
		obs := seedObsBatch(rng, 1+rng.Intn(300))
		if b%4 == 3 {
			one := obs[0]
			for i := range obs {
				obs[i].Component, obs[i].Metric = one.Component, one.Metric
			}
		}
		insertBoth(t, ref, c, obs)
	}
	for s := 0; s < tsdb.NumStripes; s++ {
		want, err := ref.ExportStripes([]int{s})
		if err != nil {
			t.Fatal(err)
		}
		servers := c.stripeServers(s, true)
		if len(servers) != 2 {
			t.Fatalf("stripe %d served by %v, want RF=2 replicas", s, servers)
		}
		for _, id := range servers {
			got, err := c.node(id).Lake().ExportStripes([]int{s})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("stripe %d on %s: cell order differs from the single node's", s, id)
			}
		}
	}
}

// TestClusterConcurrentIngestScratchIsolation: feeds sharing the pooled
// regroup scratch, each with its own topic and its own series, end up with
// exactly their own records in order and exactly their own cells — run
// under -race, which also flags a scratch handed to two batches at once.
func TestClusterConcurrentIngestScratchIsolation(t *testing.T) {
	const feeds, batches, size, parts = 4, 25, 96, 4
	c := testCluster(t, 3, 2)
	ref := tsdb.New(lakeOpts())
	var wg sync.WaitGroup
	for g := 0; g < feeds; g++ {
		if err := c.CreateTopic(fmt.Sprintf("feed%d", g), stream.TopicConfig{Partitions: parts}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < batches; k++ {
				obs, msgs := ingestBatch(fmt.Sprintf("f%d-", g), k, size)
				if _, err := c.PublishBatch(fmt.Sprintf("feed%d", g), msgs); err != nil {
					t.Error(err)
					return
				}
				if err := c.InsertBatch(obs); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 0; g < feeds; g++ {
		want := map[int][]string{}
		for k := 0; k < batches; k++ {
			obs, msgs := ingestBatch(fmt.Sprintf("f%d-", g), k, size)
			recordWant(want, msgs, parts)
			if err := ref.InsertBatch(obs); err != nil {
				t.Fatal(err)
			}
		}
		assertExactSequences(t, c, fmt.Sprintf("feed%d", g), want, fmt.Sprintf("feed %d", g))
	}
	// One rollup cell per group, so the answer does not depend on how the
	// feeds interleaved — only on every cell having received its own
	// samples, all of them, in its feed's order.
	q := tsdb.Query{
		From: base, To: base.Add(time.Hour), Granularity: 15 * time.Second, Agg: tsdb.AggSum,
		GroupBy: []string{tsdb.DimComponent, tsdb.DimMetric},
	}
	want, err := ref.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Run(q); err != nil || got.Len() == 0 || !got.Equal(want) {
		t.Fatalf("cluster lake differs from the reference fed one feed at a time (err %v)", err)
	}
}

// feedBatch is one pre-generated batch in both of its forms.
type feedBatch struct {
	obs  []schema.Observation
	msgs []stream.Message
}

// ingestFeed pre-generates the first n 512-record batches of the feed.
func ingestFeed(n int) []feedBatch {
	feed := make([]feedBatch, n)
	for k := range feed {
		feed[k].obs, feed[k].msgs = ingestBatch("", k, 512)
	}
	return feed
}

// ingestCluster is the benchmark harness's ingest_replicated plane: three
// nodes, RF=2, memory-only, one four-partition topic.
func ingestCluster(t testing.TB) *Cluster {
	c := testCluster(t, 3, 2)
	if err := c.CreateTopic("bronze.power_temp", stream.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClusterIngestBatchAllocs bounds what one steady-state 512-record
// batch (publish + insert, fresh cells every batch, 3 nodes / RF=2,
// memory-only) allocates, in objects and in bytes per record. This layout
// measures 114 objects and 304 B per record: a partition log takes one
// arena and one index per appended or shipped batch. Two copies per
// record on the follower ship cost 1 012 objects more, per-partition and
// per-stripe append regroups 136, dense cell arrays re-grown by append
// 722 B per record. The bounds sit between — the byte one with room for
// -race, whose sync.Pool drops scratch at random (up to ~405 B measured) —
// so none can creep back. The warm-up carries the run past page 0's and
// the chunk queues' doubling (no retention here, so the queues do grow).
func TestClusterIngestBatchAllocs(t *testing.T) {
	const size, warm, runs = 512, 300, 100
	c := ingestCluster(t)
	feed := ingestFeed(warm + runs + 1)
	k := 0
	one := func() {
		b := feed[k]
		k++
		if _, err := c.PublishBatch("bronze.power_temp", b.msgs); err != nil {
			t.Fatal(err)
		}
		if err := c.InsertBatch(b.obs); err != nil {
			t.Fatal(err)
		}
	}
	for k < warm {
		one() // past the chunk queues' and page 0's doubling
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(runs-1, one) // runs once more to warm up
	runtime.ReadMemStats(&after)
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*size)
	t.Logf("%.0f objects per batch, %.0f B per record", objects, perRecord)
	if objects > 150 {
		t.Errorf("a steady-state batch allocates %.0f objects, bound 150", objects)
	}
	if perRecord > 420 {
		t.Errorf("a steady-state batch allocates %.0f B per record, bound 420", perRecord)
	}
}

// BenchmarkClusterIngestBatch is one producer's closed ingest loop on the
// replicated plane: publish + insert of a 512-record batch whose
// timestamps keep advancing, so the lakes keep growing cells as a live
// feed's do. B/op ÷ 512 is the harness's alloc_bytes_per_record without
// the CQ pump.
func BenchmarkClusterIngestBatch(b *testing.B) {
	const size, pool = 512, 64
	c := ingestCluster(b)
	feed := ingestFeed(pool)
	lap := time.Duration(pool) * time.Second // the pool covers pool ticks
	obs := make([]schema.Observation, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := feed[i%pool]
		copy(obs, src.obs)
		for j := range obs {
			obs[j].Ts = obs[j].Ts.Add(time.Duration(i/pool) * lap)
		}
		if _, err := c.PublishBatch("bronze.power_temp", src.msgs); err != nil {
			b.Fatal(err)
		}
		if err := c.InsertBatch(obs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/record")
}

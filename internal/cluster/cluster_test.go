package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"odakit/internal/plane"
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

// testCluster builds an n-node cluster (n1..nN) with the given RF and
// the property-test lake geometry.
func testCluster(t testing.TB, n, rf int) *Cluster {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	c, err := New(ids, Config{RF: rf, LakeOptions: lakeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// keyedMsgs builds a deterministic batch of keyed messages; keys make
// the publish path exactly-once under retry.
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

// seedObs builds one deterministic observation in the propDB shape.
func seedObs(rng *rand.Rand, i int) schema.Observation {
	c := i % 8
	return schema.Observation{
		Ts:        base.Add(time.Duration(i%1800) * time.Second),
		System:    fmt.Sprintf("sys%d", c%2),
		Source:    fmt.Sprintf("src%d", (c/2)%2),
		Component: fmt.Sprintf("node%05d", c),
		Metric:    []string{"node_power_w", "cpu_temp_c"}[i%2],
		Value:     float64(rng.Intn(2000)) / 3.0,
	}
}

// fetchAll drains one partition's committed records through the
// cluster's read path.
func fetchAll(t *testing.T, c *Cluster, topic string, part int) []stream.Record {
	t.Helper()
	var out []stream.Record
	off := int64(0)
	for {
		recs, err := c.FetchNoWait(topic, part, off, 512)
		if err != nil {
			t.Fatalf("fetch %s/%d@%d: %v", topic, part, off, err)
		}
		if len(recs) == 0 {
			return out
		}
		out = append(out, recs...)
		off = recs[len(recs)-1].Offset + 1
	}
}

// TestClusterPublishMatchesSingleBroker drives identical keyed batches
// through a 3-node RF=2 cluster and a plain single broker: keyed routing
// must place every message on the same partition, and each partition's
// committed key/value sequence must be identical — the replicated STREAM
// is transparent to producers and consumers.
func TestClusterPublishMatchesSingleBroker(t *testing.T) {
	c := testCluster(t, 3, 2)
	ref := stream.NewBroker()
	cfg := stream.TopicConfig{Partitions: 4}
	if err := c.CreateTopic("telemetry", cfg); err != nil {
		t.Fatal(err)
	}
	if err := ref.CreateTopic("telemetry", cfg); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	for b := 0; b < 20; b++ {
		msgs := keyedMsgs(rng, b, 16)
		if _, err := c.PublishBatch("telemetry", msgs); err != nil {
			t.Fatalf("cluster publish %d: %v", b, err)
		}
		for _, m := range msgs { // per-message so partition order matches routing exactly
			if _, err := ref.PublishBatch("telemetry", []stream.Message{m}); err != nil {
				t.Fatalf("ref publish: %v", err)
			}
		}
	}
	for p := 0; p < 4; p++ {
		got := fetchAll(t, c, "telemetry", p)
		end, err := ref.EndOffset("telemetry", p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.FetchNoWait("telemetry", p, 0, int(end)+1)
		if err != nil && end > 0 {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("partition %d: %d records, reference has %d", p, len(got), len(want))
		}
		for i := range got {
			if got[i].Offset != want[i].Offset || string(got[i].Key) != string(want[i].Key) ||
				string(got[i].Value) != string(want[i].Value) {
				t.Fatalf("partition %d record %d diverges: %+v vs %+v", p, i, got[i], want[i])
			}
		}
	}
}

// TestClusterFollowersHoldIdenticalPrefix checks the replication
// invariant directly: after committed publishes, every follower's log is
// a byte-identical prefix of its leader's, ending at the high watermark.
func TestClusterFollowersHoldIdenticalPrefix(t *testing.T) {
	c := testCluster(t, 3, 2)
	if err := c.CreateTopic("telemetry", stream.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	for b := 0; b < 10; b++ {
		if _, err := c.PublishBatch("telemetry", keyedMsgs(rng, b, 32)); err != nil {
			t.Fatal(err)
		}
	}
	tp, err := c.topic("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range tp.parts {
		ps.mu.Lock()
		leader, followers, hw := ps.leader, append([]string(nil), ps.followers...), ps.hw
		ps.mu.Unlock()
		if hw == 0 {
			continue
		}
		lrecs, err := c.node(leader).Broker.FetchNoWait("telemetry", ps.idx, 0, int(hw))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range followers {
			frecs, err := c.node(f).Broker.FetchNoWait("telemetry", ps.idx, 0, int(hw))
			if err != nil {
				t.Fatalf("follower %s part %d: %v", f, ps.idx, err)
			}
			if len(frecs) != len(lrecs) {
				t.Fatalf("part %d: follower %s holds %d records below hw %d, leader %s holds %d",
					ps.idx, f, len(frecs), hw, leader, len(lrecs))
			}
			for i := range frecs {
				if frecs[i].Offset != lrecs[i].Offset ||
					string(frecs[i].Key) != string(lrecs[i].Key) ||
					string(frecs[i].Value) != string(lrecs[i].Value) ||
					!frecs[i].Ts.Equal(lrecs[i].Ts) {
					t.Fatalf("part %d offset %d: replica %s diverges from leader", ps.idx, frecs[i].Offset, f)
				}
			}
		}
	}
}

// TestClusterFetchAfterHWIsInFuture pins read semantics: the high
// watermark bounds reads even though the leader log may hold staged
// records beyond it.
func TestClusterFetchAfterHWIsInFuture(t *testing.T) {
	c := testCluster(t, 3, 2)
	if err := c.CreateTopic("telemetry", stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishBatch("telemetry", []stream.Message{{Key: []byte("k"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	end, err := c.EndOffset("telemetry", 0)
	if err != nil {
		t.Fatal(err)
	}
	if end != 1 {
		t.Fatalf("hw = %d, want 1", end)
	}
	if _, err := c.FetchNoWait("telemetry", 0, end+1, 10); !errors.Is(err, stream.ErrOffsetInFuture) {
		t.Fatalf("fetch past hw: %v, want ErrOffsetInFuture", err)
	}
	if recs, err := c.FetchNoWait("telemetry", 0, end, 10); err != nil || len(recs) != 0 {
		t.Fatalf("fetch at hw: %v records, err %v", len(recs), err)
	}
}

// TestClusterHealthTransitions walks a node through kill → repair →
// restart → repair and pins the /healthz contract: degraded while
// under-replicated, never down, ok again once re-replication completes.
func TestClusterHealthTransitions(t *testing.T) {
	c := testCluster(t, 3, 2)
	if err := c.CreateTopic("telemetry", stream.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	// A never-published topic (a bronze source the deployment does not
	// ingest) is fully replicated: there is nothing to replicate.
	if err := c.CreateTopic("idle", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	if _, err := c.PublishBatch("telemetry", keyedMsgs(rng, 0, 64)); err != nil {
		t.Fatal(err)
	}
	if h := c.Health(); h.Status != "ok" {
		t.Fatalf("initial health = %s (%+v)", h.Status, h)
	}
	if err := c.Kill("n2"); err != nil {
		t.Fatal(err)
	}
	h := c.Health()
	if h.Status != "degraded" {
		t.Fatalf("health after kill = %s, want degraded (%+v)", h.Status, h)
	}
	if err := c.Repair(); err != nil {
		t.Fatalf("repair with node down: %v", err)
	}
	// Still degraded: a member is dead even though data is re-replicated.
	if h := c.Health(); h.Status == "down" {
		t.Fatalf("health after repair = down (%+v)", h)
	}
	if err := c.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(); err != nil {
		t.Fatalf("repair after restart: %v", err)
	}
	if h := c.Health(); h.Status != "ok" {
		t.Fatalf("health after restart+repair = %s (%+v)", h.Status, h)
	}
}

// TestClusterIdenticalBatchRepublish publishes the same content twice,
// each publish observed successful: the second is a new publish, not a
// retry, so it must append — content-identical batches (heartbeats,
// repeated measurements, constant-valued events) must never be silently
// deduped against an earlier committed batch.
func TestClusterIdenticalBatchRepublish(t *testing.T) {
	c := testCluster(t, 3, 2)
	const topic = "telemetry"
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	msgs := []stream.Message{
		{Key: []byte("hb"), Value: []byte("alive")},
		{Key: []byte("hb"), Value: []byte("alive")},
	}
	for i := 0; i < 2; i++ {
		if n, err := c.PublishBatch(topic, msgs); err != nil || n != len(msgs) {
			t.Fatalf("publish %d = (%d, %v), want (%d, nil)", i, n, err, len(msgs))
		}
	}
	p := stream.KeyPartition([]byte("hb"), 2)
	if recs := fetchAll(t, c, topic, p); len(recs) != 4 {
		t.Fatalf("identical republish deduped: %d records, want 4", len(recs))
	}
	// A batch of one repeating the content is a new record too, committed
	// at the next offset.
	for i := 0; i < 2; i++ {
		if _, err := c.PublishBatch(topic, msgs[:1]); err != nil {
			t.Fatal(err)
		}
		recs := fetchAll(t, c, topic, p)
		if last := recs[len(recs)-1]; len(recs) != 5+i || last.Offset != int64(4+i) {
			t.Fatalf("publish of one %d: %d records ending at %d, want %d ending at %d", i, len(recs), last.Offset, 5+i, 4+i)
		}
	}
}

// TestClusterRepairAcksCommittedPrefix: a follower Repair brings up to
// the high watermark holds only committed records, so it is acked even
// when the pass cannot reach a quorum (RF=3, Quorum=3, one node down),
// and a failover onto it keeps every committed record instead of
// truncating to the ack it had before.
func TestClusterRepairAcksCommittedPrefix(t *testing.T) {
	c, err := New([]string{"n1", "n2", "n3"}, Config{RF: 3, Quorum: 3, LakeOptions: lakeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	const topic = "telemetry"
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	msgs := keyedMsgs(rand.New(rand.NewSource(chaosSeed(t))), 0, 16)
	publishRetry(t, c, topic, msgs, 1)
	want := map[int][]string{}
	recordWant(want, msgs, 1)
	tp, err := c.topic(topic)
	if err != nil {
		t.Fatal(err)
	}
	ps := tp.parts[0]
	leader, f1, f2 := ps.leader, ps.followers[0], ps.followers[1]
	// f2 stays down; f1 comes back empty (no WAL) for Repair to refill.
	if err := c.Kill(f2); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(f1); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(f1); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("repair with 2 of 3 replicas alive = %v, want ErrQuorumLost", err)
	}
	if err := c.Kill(leader); err != nil {
		t.Fatal(err)
	}
	assertExactSequences(t, c, topic, want, "after failover onto the repaired follower")
	if got := c.truncatedHW.Load(); got != 0 {
		t.Fatalf("failover truncated %d committed records", got)
	}
}

// TestClusterRoutesKeysLikeBroker is the one-router property: for random
// keys and partition counts, a single broker and the cluster both place a
// keyed message published alone on the partition stream.KeyPartition
// names.
func TestClusterRoutesKeysLikeBroker(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	b := stream.NewBroker()
	defer b.Close()
	c := testCluster(t, 3, 2)
	for _, parts := range []int{1, 2, 3, 4, 7, 16} {
		topic := fmt.Sprintf("route-%d", parts)
		if err := b.CreateTopic(topic, stream.TopicConfig{Partitions: parts}); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: parts}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			key := make([]byte, 1+rng.Intn(24))
			rng.Read(key)
			want := stream.KeyPartition(key, parts)
			for _, s := range []plane.Stream{b, c} {
				before, err := s.EndOffset(topic, want)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.PublishBatch(topic, []stream.Message{{Key: key, Value: []byte("v")}}); err != nil {
					t.Fatal(err)
				}
				if after, err := s.EndOffset(topic, want); err != nil || after != before+1 {
					t.Fatalf("seed %d: key %x over %d partitions: %T did not land it on %d (end %d -> %d, %v)",
						seed, key, parts, s, want, before, after, err)
				}
			}
		}
	}
}

// TestClusterReadyWakesOnCommit: a reader parked on Ready wakes when the
// high watermark rises, not when the leader log grows. A publish staged
// without quorum leaves the channel open, and so does Repair, which
// commits nothing no publisher was told succeeded; publishing the failed
// record again once the follower is back commits it and closes the
// channel.
func TestClusterReadyWakesOnCommit(t *testing.T) {
	c := testCluster(t, 2, 2)
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
	if recs, err := c.FetchNoWait("telemetry", 0, 0, 10); err != nil || len(recs) != 1 || string(recs[0].Value) != "staged" {
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

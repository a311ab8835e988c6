package cluster

import (
	"errors"
	"fmt"
	"testing"

	"odakit/internal/stream"
)

// The tests below pin what a failed publish means on the cluster: the
// Failed messages of a *stream.PartialPublishError are not in the log and
// never will be unless published again, so a retry of exactly Failed is
// a publish like any other — it lands once, a later batch with the same
// content lands again, a second publisher cannot resurrect it, and
// Repair does not commit it behind the publisher's back.

const failedParts = 16

// failedPublishCluster is a 5-node RF=2 cluster with one 16-partition
// topic: enough links that one partition can miss its quorum while the
// others commit.
func failedPublishCluster(t *testing.T) *Cluster {
	t.Helper()
	c := testCluster(t, 5, 2)
	if err := c.CreateTopic("telemetry", stream.TopicConfig{Partitions: failedParts}); err != nil {
		t.Fatal(err)
	}
	return c
}

// keyFor returns a key that routes to partition p.
func keyFor(p int) []byte {
	for i := 0; ; i++ {
		if k := []byte(fmt.Sprintf("key%d", i)); stream.KeyPartition(k, failedParts) == p {
			return k
		}
	}
}

// blockOnly partitions the leader→follower link of partition fail, so a
// publish there misses its RF=2 quorum, after checking that none of the
// partitions in keep ships over that link. It returns the heal.
func blockOnly(t *testing.T, c *Cluster, fail int, keep ...int) (heal func()) {
	t.Helper()
	tp, err := c.topic("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	link := func(p int) (string, string) {
		ps := tp.parts[p]
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return ps.leader, ps.followers[0]
	}
	from, to := link(fail)
	for _, p := range keep {
		if f, tt := link(p); f == from && tt == to {
			t.Fatalf("partitions %d and %d both ship %s>%s; pick another pair", fail, p, from, to)
		}
	}
	c.Transport().PartitionLink(from, to)
	return func() { c.Transport().HealLink(from, to) }
}

// failedOf publishes msgs, requires a partial failure of exactly the
// messages of want, and returns the Failed remainder.
func failedOf(t *testing.T, c *Cluster, msgs []stream.Message, want ...string) []stream.Message {
	t.Helper()
	n, err := c.PublishBatch("telemetry", msgs)
	var pp *stream.PartialPublishError
	if !errors.As(err, &pp) || !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("publish = (%d, %v), want a partial ErrQuorumLost", n, err)
	}
	if len(pp.Failed) != len(want) || n != len(msgs)-len(want) {
		t.Fatalf("published %d, failed %d; want %d failed", n, len(pp.Failed), len(want))
	}
	for i, m := range pp.Failed {
		if string(m.Value) != want[i] {
			t.Fatalf("failed[%d] = %q, want %q", i, m.Value, want[i])
		}
	}
	return pp.Failed
}

// TestChaosClusterRepublishAfterPartialFailure: a batch commits on one
// partition and misses its quorum on another; the publisher retries
// Failed. A later publish of the committed message's content is a new
// publish and must append, and report only what it appended.
func TestChaosClusterRepublishAfterPartialFailure(t *testing.T) {
	c := failedPublishCluster(t)
	const pFail, pOK = 3, 12
	heal := blockOnly(t, c, pFail, pOK)
	ok := stream.Message{Key: keyFor(pOK), Value: []byte("reading")}
	lost := stream.Message{Key: keyFor(pFail), Value: []byte("lost")}
	failed := failedOf(t, c, []stream.Message{ok, lost}, "lost")
	heal()
	publishRetry(t, c, "telemetry", failed, 3)

	if n, err := c.PublishBatch("telemetry", []stream.Message{ok}); err != nil || n != 1 {
		t.Fatalf("republish = (%d, %v), want (1, nil)", n, err)
	}
	assertExactSequences(t, c, "telemetry", map[int][]string{
		pOK:   {"reading", "reading"},
		pFail: {"lost"},
	}, "after the republish")
}

// TestChaosClusterTwoProducersRetryFailed: producer A's sub-batch misses
// its quorum on one partition, producer B publishes to that partition
// after the heal, then A retries its Failed messages. A's record must be
// in the log once: B's publish may not commit what A was told failed.
func TestChaosClusterTwoProducersRetryFailed(t *testing.T) {
	c := failedPublishCluster(t)
	const p1, p2 = 5, 12
	heal := blockOnly(t, c, p1, p2)
	a := []stream.Message{
		{Key: keyFor(p2), Value: []byte("a-committed")},
		{Key: keyFor(p1), Value: []byte("a-failed")},
	}
	failed := failedOf(t, c, a, "a-failed")
	heal()
	publishRetry(t, c, "telemetry", []stream.Message{{Key: keyFor(p1), Value: []byte("b")}}, 3)
	publishRetry(t, c, "telemetry", failed, 3)
	assertExactSequences(t, c, "telemetry", map[int][]string{
		p1: {"b", "a-failed"},
		p2: {"a-committed"},
	}, "after both producers")
}

// TestChaosClusterKeylessRetryAfterRepair: a keyless batch of two
// round-robins onto two partitions and misses its quorum on one. Repair
// runs after the heal and must commit nothing; the retry of Failed
// round-robins on, and the batch lands exactly once across the topic.
func TestChaosClusterKeylessRetryAfterRepair(t *testing.T) {
	c := failedPublishCluster(t)
	// A new topic's round-robin cursor hands out partitions 1, 2, 3, … in
	// order: a warm-up of 8 takes 1–8, so the batch lands on 9 and 10,
	// which ship over different links.
	want := map[int][]string{}
	warm := make([]stream.Message, 8)
	for i := range warm {
		warm[i].Value = []byte(fmt.Sprintf("warm%d", i))
		want[i+1] = []string{string(warm[i].Value)}
	}
	publishRetry(t, c, "telemetry", warm, 1)
	heal := blockOnly(t, c, 10, 9)
	batch := []stream.Message{{Value: []byte("first")}, {Value: []byte("second")}}
	failed := failedOf(t, c, batch, "second")
	heal()
	if err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	want[9] = []string{"first"}
	assertExactSequences(t, c, "telemetry", want, "after Repair")
	publishRetry(t, c, "telemetry", failed, 3)
	want[11] = []string{"second"}
	assertExactSequences(t, c, "telemetry", want, "after the retry")
}

// TestChaosClusterFollowerCutsFailedSuffix: a follower that took a
// sub-batch which then missed its quorum (RF=3, Quorum=3, the other
// follower unreachable) holds it past its acked end. The next publish
// must cut it there and ship the leader's records in its place, so a
// failover onto that follower serves what was committed.
func TestChaosClusterFollowerCutsFailedSuffix(t *testing.T) {
	c, err := New([]string{"n1", "n2", "n3"}, Config{RF: 3, Quorum: 3, LakeOptions: lakeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("telemetry", stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	tp, err := c.topic("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	ps := tp.parts[0]
	leader, near, far := ps.leader, ps.followers[0], ps.followers[1]
	c.Transport().PartitionLink(leader, far)
	failedOf(t, c, []stream.Message{{Key: []byte("k"), Value: []byte("failed")}}, "failed")
	if end, _ := c.node(near).Broker.EndOffset("telemetry", 0); end != 1 {
		t.Fatalf("follower %s ends at %d, want the failed record at 0", near, end)
	}
	c.Transport().HealLink(leader, far)
	publishRetry(t, c, "telemetry", []stream.Message{{Key: []byte("k"), Value: []byte("committed")}}, 1)

	// Leave near the only replica, so the failover has to promote it.
	if err := c.Kill(far); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(leader); err != nil {
		t.Fatal(err)
	}
	assertExactSequences(t, c, "telemetry", map[int][]string{0: {"committed"}}, "after failover onto "+near)
}

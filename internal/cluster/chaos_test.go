package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"odakit/internal/faults"
	"odakit/internal/stream"
)

// publishRetry drives a publish batch to commit the way a durable
// producer would, through retryFailed, and fails the test if it cannot.
func publishRetry(t *testing.T, c *Cluster, topic string, msgs []stream.Message, attempts int) {
	t.Helper()
	if err := retryFailed(c, topic, msgs, attempts); err != nil {
		t.Fatalf("publish did not commit after %d attempts: %v", attempts, err)
	}
}

// retryFailed publishes msgs and, after each failure, publishes again
// exactly the Failed remainder — the plane contract core.publishRetry
// follows — up to attempts times, returning the last error. A failed
// message is not in the log, so the committed log holds each message
// exactly once no matter how many attempts it took.
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

// assertExactSequences fetches every partition through the cluster read
// path and requires exactly the expected value sequence — no committed
// record lost, none duplicated, order preserved.
func assertExactSequences(t *testing.T, c *Cluster, topic string, want map[int][]string, where string) {
	t.Helper()
	parts, err := c.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		recs := fetchAll(t, c, topic, p)
		if len(recs) != len(want[p]) {
			t.Fatalf("%s: partition %d holds %d records, want %d (committed data lost or duplicated)",
				where, p, len(recs), len(want[p]))
		}
		for i, r := range recs {
			if string(r.Value) != want[p][i] {
				t.Fatalf("%s: partition %d record %d = %q, want %q (order or content diverged)",
					where, p, i, r.Value, want[p][i])
			}
		}
	}
}

// TestChaosClusterKillNode kills every node in turn (restart + repair
// between) under transient replication faults: no committed record may
// be lost or duplicated at any point, and health must degrade — not go
// down — while a node is dead.
func TestChaosClusterKillNode(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	c := testCluster(t, 3, 2)
	const topic = "telemetry"
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(seed)
	inj.Set(OpReplicate, faults.Rates{Transient: 0.15})
	inj.Install(c.Transport())

	want := map[int][]string{}
	next := 0
	feed := func(batches int) {
		for b := 0; b < batches; b++ {
			msgs := keyedMsgs(rng, next, 16)
			next++
			publishRetry(t, c, topic, msgs, 100)
			for _, m := range msgs {
				p := stream.KeyPartition(m.Key, 4)
				want[p] = append(want[p], string(m.Value))
			}
		}
	}

	feed(10)
	assertExactSequences(t, c, topic, want, "before faults")
	for _, victim := range []string{"n1", "n2", "n3"} {
		if err := c.Kill(victim); err != nil {
			t.Fatal(err)
		}
		if h := c.Health(); h.Status == "down" {
			t.Fatalf("kill %s: cluster down, want degraded (%+v)", victim, h)
		}
		assertExactSequences(t, c, topic, want, "after kill "+victim)
		feed(5) // the cluster keeps accepting writes while degraded
		assertExactSequences(t, c, topic, want, "degraded writes after kill "+victim)
		if err := c.Restart(victim); err != nil {
			t.Fatal(err)
		}
		if err := c.Repair(); err != nil {
			t.Fatalf("repair after restart %s: %v", victim, err)
		}
		assertExactSequences(t, c, topic, want, "after restart "+victim)
	}
	if h := c.Health(); h.Status != "ok" {
		t.Fatalf("final health = %s (%+v)", h.Status, h)
	}
}

// TestChaosClusterKillLeaderMidPublish crashes a partition leader in the
// middle of a publish — after the batch is staged on the leader log but
// before replication completes — via a transport hook that marks the
// leader dead on its next replication attempt. The producer's retry of
// its Failed messages must converge on exactly one copy of every
// message: the promoted follower cuts whatever part of the failed
// sub-batch it took before the retry appends.
func TestChaosClusterKillLeaderMidPublish(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	c := testCluster(t, 3, 2)
	const topic = "telemetry"
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}

	var armed atomic.Bool
	var killed atomic.Value // string: the leader the hook crashed
	c.Transport().SetFaultHook(func(op, target string) error {
		if op != OpReplicate || !armed.Load() {
			return nil
		}
		if !armed.CompareAndSwap(true, false) {
			return nil
		}
		// target is "leader>follower": crash the leader mid-commit. The
		// alive flag flips directly because c.Kill would self-deadlock on
		// the partition lock the publish path holds around this hook.
		var leader string
		for i := range target {
			if target[i] == '>' {
				leader = target[:i]
				break
			}
		}
		if n := c.node(leader); n != nil {
			n.alive.Store(false)
			killed.Store(leader)
		}
		return &faults.InjectedError{Op: op, Target: target}
	})

	want := map[int][]string{}
	next := 0
	feed := func(batches int) {
		for b := 0; b < batches; b++ {
			msgs := keyedMsgs(rng, next, 16)
			next++
			publishRetry(t, c, topic, msgs, 100)
			for _, m := range msgs {
				p := stream.KeyPartition(m.Key, 4)
				want[p] = append(want[p], string(m.Value))
			}
		}
	}

	feed(10)
	armed.Store(true)
	feed(10) // one of these publishes loses its leader mid-commit
	if killed.Load() == nil {
		t.Fatal("chaos hook never fired: no replication call while armed")
	}
	victim := killed.Load().(string)
	if c.node(victim).Alive() {
		t.Fatalf("victim %s still alive", victim)
	}
	if h := c.Health(); h.Status == "down" {
		t.Fatalf("cluster down after leader crash, want degraded (%+v)", h)
	}
	assertExactSequences(t, c, topic, want, "after leader crash")
	feed(5)
	assertExactSequences(t, c, topic, want, "degraded writes")
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	assertExactSequences(t, c, topic, want, "after recovery")
	if h := c.Health(); h.Status != "ok" {
		t.Fatalf("final health = %s (%+v)", h.Status, h)
	}
}

// armKillLeaderOnNthReplicate installs a transport hook that, once
// armed, lets n-1 replication calls through and crashes the sending
// leader on the nth. From then on every replication call the dead
// leader originates keeps failing — a crashed node cannot ship its log —
// so the in-flight commit genuinely misses quorum instead of limping
// through the still-reachable in-process broker. The alive flag flips
// directly because c.Kill would self-deadlock on the partition lock the
// publish path holds around this hook.
func armKillLeaderOnNthReplicate(c *Cluster, n int64) (arm func(), killed *atomic.Value) {
	killed = &atomic.Value{}
	var armed atomic.Bool
	var calls atomic.Int64
	c.Transport().SetFaultHook(func(op, target string) error {
		if op != OpReplicate {
			return nil
		}
		from := target[:strings.IndexByte(target, '>')]
		if v := killed.Load(); v != nil {
			if from == v.(string) {
				return &faults.InjectedError{Op: op, Target: target}
			}
			return nil
		}
		if !armed.Load() || calls.Add(1) < n {
			return nil
		}
		armed.Store(false)
		if nd := c.node(from); nd != nil {
			nd.alive.Store(false)
			killed.Store(from)
		}
		return &faults.InjectedError{Op: op, Target: target}
	})
	return func() { armed.Store(true) }, killed
}

// TestChaosClusterKillLeaderAfterFollowerSync crashes the leader
// mid-commit AFTER one follower has fully replicated the staged batch
// (RF=3, Quorum=3): the promoted follower's log holds the failed batch
// past the high watermark, so the producer's retry must cut it — never
// append a second copy after it — and the batch must commit exactly once
// when the third replica returns.
func TestChaosClusterKillLeaderAfterFollowerSync(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	c, err := New([]string{"n1", "n2", "n3"}, Config{RF: 3, Quorum: 3, LakeOptions: lakeOpts()})
	if err != nil {
		t.Fatal(err)
	}
	const topic = "telemetry"
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	want := map[int][]string{}
	record := func(msgs []stream.Message) {
		for _, m := range msgs {
			want[0] = append(want[0], string(m.Value))
		}
	}
	pre := keyedMsgs(rng, 0, 16)
	publishRetry(t, c, topic, pre, 10)
	record(pre)

	// Let the first follower's sync through untouched, then crash the
	// leader on the second replication call (the other follower's sync):
	// one survivor now holds the entire staged batch.
	arm, killed := armKillLeaderOnNthReplicate(c, 2)
	arm()
	batch := keyedMsgs(rng, 1, 16)
	if _, err := c.PublishBatch(topic, batch); err == nil {
		t.Fatal("publish committed although the leader died before quorum")
	}
	if killed.Load() == nil {
		t.Fatal("chaos hook never fired: no replication call while armed")
	}
	victim := killed.Load().(string)

	// The staged batch is invisible and the cluster serves degraded.
	assertExactSequences(t, c, topic, want, "after leader crash")
	if h := c.Health(); h.Status == "down" {
		t.Fatalf("cluster down after leader crash, want degraded (%+v)", h)
	}
	// Quorum 3 of 3 is unreachable with a node dead: the retry must keep
	// failing, each attempt cutting the one before.
	if _, err := c.PublishBatch(topic, batch); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("degraded retry = %v, want ErrQuorumLost", err)
	}
	assertExactSequences(t, c, topic, want, "during degraded retries")

	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	publishRetry(t, c, topic, batch, 10)
	record(batch)
	assertExactSequences(t, c, topic, want, "after resumed commit")
	if err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	if h := c.Health(); h.Status != "ok" {
		t.Fatalf("final health = %s (%+v)", h.Status, h)
	}
}

// TestChaosClusterKillLeaderMidChunkedSync crashes the leader between
// replication chunks of one large batch (RF=2): the follower is
// promoted holding a strict prefix of the failed batch, so the retry
// must cut that prefix and append the whole batch once — the surviving
// prefix must not be duplicated and the lost tail must not be dropped.
func TestChaosClusterKillLeaderMidChunkedSync(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	c := testCluster(t, 3, 2)
	const topic = "telemetry"
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	want := map[int][]string{}
	record := func(msgs []stream.Message) {
		for _, m := range msgs {
			want[0] = append(want[0], string(m.Value))
		}
	}
	pre := keyedMsgs(rng, 0, 16)
	publishRetry(t, c, topic, pre, 10)
	record(pre)

	// Replication ships 1024-record chunks, so a 1040-record batch takes
	// two hops: let chunk one land on the follower, crash the leader
	// before chunk two.
	arm, killed := armKillLeaderOnNthReplicate(c, 2)
	arm()
	batch := keyedMsgs(rng, 1, 1040)
	if _, err := c.PublishBatch(topic, batch); err == nil {
		t.Fatal("publish committed although the leader died mid-sync")
	}
	if killed.Load() == nil {
		t.Fatal("chaos hook never fired: no replication call while armed")
	}
	victim := killed.Load().(string)
	assertExactSequences(t, c, topic, want, "after leader crash")
	if h := c.Health(); h.Status == "down" {
		t.Fatalf("cluster down after leader crash, want degraded (%+v)", h)
	}

	// RF=2 on a 3-node cluster: the promoted follower recruits the third
	// node, so the retry commits while the victim is still down.
	publishRetry(t, c, topic, batch, 10)
	record(batch)
	assertExactSequences(t, c, topic, want, "after resumed commit")

	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	assertExactSequences(t, c, topic, want, "after recovery")
	if h := c.Health(); h.Status != "ok" {
		t.Fatalf("final health = %s (%+v)", h.Status, h)
	}
}

// TestChaosClusterAsymmetricPartition blocks exactly one direction of a
// leader→follower link. With Quorum = RF = 2 the partitioned publish
// must refuse to commit (ErrQuorumLost) rather than diverge, committed
// data must stay readable, failover must NOT trigger (the node is alive;
// promoting would risk split-brain), and healing the link must let the
// failed batch, published again, commit exactly once.
func TestChaosClusterAsymmetricPartition(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	c := testCluster(t, 3, 2)
	const topic = "telemetry"
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}

	want := map[int][]string{}
	record := func(msgs []stream.Message) {
		for _, m := range msgs {
			want[0] = append(want[0], string(m.Value))
		}
	}
	pre := keyedMsgs(rng, 0, 16)
	publishRetry(t, c, topic, pre, 10)
	record(pre)

	tp, err := c.topic(topic)
	if err != nil {
		t.Fatal(err)
	}
	ps := tp.parts[0]
	ps.mu.Lock()
	leader, followers, epoch := ps.leader, append([]string(nil), ps.followers...), ps.epoch
	ps.mu.Unlock()
	if len(followers) == 0 {
		t.Fatal("partition has no follower at RF=2")
	}
	follower := followers[0]

	// Block only leader→follower; the reverse direction stays up.
	c.Transport().PartitionLink(leader, follower)

	blocked := keyedMsgs(rng, 1, 8)
	if _, err := c.PublishBatch(topic, blocked); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("publish across partition = %v, want ErrQuorumLost", err)
	}
	// Committed prefix still serves; the staged batch is invisible.
	assertExactSequences(t, c, topic, want, "during partition")
	// The leader log now ends past the watermark: a page that is defaulted
	// or far larger than the committed span stops at it all the same.
	for _, tc := range []struct{ max, want int }{{0, 5}, {3, 3}, {1 << 20, 5}} {
		recs, err := c.FetchNoWait(topic, 0, 11, tc.max)
		if err != nil || len(recs) != tc.want {
			t.Fatalf("fetch at 11 of 16 committed, max %d: %d records, %v; want %d", tc.max, len(recs), err, tc.want)
		}
	}
	ps.mu.Lock()
	sameLeader, sameEpoch := ps.leader == leader, ps.epoch == epoch
	ps.mu.Unlock()
	if !sameLeader || !sameEpoch {
		t.Fatal("asymmetric partition triggered a failover; only crashes may")
	}
	if h := c.Health(); h.Status == "down" {
		t.Fatalf("health = down during link partition (%+v)", h)
	}

	c.Transport().HealLink(leader, follower)
	publishRetry(t, c, topic, blocked, 10)
	record(blocked)
	assertExactSequences(t, c, topic, want, "after heal")
	if h := c.Health(); h.Status != "ok" {
		t.Fatalf("final health = %s (%+v)", h.Status, h)
	}
}

// TestChaosClusterJoinLeaveRebalance grows the cluster by one node and
// then drains one of the founders, under transient faults on every
// cluster operation. Placement converges (health ok, full RF) and the
// committed log and every record stay exactly-once through both
// rebalances.
func TestChaosClusterJoinLeaveRebalance(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	c := testCluster(t, 3, 2)
	const topic = "telemetry"
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(seed)
	inj.Set(OpReplicate, faults.Rates{Transient: 0.1})
	inj.Set(OpResync, faults.Rates{Transient: 0.1})
	inj.Install(c.Transport())

	want := map[int][]string{}
	next := 0
	feed := func(batches int) {
		for b := 0; b < batches; b++ {
			msgs := keyedMsgs(rng, next, 16)
			next++
			publishRetry(t, c, topic, msgs, 100)
			for _, m := range msgs {
				p := stream.KeyPartition(m.Key, 4)
				want[p] = append(want[p], string(m.Value))
			}
		}
	}

	feed(10)
	if err := c.AddNode("n4"); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(); err != nil {
		t.Fatalf("repair after join: %v", err)
	}
	assertExactSequences(t, c, topic, want, "after join")
	feed(5)
	if err := c.RemoveNode("n1"); err != nil {
		t.Fatalf("drain n1: %v", err)
	}
	for _, id := range c.Nodes() {
		if id == "n1" {
			t.Fatal("n1 still a member after drain")
		}
	}
	assertExactSequences(t, c, topic, want, "after drain")
	feed(5)
	assertExactSequences(t, c, topic, want, "after post-drain writes")
	if err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	if h := c.Health(); h.Status != "ok" {
		t.Fatalf("final health = %s (%+v)", h.Status, h)
	}
	// No partition or stripe may still reference the drained node.
	for _, tp := range c.topicList() {
		for _, ps := range tp.parts {
			ps.mu.Lock()
			leader, flws := ps.leader, append([]string(nil), ps.followers...)
			ps.mu.Unlock()
			if leader == "n1" {
				t.Fatalf("partition %d still led by drained node", ps.idx)
			}
			for _, f := range flws {
				if f == "n1" {
					t.Fatalf("partition %d still follows on drained node", ps.idx)
				}
			}
		}
	}

	sum := fmt.Sprintf("%v", inj.Stats())
	t.Logf("fault stats: %s", sum)
}

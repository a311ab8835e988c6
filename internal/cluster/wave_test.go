package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odakit/internal/faults"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

// waveCluster builds a 3-node WAL-backed cluster with one 4-partition
// topic, warmed with a few fault-free batches and lake inserts mirrored
// into the returned single-node reference.
func waveCluster(t *testing.T, rng *rand.Rand, rf, quorum int, topic string) (*Cluster, *tsdb.DB, map[int][]string) {
	t.Helper()
	c, err := New([]string{"n1", "n2", "n3"}, Config{
		RF: rf, Quorum: quorum, LakeOptions: lakeOpts(),
		WALDir: t.TempDir(), WALSegmentBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	ref := tsdb.New(lakeOpts())
	want := map[int][]string{}
	for b := 0; b < 3; b++ {
		msgs := keyedMsgs(rng, b, 32)
		publishRetry(t, c, topic, msgs, 1)
		recordWant(want, msgs, 4)
		insertBoth(t, ref, c, seedObsBatch(rng, 48))
	}
	return c, ref, want
}

func recordWant(want map[int][]string, msgs []stream.Message, parts int) {
	for _, m := range msgs {
		p := stream.KeyPartition(m.Key, parts)
		want[p] = append(want[p], string(m.Value))
	}
}

func seedObsBatch(rng *rand.Rand, n int) []schema.Observation {
	obs := make([]schema.Observation, n)
	for j := range obs {
		obs[j] = seedObs(rng, rng.Intn(1<<20))
	}
	return obs
}

// failMidWave arms one fsync fault on victim's named log and returns a
// function reporting whether it fired. The fault fires mid-wave: the
// victim's Sync waits until every other log the wave should flush
// (waveLogs in total, across all nodes) has entered its own Sync, so the
// failure lands while the rest of the wave is in flight — which a serial
// flush loop could never satisfy. Every node's hook counts; only the
// victim's log fails, once.
func failMidWave(t *testing.T, c *Cluster, victim, log string, waveLogs int) (fired func() bool) {
	t.Helper()
	var entered atomic.Int64
	var hit atomic.Bool
	for _, id := range c.Nodes() {
		id := id
		c.NodeWAL(id).SetFaultHook(func(op, target string) error {
			if op != wal.OpFsync {
				return nil
			}
			entered.Add(1)
			if id != victim || target != log || hit.Load() {
				return nil
			}
			deadline := time.Now().Add(10 * time.Second)
			for entered.Load() < int64(waveLogs) {
				if time.Now().After(deadline) {
					t.Errorf("wave never put %d logs in flight at once (%d entered): flushes are serial",
						waveLogs, entered.Load())
					break
				}
				runtime.Gosched()
			}
			hit.Store(true)
			return &faults.InjectedError{Op: op, Target: target, Permanent: true}
		})
	}
	return hit.Load
}

func clearWALHooks(c *Cluster) {
	for _, id := range c.Nodes() {
		if w := c.NodeWAL(id); w != nil {
			w.SetFaultHook(nil)
		}
	}
}

// assertOnlyDead requires victim to be the one dead node and the one
// WAL crash.
func assertOnlyDead(t *testing.T, c *Cluster, victim string) {
	t.Helper()
	for _, id := range c.Nodes() {
		if alive := c.node(id).Alive(); alive == (id == victim) {
			t.Fatalf("node %s alive=%v after a flush fault on %s; only the faulted node may die", id, alive, victim)
		}
	}
	if got := c.walCrashes.Load(); got != 1 {
		t.Fatalf("wal crashes = %d, want 1", got)
	}
}

// TestChaosClusterFlushWaveFault fails one log's fsync in the middle of
// a publish wave — a follower's log with the quorum lost (RF=2), a
// follower's log with the quorum intact (RF=3, Quorum=2), and a leader's
// log — and requires the wave's ack rule: the partition commits iff a
// quorum of its replicas flushed, only the faulted node dies, only that
// replica's ack is dropped (the victim's OTHER logs in the same wave
// flushed, and their partitions commit), a leader fault surfaces as the
// transient node-down error whose Failed messages a retry commits, and
// after Restart + Repair every acked record is present exactly once and
// queries match the single-node reference.
func TestChaosClusterFlushWaveFault(t *testing.T) {
	seed := chaosSeed(t)
	const topic = "telemetry"
	for _, tc := range []struct {
		name       string
		rf, quorum int
		leader     bool  // fault the leader's log (else the first follower's)
		wantErr    error // first attempt's error on the faulted partition; nil = commits
	}{
		{name: "follower-quorum-lost", rf: 2, quorum: 2, wantErr: ErrQuorumLost},
		{name: "follower-quorum-holds", rf: 3, quorum: 2},
		{name: "leader", rf: 2, quorum: 2, leader: true, wantErr: ErrNodeDown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, ref, want := waveCluster(t, rng, tc.rf, tc.quorum, topic)
			tp, err := c.topic(topic)
			if err != nil {
				t.Fatal(err)
			}
			batch := keyedMsgs(rng, 99, 48)
			byPart := map[int][]stream.Message{}
			for _, m := range batch {
				p := stream.KeyPartition(m.Key, 4)
				byPart[p] = append(byPart[p], m)
			}
			if len(byPart) != 4 {
				t.Fatalf("batch touches %d partitions, want all 4", len(byPart))
			}
			// Fault a (partition, victim) whose victim also replicates
			// another partition, so "only that replica's ack" is observable.
			role := func(ps *partitionState) string {
				if tc.leader {
					return ps.leader
				}
				return ps.followers[0]
			}
			replicas := map[string]int{}
			for _, ps := range tp.parts {
				replicas[ps.leader]++
				for _, f := range ps.followers {
					replicas[f]++
				}
			}
			p, victim := -1, ""
			for _, ps := range tp.parts {
				if id := role(ps); replicas[id] > 1 {
					p, victim = ps.idx, id
					break
				}
			}
			if p < 0 {
				t.Fatal("no replica serves two partitions")
			}
			hwBefore := make([]int64, 4)
			for i, ps := range tp.parts {
				hwBefore[i] = ps.hw
			}

			fired := failMidWave(t, c, victim, partitionLog(topic, p), 4*tc.rf)
			n, err := c.PublishBatch(topic, batch)
			var pe *stream.PartialPublishError
			clearWALHooks(c)
			if !fired() {
				t.Fatal("the armed fsync fault never fired")
			}
			assertOnlyDead(t, c, victim)

			if tc.wantErr == nil {
				if err != nil || n != len(batch) {
					t.Fatalf("publish = (%d, %v); a %d/%d quorum survives one follower's flush fault",
						n, err, tc.quorum, tc.rf)
				}
				if got := c.quorumFailures.Load(); got != 0 {
					t.Fatalf("quorum failures = %d, want 0", got)
				}
			} else {
				if !errors.As(err, &pe) || !errors.Is(err, tc.wantErr) || !resilience.IsTransient(pe.Err) {
					t.Fatalf("publish error = %v, want a transient %v on partition %d", err, tc.wantErr, p)
				}
				if n != len(batch)-len(byPart[p]) || len(pe.Failed) != len(byPart[p]) {
					t.Fatalf("published %d, failed %d; want exactly partition %d's %d messages to fail",
						n, len(pe.Failed), p, len(byPart[p]))
				}
				for i, m := range pe.Failed {
					if string(m.Value) != string(byPart[p][i].Value) {
						t.Fatalf("failed[%d] = %q, want partition %d's %q", i, m.Value, p, byPart[p][i].Value)
					}
				}
			}
			// hw moved on exactly the partitions that kept their quorum.
			for i, ps := range tp.parts {
				advanced := ps.hw > hwBefore[i]
				if wantAdv := tc.wantErr == nil || i != p; advanced != wantAdv {
					t.Fatalf("partition %d hw %d → %d, advanced=%v want %v", i, hwBefore[i], ps.hw, advanced, wantAdv)
				}
			}

			// The producer's retry of the Failed messages commits the failed
			// partition exactly once (a leader fault retries on the promoted
			// follower, which cuts the uncommitted suffix it took first).
			if tc.wantErr != nil {
				publishRetry(t, c, topic, pe.Failed, 5)
			}
			recordWant(want, batch, 4)
			assertExactSequences(t, c, topic, want, "after retry")

			if err := c.Restart(victim); err != nil {
				t.Fatal(err)
			}
			repairUntilOK(t, c)
			assertExactSequences(t, c, topic, want, "after restart + repair")
			assertQueriesMatch(t, ref, c, rng, 4, tc.name)
		})
	}
}

// TestChaosClusterFlushWaveFaultStripe is the lake half: one replica's
// stripe-log fsync fails mid-wave. The insert still succeeds on the
// other replica, only the faulted node dies, the victim leaves that
// stripe's serving set at its OLD sequence, and after Restart + Repair
// the cluster answers like the single-node reference.
func TestChaosClusterFlushWaveFaultStripe(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	c, ref, _ := waveCluster(t, rng, 2, 2, "telemetry")

	obs := seedObsBatch(rng, 64)
	touched := map[int]bool{}
	for _, o := range obs {
		touched[tsdb.StripeFor(o.Component, o.Metric)] = true
	}
	s := -1
	for st := range touched {
		if s < 0 || st < s {
			s = st
		}
	}
	victim := c.stripeServers(s, true)[0]
	vn := c.node(victim)
	seqBefore, victimSeqBefore := c.stripeSeqs[s].Load(), vn.stripeSeq[s].Load()

	fired := failMidWave(t, c, victim, stripeLog(s), 2*len(touched))
	insertBoth(t, ref, c, obs)
	clearWALHooks(c)
	if !fired() {
		t.Fatal("the armed fsync fault never fired")
	}
	assertOnlyDead(t, c, victim)
	if got := c.stripeSeqs[s].Load(); got != seqBefore+1 {
		t.Fatalf("stripe %d sequence = %d, want %d: the surviving replica's ack commits the batch", s, got, seqBefore+1)
	}
	if got := vn.stripeSeq[s].Load(); got != victimSeqBefore {
		t.Fatalf("victim's stripe %d sequence moved %d → %d on a failed flush", s, victimSeqBefore, got)
	}
	for _, id := range c.stripeServers(s, false) {
		if id == victim {
			t.Fatalf("victim %s still in stripe %d's serving set", victim, s)
		}
	}
	assertQueriesMatch(t, ref, c, rng, 3, "degraded")

	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	repairUntilOK(t, c)
	assertQueriesMatch(t, ref, c, rng, 4, "after restart + repair")
}

// TestChaosClusterKillAfterFlushStillAcks pins what an ack rides on: the
// replica's own flush, not the node's liveness when acks are counted. A
// follower that dies AFTER its log's Sync returned holds the records
// durably, so at RF=2/Quorum=2 the batch commits on the first attempt.
// (Dropping acks on "node not alive after the wave" would fail a batch
// that a quorum holds durably.)
func TestChaosClusterKillAfterFlushStillAcks(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	c := testClusterWAL(t, 3, 2)
	const topic = "telemetry"
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	want := map[int][]string{}
	warm := keyedMsgs(rng, 0, 8)
	publishRetry(t, c, topic, warm, 1)
	recordWant(want, warm, 1)

	tp, err := c.topic(topic)
	if err != nil {
		t.Fatal(err)
	}
	leader, follower := tp.parts[0].leader, tp.parts[0].followers[0]
	fn := c.node(follower)
	flushed := c.NodeWAL(follower).Stats().Fsyncs
	// The wave holds two logs. The leader's Sync waits for the follower's
	// to have completed, then crashes the follower; the alive flag flips
	// directly because Kill's eager failover would wait on the partition
	// lock this publish holds.
	c.NodeWAL(leader).SetFaultHook(func(op, _ string) error {
		if op != wal.OpFsync || !fn.Alive() {
			return nil
		}
		deadline := time.Now().Add(10 * time.Second)
		for c.NodeWAL(follower).Stats().Fsyncs == flushed {
			if time.Now().After(deadline) {
				t.Error("follower's flush never completed while the leader's was in flight")
				return nil
			}
			runtime.Gosched()
		}
		fn.alive.Store(false)
		return nil
	})
	batch := keyedMsgs(rng, 1, 8)
	n, err := c.PublishBatch(topic, batch)
	clearWALHooks(c)
	if fn.Alive() {
		t.Fatal("hook never killed the follower")
	}
	if err != nil || n != len(batch) {
		t.Fatalf("publish = (%d, %v); a follower killed after its flush returned still acks", n, err)
	}
	recordWant(want, batch, 1)
	assertExactSequences(t, c, topic, want, "after kill-after-flush")

	if err := c.Restart(follower); err != nil {
		t.Fatal(err)
	}
	assertDiskPrefix(t, c, follower, topic, want, "restarted follower")
	repairUntilOK(t, c)
	assertExactSequences(t, c, topic, want, "after restart + repair")
}

// TestChaosClusterWALBoundaryCountsRepeat keeps the crash-point sweep's
// calibration exact: two identical fault-free runs of its workload cross
// the same number of wal.append and wal.fsync boundaries on every node.
// Inside a wave the ORDER in which a node's logs reach fsync depends on
// the scheduler; the counts may not.
func TestChaosClusterWALBoundaryCountsRepeat(t *testing.T) {
	seed := chaosSeed(t)
	run := func() map[string]int64 {
		c, ref := newCrashPointCluster(t)
		var mu sync.Mutex
		counts := map[string]int64{}
		for _, id := range c.Nodes() {
			id := id
			c.NodeWAL(id).SetFaultHook(func(op, _ string) error {
				mu.Lock()
				counts[id+" "+op]++
				mu.Unlock()
				return nil
			})
		}
		crashPointWorkload(t, c, ref, seed, "telemetry")
		mu.Lock()
		defer mu.Unlock()
		return counts
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("workload crossed no WAL boundary")
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %d boundaries in run 1, %d in run 2 (seed %d)", k, v, b[k], seed)
		}
	}
	if len(a) != len(b) {
		t.Errorf("runs crossed different boundary kinds: %v vs %v", a, b)
	}
}

// TestChaosClusterLockOrderStress proves the ascending multi-lock of
// publishParts (several ps.mu) and InsertBatch (several stripeMu) cannot
// deadlock against each other or against the paths that take one lock at
// a time: four publishers whose batches span overlapping partitions, two
// inserters, a FetchNoWait reader and a Kill/Restart/Repair loop run
// together on a WAL-backed cluster and must all finish before the
// deadline (a hang dumps every goroutine). Every committed record must
// be in the log exactly once: overlapping publishers that retry their
// Failed messages through kills neither lose nor duplicate one.
func TestChaosClusterLockOrderStress(t *testing.T) {
	seed := chaosSeed(t)
	c := testClusterWAL(t, 3, 2)
	const topic = "telemetry"
	const parts = 4
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: parts}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	want := map[int][]string{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	spawn := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for g := 0; g < 4; g++ {
		g := g
		spawn(func() {
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for i := 0; !stopped(); i++ {
				msgs := make([]stream.Message, 12)
				for j := range msgs {
					msgs[j] = stream.Message{
						Key:   []byte(fmt.Sprintf("k%d", rng.Intn(32))),
						Value: []byte(fmt.Sprintf("g%d-i%d-j%d", g, i, j)),
					}
				}
				if err := retryFailed(c, topic, msgs, 2000); err != nil {
					t.Errorf("publisher %d could not commit batch %d: %v", g, i, err)
					return
				}
				mu.Lock()
				recordWant(want, msgs, parts)
				mu.Unlock()
			}
		})
	}
	for g := 0; g < 2; g++ {
		g := g
		spawn(func() {
			rng := rand.New(rand.NewSource(seed + 100 + int64(g)))
			for !stopped() {
				_ = c.InsertBatch(seedObsBatch(rng, 32)) // a stripe may be down mid-kill
			}
		})
	}
	spawn(func() {
		for p := 0; !stopped(); p = (p + 1) % parts {
			_, _ = c.FetchNoWait(topic, p, 0, 64)
		}
	})
	spawn(func() {
		defer close(stop)
		for cycle := 0; cycle < 6; cycle++ {
			victim := fmt.Sprintf("n%d", cycle%3+1)
			if err := c.Kill(victim); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
			if err := c.Restart(victim); err != nil {
				t.Error(err)
				return
			}
			_ = c.Repair() // concurrent churn may leave transient degradation
		}
	})

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("lock-order stress did not finish (deadlock?):\n%s", buf[:runtime.Stack(buf, true)])
	}

	repairUntilOK(t, c)
	mu.Lock()
	defer mu.Unlock()
	for p := 0; p < parts; p++ {
		seen := map[string]bool{}
		recs := fetchAll(t, c, topic, p)
		for i, r := range recs {
			if r.Offset != int64(i) {
				t.Fatalf("partition %d has a gap at offset %d (record %d)", p, r.Offset, i)
			}
			if seen[string(r.Value)] {
				t.Fatalf("partition %d duplicates %q", p, r.Value)
			}
			seen[string(r.Value)] = true
		}
		if len(recs) != len(want[p]) {
			t.Fatalf("partition %d holds %d records, want %d", p, len(recs), len(want[p]))
		}
		for _, v := range want[p] {
			if !seen[v] {
				t.Fatalf("partition %d lost committed record %q", p, v)
			}
		}
	}
}

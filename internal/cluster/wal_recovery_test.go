package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"odakit/internal/schema"
	"odakit/internal/stream"
)

// testClusterWAL builds an n-node cluster whose nodes persist per-node
// WALs under a test temp directory (small segments so rotation is
// exercised constantly).
func testClusterWAL(t *testing.T, n, rf int) *Cluster {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	c, err := New(ids, Config{
		RF: rf, LakeOptions: lakeOpts(),
		WALDir: t.TempDir(), WALSegmentBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertDiskPrefix reads one node's broker logs directly (bypassing the
// cluster read path) and requires every partition to hold a
// byte-identical prefix of the quorum-committed sequence — the property
// WAL recovery must deliver before any peer traffic flows. Returns the
// total number of records the node holds.
func assertDiskPrefix(t *testing.T, c *Cluster, id, topic string, want map[int][]string, where string) int {
	t.Helper()
	n := c.node(id)
	if n == nil {
		t.Fatalf("%s: unknown node %s", where, id)
	}
	parts, err := c.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for p := 0; p < parts; p++ {
		end, err := n.Broker.EndOffset(topic, p)
		if err != nil {
			t.Fatal(err)
		}
		if end > int64(len(want[p])) {
			t.Fatalf("%s: node %s partition %d recovered %d records beyond the %d committed",
				where, id, p, end, len(want[p]))
		}
		var recs []stream.Record
		for off := int64(0); off < end; {
			chunk, err := n.Broker.FetchNoWait(topic, p, off, 512)
			if err != nil {
				t.Fatalf("%s: node %s partition %d fetch at %d: %v", where, id, p, off, err)
			}
			if len(chunk) == 0 {
				break
			}
			recs = append(recs, chunk...)
			off = chunk[len(chunk)-1].Offset + 1
		}
		for i, r := range recs {
			if r.Offset != int64(i) {
				t.Fatalf("%s: node %s partition %d has a gap at offset %d (record %d)",
					where, id, p, r.Offset, i)
			}
			if string(r.Value) != want[p][i] {
				t.Fatalf("%s: node %s partition %d offset %d = %q, want %q (recovered log diverges)",
					where, id, p, i, r.Value, want[p][i])
			}
		}
		total += len(recs)
	}
	return total
}

// repairUntilOK drives Repair until health reports ok (a spurious WAL
// crash from a stale handle can need one extra restart+repair round).
func repairUntilOK(t *testing.T, c *Cluster) {
	t.Helper()
	for i := 0; i < 10; i++ {
		for _, id := range c.Nodes() {
			if n := c.node(id); n != nil && !n.Alive() {
				if err := c.Restart(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.Repair(); err != nil {
			continue
		}
		if c.Health().Status == "ok" {
			return
		}
	}
	t.Fatalf("cluster never converged to ok: %+v", c.Health())
}

// TestClusterRestartRecoversFromDisk is the tentpole's basic shape: a
// WAL-backed node that crashes with committed data comes back holding a
// byte-identical committed prefix before any peer resync, and Repair
// then ships only the missed suffix. A node that crashes empty counts
// as a peer recovery.
func TestClusterRestartRecoversFromDisk(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	c := testClusterWAL(t, 3, 2)
	const topic = "telemetry"
	if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}

	// Nothing durable yet: a restart recovers nothing and counts as a
	// peer (wholesale) recovery.
	if err := c.Kill("n3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("n3"); err != nil {
		t.Fatal(err)
	}
	if d, p := c.walRecoveriesDisk.Load(), c.walRecoveriesPeer.Load(); d != 0 || p != 1 {
		t.Fatalf("empty restart counted disk=%d peer=%d, want 0/1", d, p)
	}

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
	feed(20)
	var lakeRows int
	for i := 0; i < 6; i++ {
		batch := make([]schema.Observation, 50)
		for j := range batch {
			batch[j] = seedObs(rng, rng.Intn(1<<20))
		}
		if err := c.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		lakeRows += len(batch)
	}

	if err := c.Kill("n2"); err != nil {
		t.Fatal(err)
	}
	feed(5) // the committed log grows while the victim is down

	replBefore := c.replicated.Load()
	if err := c.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if got := c.replicated.Load() - replBefore; got != 0 {
		t.Fatalf("restart moved %d records over the transport; disk recovery must be local", got)
	}
	if d := c.walRecoveriesDisk.Load(); d != 1 {
		t.Fatalf("disk recoveries = %d, want 1", d)
	}
	if c.walRecoveredRecords.Load() == 0 || c.walRecoveredRows.Load() == 0 {
		t.Fatalf("recovery counters empty: records=%d rows=%d",
			c.walRecoveredRecords.Load(), c.walRecoveredRows.Load())
	}
	recovered := assertDiskPrefix(t, c, "n2", topic, want, "after disk recovery")
	if recovered == 0 {
		t.Fatal("n2 recovered no records from its WAL")
	}

	// Repair ships only the suffix the victim missed — strictly fewer
	// records than a wholesale re-replication of its partitions. (Repair
	// converges over passes: leadership handback reshuffles followers,
	// so the loop runs until health reports ok, same as the bench.)
	repairUntilOK(t, c)
	suffix := c.replicated.Load() - replBefore
	if suffix >= int64(recovered) {
		t.Fatalf("repair shipped %d records with %d already recovered locally; catch-up is not suffix-only",
			suffix, recovered)
	}
	assertExactSequences(t, c, topic, want, "after repair")
}

// TestClusterStaleWALEpochFencing pins the rule that makes disk
// recovery safe: a WAL written before a beyond-quorum truncation must
// not resurrect the records the cluster cut and re-wrote. RF=3 with
// Quorum=2 lets a commit land on two replicas; killing both puts the
// third (which missed the batch) in charge, truncating the high
// watermark and re-filling those offsets with new content. The old
// leader's WAL still holds the superseded records under a barrier from
// the old epoch — recovery must fence its replay below the truncation
// point and take the rewritten suffix from the current leader instead.
func TestClusterStaleWALEpochFencing(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	ids := []string{"n1", "n2", "n3", "n4"}
	c, err := New(ids, Config{
		RF: 3, Quorum: 2, LakeOptions: lakeOpts(),
		WALDir: t.TempDir(), WALSegmentBytes: 4 << 10,
	})
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

	tp, err := c.topic(topic)
	if err != nil {
		t.Fatal(err)
	}
	ps := tp.parts[0]
	ps.mu.Lock()
	leader, followers := ps.leader, append([]string(nil), ps.followers...)
	ps.mu.Unlock()
	if len(followers) != 2 {
		t.Fatalf("want 2 followers at RF=3, got %v", followers)
	}

	// Batch A commits on leader + followers[0] only; followers[1] is
	// unreachable and misses it entirely.
	blind := followers[1]
	c.Transport().PartitionLink(leader, blind)
	batchA := keyedMsgs(rng, 1, 16)
	publishRetry(t, c, topic, batchA, 10)
	c.Transport().HealLink(leader, blind)

	// Both holders of batch A die; the blind follower is promoted and
	// the committed watermark truncates back to its log end.
	truncBefore := c.truncatedHW.Load()
	if err := c.Kill(leader); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(followers[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchNoWait(topic, 0, 0, 1); err != nil {
		t.Fatalf("promoted blind follower cannot serve: %v", err)
	}
	if c.truncatedHW.Load()-truncBefore != 16 {
		t.Fatalf("truncated %d records, want the 16 of batch A", c.truncatedHW.Load()-truncBefore)
	}

	// Batch B re-fills the truncated offsets with different content.
	batchB := keyedMsgs(rng, 2, 16)
	publishRetry(t, c, topic, batchB, 10)
	record(batchB)
	assertExactSequences(t, c, topic, want, "after truncation rewrite")

	// The old leader restarts from a WAL whose barrier predates the
	// truncation epoch and whose frames hold batch A at B's offsets.
	// Fencing caps its replay at the pre-batch prefix.
	if err := c.Restart(leader); err != nil {
		t.Fatal(err)
	}
	n := c.node(leader)
	end, err := n.Broker.EndOffset(topic, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end > int64(len(pre)) {
		t.Fatalf("stale WAL replayed to %d, want fence at %d: superseded records resurrected", end, len(pre))
	}
	assertDiskPrefix(t, c, leader, topic, want, "fenced recovery")

	if err := c.Restart(followers[0]); err != nil {
		t.Fatal(err)
	}
	repairUntilOK(t, c)
	assertExactSequences(t, c, topic, want, "after full recovery")
	// Every live replica must now hold batch B at the disputed offsets.
	for _, id := range ids {
		assertDiskPrefix(t, c, id, topic, want, "converged replica "+id)
	}
}

// TestClusterRestartDuringPublish races Restart against in-flight
// quorum publishes on the restarted node's partitions: the recovery
// replay takes each partition's lock, so it serializes with staging and
// follower syncs, and a writer holding the pre-restart WAL handle gets
// ErrClosed (treated as a crash) rather than acking into a swapped-out
// log. Run under -race; both the memory-only and WAL-backed paths must
// end with every committed record exactly once.
func TestClusterRestartDuringPublish(t *testing.T) {
	seed := chaosSeed(t)
	for _, walled := range []bool{false, true} {
		name := "memory"
		if walled {
			name = "wal"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{RF: 2, LakeOptions: lakeOpts()}
			if walled {
				cfg.WALDir = t.TempDir()
				cfg.WALSegmentBytes = 4 << 10
			}
			c, err := New([]string{"n1", "n2", "n3"}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const topic = "telemetry"
			if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: 4}); err != nil {
				t.Fatal(err)
			}

			var mu sync.Mutex
			want := map[int][]string{}
			stop := make(chan struct{})
			errs := make(chan error, 4)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed + int64(g)))
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						msgs := make([]stream.Message, 6)
						for j := range msgs {
							msgs[j] = stream.Message{
								Key:   []byte(fmt.Sprintf("g%d-k%d", g, rng.Intn(16))),
								Value: []byte(fmt.Sprintf("g%d-i%d-j%d", g, i, j)),
							}
						}
						if err := retryFailed(c, topic, msgs, 500); err != nil {
							errs <- fmt.Errorf("publisher %d gave up: %w", g, err)
							return
						}
						mu.Lock()
						for _, m := range msgs {
							p := stream.KeyPartition(m.Key, 4)
							want[p] = append(want[p], string(m.Value))
						}
						mu.Unlock()
					}
				}(g)
			}

			for cycle := 0; cycle < 4; cycle++ {
				if err := c.Kill("n2"); err != nil {
					t.Error(err)
					break
				}
				if err := c.Restart("n2"); err != nil {
					t.Error(err)
					break
				}
				_ = c.Repair() // concurrent churn may leave transient degradation
			}
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			repairUntilOK(t, c)
			// Concurrent publishers interleave, so per-partition order is
			// schedule-dependent — but every committed value must appear
			// exactly once (values are unique by construction).
			mu.Lock()
			defer mu.Unlock()
			parts, err := c.Partitions(topic)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < parts; p++ {
				recs := fetchAll(t, c, topic, p)
				if len(recs) != len(want[p]) {
					t.Fatalf("partition %d holds %d records, want %d (lost or duplicated during restarts)",
						p, len(recs), len(want[p]))
				}
				seen := make(map[string]bool, len(recs))
				for _, r := range recs {
					if seen[string(r.Value)] {
						t.Fatalf("partition %d duplicates %q", p, r.Value)
					}
					seen[string(r.Value)] = true
				}
				for _, v := range want[p] {
					if !seen[v] {
						t.Fatalf("partition %d lost committed record %q", p, v)
					}
				}
			}
		})
	}
}

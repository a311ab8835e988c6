package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odakit/internal/faults"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

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

// TestChaosClusterFlushWaveFault fails partition 0's log fsync on one
// replica in the middle of a publish wave over four partitions — a
// follower's log with the quorum lost (RF=2), a follower's log with the
// quorum intact (RF=3, Quorum=2), and the leader's log — and requires the
// wave's ack rule: partition 0 commits iff a quorum of its replicas
// flushed, only the faulted node dies, only that replica's ack is dropped
// (the victim's other logs in the same wave flushed, and their partitions
// commit), and a leader fault surfaces as the node-down error whose
// Failed messages a retry commits. The model checks every step, through
// the restart and repair after.
func TestChaosClusterFlushWaveFault(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rf, quorum int
		victim     string // partition 0's leader is n3, its first follower n2
		want       string // the faulted publish's outcome
	}{
		{name: "follower-quorum-lost", rf: 2, quorum: 2, victim: "n2", want: "published 36, failed 12: publish could not reach quorum"},
		{name: "follower-quorum-holds", rf: 3, quorum: 2, victim: "n2", want: "published 48"},
		{name: "leader", rf: 2, quorum: 2, victim: "n3", want: "published 36, failed 12: node down"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSim(t, simShape{nodes: 3, rf: tc.rf, quorum: tc.quorum, parts: 4, wal: true})
			s.run(t, "pub 0 a=x*8 b=y*8 c=z*8 d=x*8\ninsert 48 1\npub 0 a=y*8 b=z*8 c=x*8 d=y*8\ninsert 48 2")
			fired := failMidWave(t, s.c, tc.victim, partitionLog(simTopic, 0), 4*tc.rf)
			obs := s.run(t, "pub 1 a=z*12 b=x*12 c=y*12 d=z*12")
			clearWALHooks(s.c)
			if !fired() {
				t.Fatal("the armed fsync fault never fired")
			}
			if !strings.HasPrefix(obs, tc.want+";") {
				t.Fatalf("the faulted publish observed %q, want %q", obs, tc.want)
			}
			assertOnlyDead(t, s.c, tc.victim)
			s.run(t, "retry 1\nrestart "+tc.victim+"\nrepair\nrepair\nquery 1\nquery 2")
			if h := s.c.Health(); h.Status != "ok" {
				t.Fatalf("health after restart + repair = %+v", h)
			}
		})
	}
}

// TestChaosClusterFlushWaveFaultStripe is the lake half: one replica's
// stripe-log fsync fails mid-wave. The insert still commits on the other
// replica, only the faulted node dies, the victim leaves that stripe's
// serving set at its OLD sequence, and the lake answers like the model
// while degraded and after Restart + Repair.
func TestChaosClusterFlushWaveFaultStripe(t *testing.T) {
	s := newSim(t, simShape{nodes: 3, rf: 2, quorum: 2, parts: 1, wal: true})
	c := s.c
	s.run(t, "insert 48 1\ninsert 48 2")
	touched := map[int]bool{}
	st := tsdb.NumStripes
	for _, o := range seedObsBatch(rand.New(rand.NewSource(3)), 64) { // what "insert 64 3" inserts
		touched[tsdb.StripeFor(o.Component, o.Metric)] = true
		st = min(st, tsdb.StripeFor(o.Component, o.Metric))
	}
	victim := c.stripeServers(st, true, nil)[0]
	vn := c.node(victim)
	seqBefore, victimSeqBefore := c.stripeSeqs[st].Load(), vn.stripeSeq[st].Load()

	fired := failMidWave(t, c, victim, stripeLog(st), 2*len(touched))
	obs := s.run(t, "insert 64 3")
	clearWALHooks(c)
	if !fired() {
		t.Fatal("the armed fsync fault never fired")
	}
	if !strings.HasPrefix(obs, "ok, 64 of 64 committed;") {
		t.Fatalf("the faulted insert observed %q; the surviving replica's ack commits it", obs)
	}
	assertOnlyDead(t, c, victim)
	if got := vn.stripeSeq[st].Load(); got != victimSeqBefore || c.stripeSeqs[st].Load() != seqBefore+1 {
		t.Fatalf("stripe %d: victim's sequence %d → %d, the cluster's %d → %d", st, victimSeqBefore, got, seqBefore, c.stripeSeqs[st].Load())
	}
	for _, id := range c.stripeServers(st, false, nil) {
		if id == victim {
			t.Fatalf("victim %s still in stripe %d's serving set", victim, st)
		}
	}
	s.run(t, "query 1\nrestart "+victim+"\nrepair\nrepair\nquery 2")
}

// TestChaosClusterKillAfterFlushStillAcks pins what an ack rides on: the
// replica's own flush, not the node's liveness when acks are counted. A
// follower that dies AFTER its log's Sync returned holds the records
// durably, so at RF=2/Quorum=2 the batch commits on the first attempt.
// (Dropping acks on "node not alive after the wave" would fail a batch
// that a quorum holds durably.)
func TestChaosClusterKillAfterFlushStillAcks(t *testing.T) {
	s := newSim(t, simShape{nodes: 3, rf: 2, quorum: 2, parts: 1, wal: true})
	c := s.c
	s.run(t, "pub 0 a=x*8")
	const leader, follower = "n3", "n2"
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
	obs := s.run(t, "pub 0 a=y*8")
	clearWALHooks(c)
	if fn.Alive() {
		t.Fatal("hook never killed the follower")
	}
	if !strings.HasPrefix(obs, "published 8;") {
		t.Fatalf("publish observed %q; a follower killed after its flush returned still acks", obs)
	}
	s.run(t, "restart n2\nrepair\nrepair")
}

// publishers runs n goroutines that each publish 12-message batches to
// topic — keys over 32 values, values unique — and retry their Failed
// messages until stop closes, recording what committed in want.
func publishers(t *testing.T, c *Cluster, n int, seed int64, stop chan struct{}, wg *sync.WaitGroup) (want map[int][]string, mu *sync.Mutex) {
	want, mu = map[int][]string{}, &sync.Mutex{}
	for g := 0; g < n; g++ {
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
				msgs := make([]stream.Message, 12)
				for j := range msgs {
					msgs[j] = stream.Message{Key: fmt.Appendf(nil, "k%d", rng.Intn(32)), Value: fmt.Appendf(nil, "g%d-i%d-j%d", g, i, j)}
				}
				if err := retryFailed(c, simTopic, msgs, 2000); err != nil {
					t.Errorf("publisher %d could not commit batch %d: %v", g, i, err)
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
	return want, mu
}

// TestChaosClusterLockOrderStress proves the ascending multi-lock of
// publishParts (several ps.mu) and InsertBatch (several stripeMu) cannot
// deadlock against each other or against the paths that take one lock at
// a time: four publishers whose batches span overlapping partitions, two
// inserters, an AppendRecords reader and a Kill/Restart/Repair loop run
// together on a WAL-backed cluster and must all finish before the
// deadline (a hang dumps every goroutine). Every committed record must
// be in the log exactly once: overlapping publishers that retry their
// Failed messages through kills neither lose nor duplicate one.
func TestChaosClusterLockOrderStress(t *testing.T) {
	seed := chaosSeed(t)
	c := build(t, 3, Config{RF: 2, WALDir: t.TempDir()})
	if err := c.CreateTopic(simTopic, stream.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	want, mu := publishers(t, c, 4, seed, stop, &wg)
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
	for g := 0; g < 2; g++ {
		spawn(func() {
			rng := rand.New(rand.NewSource(seed + 100 + int64(g)))
			for !stopped() {
				_ = c.InsertBatch(seedObsBatch(rng, 32)) // a stripe may be down mid-kill
			}
		})
	}
	spawn(func() {
		for p := 0; !stopped(); p = (p + 1) % 4 {
			_, _ = c.AppendRecords(nil, simTopic, p, 0, 64)
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
	assertValues(t, c, simTopic, want, true)
}

// repairUntilOK restarts dead nodes and repairs until health reports ok.
func repairUntilOK(t *testing.T, c *Cluster) {
	t.Helper()
	for i := 0; i < 10; i++ {
		for _, id := range c.Nodes() {
			if err := c.Restart(id); err != nil {
				t.Fatal(err)
			}
		}
		if c.Repair() == nil && c.Health().Status == "ok" {
			return
		}
	}
	t.Fatalf("cluster never converged to ok: %+v", c.Health())
}

// TestClusterRestartDuringPublish races Restart against in-flight
// quorum publishes on the restarted node's partitions: the recovery
// replay takes each partition's lock, so it serializes with staging and
// follower syncs, and a writer holding the pre-restart WAL handle gets
// ErrClosed (treated as a crash) rather than acking into a swapped-out
// log. Run under -race; both the memory-only and WAL-backed paths must
// end with every committed record exactly once.
func TestClusterRestartDuringPublish(t *testing.T) {
	for _, walled := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "wal"}[walled], func(t *testing.T) {
			cfg := Config{RF: 2}
			if walled {
				cfg.WALDir = t.TempDir()
			}
			c := build(t, 3, cfg)
			if err := c.CreateTopic(simTopic, stream.TopicConfig{Partitions: 4}); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			want, mu := publishers(t, c, 4, chaosSeed(t), stop, &wg)
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
			if t.Failed() {
				return
			}
			repairUntilOK(t, c)
			mu.Lock()
			defer mu.Unlock()
			assertValues(t, c, simTopic, want, true)
		})
	}
}

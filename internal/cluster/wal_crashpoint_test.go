package cluster

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"odakit/internal/faults"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// crashPointWorkload drives a small deterministic mixed workload —
// keyed publishes over two partitions plus lake inserts mirrored into a
// single-node reference — recording exactly what committed. Publishes
// retry through crashes, so `want` holds the quorum-committed sequence
// regardless of where the victim died.
func crashPointWorkload(t *testing.T, c *Cluster, ref *tsdb.DB, seed int64, topic string) map[int][]string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	want := map[int][]string{}
	for b := 0; b < 5; b++ {
		msgs := keyedMsgs(rng, b, 12)
		publishRetry(t, c, topic, msgs, 200)
		for _, m := range msgs {
			p := stream.KeyPartition(m.Key, 2)
			want[p] = append(want[p], string(m.Value))
		}
		if b%2 == 0 {
			obs := make([]schema.Observation, 24)
			for j := range obs {
				obs[j] = seedObs(rng, rng.Intn(1<<20))
			}
			insertBoth(t, ref, c, obs)
		}
	}
	return want
}

func newCrashPointCluster(t *testing.T) (*Cluster, *tsdb.DB) {
	t.Helper()
	c, err := New([]string{"n1", "n2", "n3"}, Config{
		RF: 2, LakeOptions: lakeOpts(),
		WALDir: t.TempDir(), WALSegmentBytes: 2 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("telemetry", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	return c, tsdb.New(lakeOpts())
}

// TestChaosClusterWALCrashPoints kills node n2 at EVERY WAL append and
// fsync boundary the workload reaches: a calibration run counts the
// boundaries fault-free, then one fresh cluster per boundary index k
// arms the injector's FailAfter=k on n2's WAL (WAL failure is a crash:
// the node drops dead mid-operation). After each crash the node
// restarts from disk and must hold a byte-identical prefix of the
// quorum-committed log — never a torn suffix, never an extra record —
// and post-recovery scatter-gather queries must match the single-node
// reference bit-for-bit. Replay a failure with ODA_CHAOS_SEED=<seed>.
func TestChaosClusterWALCrashPoints(t *testing.T) {
	seed := chaosSeed(t)
	const topic = "telemetry"
	for _, op := range []string{faults.OpWALAppend, faults.OpWALFsync} {
		t.Run(op, func(t *testing.T) {
			// Calibration: count the victim's boundaries with no faults.
			var boundaries atomic.Int64
			c, ref := newCrashPointCluster(t)
			c.NodeWAL("n2").SetFaultHook(func(o, target string) error {
				if o == op {
					boundaries.Add(1)
				}
				return nil
			})
			crashPointWorkload(t, c, ref, seed, topic)
			n := boundaries.Load()
			if n == 0 {
				t.Fatalf("workload never crossed a %s boundary on n2", op)
			}
			t.Logf("sweeping %d %s boundaries (seed %d)", n, op, seed)

			for k := int64(1); k <= n; k++ {
				c, ref := newCrashPointCluster(t)
				inj := faults.New(seed)
				inj.Set(op, faults.Rates{FailAfter: k})
				// Inside a flush wave the log the k-th fsync lands on depends
				// on the scheduler (the boundary COUNT does not), so every
				// failure below names the log this run's fault actually hit.
				var hit atomic.Value
				c.NodeWAL("n2").SetFaultHook(func(o, target string) error {
					err := inj.Before(o, target)
					if err != nil {
						hit.CompareAndSwap(nil, target)
					}
					return err
				})

				want := crashPointWorkload(t, c, ref, seed, topic)
				if got := inj.Stats()[op].Permanents; got == 0 {
					t.Fatalf("k=%d: boundary never hit (%d calls)", k, inj.Stats()[op].Calls)
				}
				where := fmt.Sprintf("k=%d %s on n2 log %v (seed %d)", k, op, hit.Load(), seed)
				if c.node("n2").Alive() {
					t.Fatalf("%s: n2 survived; WAL failure must crash the node", where)
				}

				// The restarted WAL handle carries no fault hook, so
				// recovery itself runs clean — the crash left whatever
				// prefix the fsync boundaries made durable.
				if err := c.Restart("n2"); err != nil {
					t.Fatalf("%s: restart: %v", where, err)
				}
				assertDiskPrefix(t, c, "n2", topic, want, where)
				repairUntilOK(t, c)
				assertExactSequences(t, c, topic, want, where)
				qrng := rand.New(rand.NewSource(seed + k))
				assertQueriesMatch(t, ref, c, qrng, 3, where)
			}
		})
	}
}

// TestChaosClusterRestartFromDiskPartitioned proves recovery does not
// depend on peer resync: the victim restarts from its WAL while the
// transport to BOTH peers is cut, serves a byte-identical committed
// prefix, then catches up the missed suffix through a half-healed
// network (one peer still unreachable). The wholesale stripe-resync
// counter must not move — lake catch-up rides the peers' WAL suffixes.
func TestChaosClusterRestartFromDiskPartitioned(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	c, ref := newCrashPointCluster(t)
	const topic = "telemetry"

	want := map[int][]string{}
	feed := func(batches, size int) {
		for b := 0; b < batches; b++ {
			msgs := keyedMsgs(rng, b, size)
			publishRetry(t, c, topic, msgs, 100)
			for _, m := range msgs {
				p := stream.KeyPartition(m.Key, 2)
				want[p] = append(want[p], string(m.Value))
			}
		}
	}
	feed(15, 16)
	preRecords := 0
	for _, seq := range want {
		preRecords += len(seq)
	}
	for i := 0; i < 4; i++ {
		obs := make([]schema.Observation, 50)
		for j := range obs {
			obs[j] = seedObs(rng, rng.Intn(1<<20))
		}
		insertBoth(t, ref, c, obs)
	}

	if err := c.Kill("n2"); err != nil {
		t.Fatal(err)
	}
	feed(3, 16) // committed while the victim is down — its catch-up debt
	obs := make([]schema.Observation, 30)
	for j := range obs {
		obs[j] = seedObs(rng, rng.Intn(1<<20))
	}
	insertBoth(t, ref, c, obs)

	// Island the victim completely: no peer traffic in either direction.
	tr := c.Transport()
	for _, pair := range [][2]string{{"n1", "n2"}, {"n2", "n1"}, {"n3", "n2"}, {"n2", "n3"}} {
		tr.PartitionLink(pair[0], pair[1])
	}
	replBefore := c.replicated.Load()
	resyncsBefore := c.lakeResyncs.Load()
	catchupsBefore := c.lakeCatchups.Load()

	if err := c.Restart("n2"); err != nil {
		t.Fatalf("restart with all peer links cut: %v", err)
	}
	if got := c.replicated.Load() - replBefore; got != 0 {
		t.Fatalf("recovery moved %d records despite a full partition", got)
	}
	if c.walRecoveriesDisk.Load() == 0 {
		t.Fatal("restart did not count as a disk recovery")
	}
	recovered := assertDiskPrefix(t, c, "n2", topic, want, "islanded recovery")
	if recovered == 0 {
		t.Fatal("islanded node recovered nothing from disk")
	}
	assertExactSequences(t, c, topic, want, "during partition")

	// Half-heal: n3 can reach the victim, n1 still cannot. Repair passes
	// may fail on n1-led partitions; reads must stay exact throughout.
	tr.HealLink("n3", "n2")
	tr.HealLink("n2", "n3")
	_ = c.Repair()
	assertExactSequences(t, c, topic, want, "half-healed")

	tr.HealLink("n1", "n2")
	tr.HealLink("n2", "n1")
	repairUntilOK(t, c)
	assertExactSequences(t, c, topic, want, "fully healed")

	if shipped := c.replicated.Load() - replBefore; shipped >= int64(preRecords) {
		t.Fatalf("catch-up shipped %d records against a pre-crash log of %d; not suffix-only", shipped, preRecords)
	}
	if got := c.lakeResyncs.Load() - resyncsBefore; got != 0 {
		t.Fatalf("%d wholesale stripe resyncs ran; catch-up must ride peer WAL suffixes", got)
	}
	if c.lakeCatchups.Load() == catchupsBefore {
		t.Fatal("no lake WAL catch-ups ran")
	}
	assertQueriesMatch(t, ref, c, rng, 6, "post-recovery")
}

package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"odakit/internal/faults"
	"odakit/internal/tsdb"
)

// close abandons every node's WAL, so a shrink's many replays leave no
// file open.
func (s *sim) close() {
	for _, id := range s.c.Nodes() {
		if w := s.c.NodeWAL(id); w != nil {
			w.Abandon()
		}
	}
}

// run steps the ops written one a line in text and fails the test at the
// first violation; it returns the last step's observation.
func (s *sim) run(t *testing.T, text string) string {
	t.Helper()
	_, ops, err := parseSchedule("cluster 1\n" + text)
	if err != nil {
		t.Fatal(err)
	}
	var obs string
	for _, o := range ops {
		if obs, err = s.step(o); err != nil {
			t.Fatalf("%s: %v", o, err)
		}
	}
	return obs
}

// replay runs a schedule on a fresh cluster and returns every step's
// observation, up to and including the first violation.
func replay(t testing.TB, sh simShape, ops []op) ([]string, error) {
	s := newSim(t, sh)
	defer s.close()
	obs := make([]string, 0, len(ops))
	for i, o := range ops {
		ob, err := s.step(o)
		obs = append(obs, ob)
		if err != nil {
			return obs, fmt.Errorf("step %d (%s): %w", i+1, o, err)
		}
	}
	return obs, nil
}

// simulate draws a seed's cluster and runs steps ops drawn one at a time
// from its state, stopping at the first violation.
func simulate(t testing.TB, seed int64, steps int) (simShape, []op, []string, error) {
	rng := rand.New(rand.NewSource(seed))
	sh := simShape{nodes: 3 + rng.Intn(2), rf: 2 + rng.Intn(2), parts: 1 + rng.Intn(4), wal: rng.Intn(2) == 0}
	sh.quorum = sh.rf - rng.Intn(sh.rf-1)
	s := newSim(t, sh)
	defer s.close()
	var ops []op
	var obs []string
	for len(ops) < steps {
		o := s.next(rng, sh)
		ops = append(ops, o)
		ob, err := s.step(o)
		obs = append(obs, ob)
		if err != nil {
			return sh, ops, obs, fmt.Errorf("step %d (%s): %w", len(ops), o, err)
		}
	}
	return sh, ops, obs, nil
}

// shrink deletes ops — halves, quarters, … single ops — and then single
// messages of a publish, for as long as the schedule still fails.
func shrink(t testing.TB, sh simShape, ops []op) []op {
	fails := func(cand []op) bool {
		_, err := replay(t, sh, cand)
		return err != nil
	}
	for changed := true; changed; {
		changed = false
		for chunk := max(len(ops)/2, 1); chunk >= 1; chunk /= 2 {
			for i := 0; i+chunk <= len(ops); {
				if cand := slices.Concat(ops[:i], ops[i+chunk:]); fails(cand) {
					ops, changed = cand, true
				} else {
					i += chunk
				}
			}
		}
		for i := range ops {
			for j := 0; len(ops[i].msgs) > 1 && j < len(ops[i].msgs); {
				cand := slices.Clone(ops)
				cand[i].msgs = slices.Delete(slices.Clone(ops[i].msgs), j, j+1)
				if fails(cand) {
					ops, changed = cand, true
				} else {
					j++
				}
			}
		}
	}
	return ops
}

// formatSchedule prints a schedule one op a line, each followed by what
// the step observed.
func formatSchedule(sh simShape, ops []op, obs []string) string {
	var b strings.Builder
	b.WriteString(sh.String() + "\n")
	for i, o := range ops {
		fmt.Fprintf(&b, "%-36s", o)
		if i < len(obs) {
			fmt.Fprintf(&b, " # %s", obs[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

const simSteps = 40

// TestChaosClusterSimulator runs seeded schedules against the model and
// shrinks a failure to the schedule it prints. ODA_CHAOS_SEED=<seed>
// replays one seed and prints its schedule.
func TestChaosClusterSimulator(t *testing.T) {
	seeds := []int64{chaosSeed(t)}
	if os.Getenv("ODA_CHAOS_SEED") == "" {
		for i := int64(1); i < 12; i++ {
			seeds = append(seeds, seeds[0]+i)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			sh, ops, obs, err := simulate(t, seed, simSteps)
			if err == nil {
				if len(seeds) == 1 {
					t.Logf("seed %d:\n%s", seed, formatSchedule(sh, ops, obs))
				}
				return
			}
			ops = shrink(t, sh, ops)
			obs, _ = replay(t, sh, ops)
			t.Fatalf("seed %d: %v\nshrunk to %d ops (replay: ODA_CHAOS_SEED=%d):\n%s",
				seed, err, len(ops), seed, formatSchedule(sh, ops, obs))
		})
	}
}

// TestChaosClusterSimulatorRepeats: a seed pins its whole run — the
// schedule drawn and every step's observation — and a schedule's text
// parses back to the same ops.
func TestChaosClusterSimulatorRepeats(t *testing.T) {
	seed := chaosSeed(t)
	sh, ops, obs, err := simulate(t, seed, simSteps)
	if err != nil {
		t.Fatal(err)
	}
	sh2, ops2, obs2, _ := simulate(t, seed, simSteps)
	text := formatSchedule(sh, ops, obs)
	if again := formatSchedule(sh2, ops2, obs2); again != text {
		t.Fatalf("seed %d ran two ways:\n%s\n%s", seed, text, again)
	}
	sh3, ops3, err := parseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	if obs3, err := replay(t, sh3, ops3); err != nil || formatSchedule(sh3, ops3, obs3) != text {
		t.Fatalf("seed %d's printed schedule replays differently (%v):\n%s", seed, err, formatSchedule(sh3, ops3, obs3))
	}
}

// runSchedule runs one literal schedule against the model: each test
// whose body was an op sequence and then the exactly-once, prefix and
// query-identity checks is one such call. A "=>" pins what a step must
// observe, and the run must end having truncated exactly truncated
// committed records. It returns the sim it ran on.
func runSchedule(t *testing.T, truncated int64, text string) *sim {
	t.Helper()
	sh, ops, err := parseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, sh)
	defer s.close()
	var obs []string
	for _, o := range ops {
		ob, err := s.step(o)
		if obs = append(obs, ob); err != nil {
			t.Fatalf("%s: %v\n%s", o, err, formatSchedule(sh, ops, obs))
		}
	}
	if got := s.c.Health().TruncatedHW; got != truncated {
		t.Fatalf("truncated %d committed records, want %d\n%s", got, truncated, formatSchedule(sh, ops, obs))
	}
	return s
}

// Degraded, never down, while a node is dead; never-published
// partitions (2 and 3) count as fully replicated.
func TestClusterHealthTransitions(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=4
pub 0 a=x b=y => published 2; hw [1 1 0 0]; ok; shipped +2
kill n2 => ok; hw [1 1 0 0]; degraded
repair => ok; hw [1 1 0 0]; degraded; shipped +2
restart n2 => ok; hw [1 1 0 0]; ok
repair => ok; hw [1 1 0 0]; ok; shipped +2`)
}

func TestClusterIdenticalBatchRepublish(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=2
pub 0 hb=alive*2
pub 1 hb=alive*2
pub 0 hb=alive
pub 1 hb=alive => published 1; hw [0 6]; ok; shipped +1`)
}

// A Repair that cannot reach quorum still acks the follower it
// brought to hw, so the failover onto it truncates nothing.
func TestClusterRepairAcksCommittedPrefix(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=3 q=3 parts=1
pub 0 a=x*16
kill n1
kill n2
restart n2
repair => publish could not reach quorum; hw [16]; degraded; shipped +16
kill n3 => ok; hw [16]; degraded; failovers +1
poll`)
}

func TestChaosClusterKillNode(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=4
pub 0 a=x b=y c=z d=x =y =z
kill n1
pub 1 a=y b=y =x
restart n1
repair
kill n2
pub 0 c=x d=y =z
restart n2
repair
kill n3
pub 1 a=z b=z
poll
restart n3
repair => ok; hw [4 4 3 3]; ok; shipped +14`)
}

func TestChaosClusterKillLeaderMidPublish(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=4
pub 0 a=x b=y c=z d=x
crash n3 cluster.replicate 1
pub 0 a=y b=z c=x d=y => published 3, failed 1: publish could not reach quorum; hw [1 2 2 2]; degraded; failovers +4; shipped +6
retry 0 => published 1; hw [2 2 2 2]; degraded; shipped +2
restart n3
repair`)
}

// The leader dies after one follower took the whole batch (Quorum 3
// of 3): retries fail until the third replica returns, each cutting
// the one before, and the batch then commits once.
func TestChaosClusterKillLeaderAfterFollowerSync(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=3 q=3 parts=1
pub 0 a=x*16
crash n3 cluster.replicate 2
pub 0 a=y*16 => published 0, failed 16: publish could not reach quorum; hw [16]; degraded; failovers +1; shipped +16
retry 0 => published 0, failed 16: publish could not reach quorum; hw [16]; degraded; shipped +16
restart n3
retry 0 => published 16; hw [32]; degraded; shipped +48
repair`)
}

// The leader dies between the two 1 024-record chunks of one sync:
// the promoted follower holds a strict prefix of the failed batch.
func TestChaosClusterKillLeaderMidChunkedSync(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=1
pub 0 a=x*16
crash n3 cluster.replicate 2
pub 0 a=y*1040 => published 0, failed 1040: publish could not reach quorum; hw [16]; degraded; failovers +1; shipped +1024
retry 0 => published 1040; hw [1056]; degraded; shipped +1056
restart n3
repair`)
}

// A cut link fails the publish with ErrQuorumLost and never fails
// over (no failovers in the pin): only crashes promote.
func TestChaosClusterAsymmetricPartition(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=1
pub 0 a=x*16
cut n3>n2
pub 0 a=y*8 => published 0, failed 8: publish could not reach quorum; hw [16]; ok
heal n3>n2
retry 0 => published 8; hw [24]; ok; shipped +8`)
}

func TestClusterQueryByteIdentityAcrossEpochs(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=4
pub 0 a=x b=y c=z
insert 300 1
query 1
kill n2
insert 300 2
query 2
repair
restart n2
repair
insert 300 3
query 3
join n4
repair
pub 1 d=x =y
insert 300 4
query 4
drain n1 => ok; hw [1 2 1 1]; ok; resynced +5
insert 300 5
query 5
poll
repair => ok; hw [1 2 1 1]; ok`)
}

func TestChaosClusterFollowerCutsFailedSuffix(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=3 q=3 parts=1
cut n3>n1
pub 0 k=failed => published 0, failed 1: publish could not reach quorum; hw [0]; ok; shipped +1
heal n3>n1
pub 1 k=committed
kill n1
kill n3 => ok; hw [1]; degraded; failovers +1`)
}

func TestChaosClusterRepublishAfterPartialFailure(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=16
cut n3>n2
pub 0 a=reading b=lost => published 1, failed 1: publish could not reach quorum; hw [0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0]; ok; shipped +1
heal n3>n2
retry 0
pub 0 a=reading => published 1; hw [0 0 0 0 0 1 0 0 0 0 0 0 2 0 0 0]; ok; shipped +1`)
}

func TestChaosClusterTwoProducersRetryFailed(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=16
cut n3>n2
pub 0 a=a-committed b=a-failed => published 1, failed 1: publish could not reach quorum; hw [0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0]; ok; shipped +1
heal n3>n2
pub 1 b=b
retry 0 => published 1; hw [0 0 0 0 0 2 0 0 0 0 0 0 1 0 0 0]; ok; shipped +1`)
}

func TestChaosClusterKeylessRetryAfterRepair(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=16
pub 0 =w*8
cut n1>n3
pub 0 =first =second => published 1, failed 1: publish could not reach quorum; hw [0 1 1 1 1 1 1 1 1 1 0 0 0 0 0 0]; ok; shipped +1
heal n1>n3
repair => ok; hw [0 1 1 1 1 1 1 1 1 1 0 0 0 0 0 0]; ok
retry 0 => published 1; hw [0 1 1 1 1 1 1 1 1 1 0 1 0 0 0 0]; ok; shipped +1`)
}

func TestClusterStaleWALEpochFencing(t *testing.T) {
	runSchedule(t, 16, `cluster 4 rf=3 q=2 parts=1 wal
pub 0 a=pre*16
cut n3>n4
pub 0 a=A*16
heal n3>n4
kill n3
kill n2 => ok; hw [16]; degraded; failovers +1; truncated +16
pub 0 a=B*16
restart n3 => ok; hw [32]; degraded; recovered +16
restart n2
repair
repair => ok; hw [32]; ok`)
}

// A WAL does not save a partition whose in-sync replicas die one
// after the other: n2 takes over from n3 with the never-synced n1 as
// its follower, n1 takes over from n2 with trusted end 0, and the
// epoch fence then refuses both WALs. This is the "watermark honestly
// regresses" policy, pinned as it is; ROADMAP "clean failover for
// WAL-backed clusters" records why the naive fix falls short.
func TestChaosClusterInSyncReplicasDieInTurn(t *testing.T) {
	runSchedule(t, 12, `cluster 3 rf=2 q=2 parts=1 wal
pub 0 a=x*4
pub 1 a=y*4
pub 0 a=z*4
kill n3 => ok; hw [12]; degraded; failovers +1
kill n2 => ok; hw [0]; down; failovers +1; truncated +12
restart n3 => ok; hw [0]; down
restart n2 => ok; hw [0]; down
repair => ok; hw [0]; ok`)
}

func TestClusterRestartRecoversFromDisk(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=4 wal
kill n3
restart n3 => ok; hw [0 0 0 0]; degraded
pub 0 a=x*8 b=y*8 c=z*8 d=x*8
pub 0 a=y*8 b=z*8 c=x*8 d=y*8
insert 50 1
insert 50 2
kill n2
pub 1 a=y*4 b=z*4
restart n2 => ok; hw [20 20 16 16]; down; recovered +32; rows +28
repair => ok; hw [20 20 16 16]; degraded; shipped +32; caught up +7`)
}

func TestChaosClusterRestartFromDiskPartitioned(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=2 wal
pub 0 a=x*16 b=y*16
pub 0 a=y*16 b=x*16
insert 50 1
insert 50 2
kill n2
pub 1 a=z*8 b=x*8
insert 30 3
cut n1>n2
cut n2>n1
cut n3>n2
cut n2>n3
restart n2 => ok; hw [40 40]; degraded; recovered +32; rows +28
heal n3>n2
heal n2>n3
repair => ok; hw [40 40]; ok; shipped +48; caught up +2
heal n1>n2
heal n2>n1
repair => ok; hw [40 40]; ok
query 1`)
}

func TestChaosClusterRestartEmptyLeader(t *testing.T) {
	runSchedule(t, 1, `cluster 3 rf=2 q=2 parts=1
pub 0 a=x
kill n2
kill n3
restart n3 => ok; hw [0]; down; failovers +1; truncated +1`)
}

// The lake side of the same loss: a stripe whose every replica came
// back without it restarts empty, and its committed batches are
// counted (Health().LostInserts), never served as if never written.
func TestChaosClusterStripeReplicasRestartEmpty(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=1
insert 25 436
kill n2
kill n3
restart n3
restart n2
repair => ok; hw [0]; ok; lost +2; resynced +5`)
}

// n1 dies holding stripe 2's only committed batch on its WAL but out of
// the serving set. Repair must not count the stripe lost while n1 can
// still rebuild it: the stripe stays down until n1's restart replays it.
func TestChaosClusterStripeWaitsForItsWAL(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=1 wal
kill n3
crash n1 wal.append lake/2 2
insert 29 157
insert 18 252
restart n3
repair => no live in-sync replica for stripe; hw [0]; down; caught up +2
restart n1 => ok; hw [0]; down; rows +27
repair => ok; hw [0]; ok; caught up +4`)
}

// A cut router link fails n1's, then n3's, share of an insert; each
// Repair resyncs the one that missed it wholesale, which resets its
// stripe logs. When both die and restart, neither log reaches back to
// the stripes' first batches and no lake holds them: the model allows
// the loss, and Repair counts it. Recovery then replays only what was
// committed past the loss (n3's restart brings back the last insert).
func TestChaosClusterStripeLostAfterResyncs(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=1 wal
insert 29 157
cut router>n1
insert 18 252
heal router>n1
repair => ok; hw [0]; ok; resynced +5
cut router>n3
insert 29 158
heal router>n3
repair => ok; hw [0]; ok; resynced +7
kill n1
kill n3
restart n1
restart n3 => ok; hw [0]; down
repair => ok; hw [0]; ok; lost +14; caught up +2
insert 18 252
kill n3
restart n3 => ok; hw [0]; degraded; rows +39
repair => ok; hw [0]; ok`)
}

// Stripes nothing was written to lose both replicas from their serving
// sets to restarts, then n1 dies: its WAL holds nothing they lack, so
// Repair restarts them empty instead of waiting for n1.
func TestChaosClusterEmptyStripeIsNotHeld(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=1 wal
kill n1
restart n1
kill n3
restart n3 => ok; hw [0]; down
kill n1
repair => ok; hw [0]; degraded`)
}

func TestChaosClusterFailedPublishCommittedLater(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=3 q=3 parts=4
kill n2
pub 0 a=y => published 0, failed 1: publish could not reach quorum; hw [0 0 0 0]; degraded; shipped +1
restart n2
pub 1 a=x => published 1; hw [1 0 0 0]; degraded; shipped +2
retry 0 => published 1; hw [2 0 0 0]; degraded; shipped +2`)
}

// A replica keeps a failed retry past its acked end on partition 2
// while c=y commits without it; when the leader dies, failover must
// rank replicas by min(log end, acked end) — by raw log end it would
// promote the stale =y over the committed c=y (found by the simulator
// with that rule mutated).
func TestChaosClusterFailoverTrustsAckedPrefix(t *testing.T) {
	runSchedule(t, 0, `cluster 4 rf=3 q=3 parts=3 wal
crash n3 wal.append t/telemetry/1 1
pub 0 =y
crash n4 wal.fsync t/telemetry/2 1
retry 0
restart n3
restart n4
crash n2 wal.append t/telemetry/2 3
repair
pub 1 c=y
kill n3
pub 0 c=x => published 0, failed 1: node down; hw [0 0 1]; degraded; failovers +3; crashed +1`)
}

func TestChaosClusterJoinLeaveRebalance(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=4
pub 0 a=x b=y c=z d=x =y =z
cut n1>n2
pub 1 a=y b=z =x
heal n1>n2
retry 1
join n4
repair => ok; hw [2 3 2 2]; ok
pub 0 c=x d=y =z
drain n1 => ok; hw [3 3 3 3]; ok
pub 1 a=z b=z =y
poll
repair => ok; hw [4 5 3 3]; ok`)
}

func TestClusterPublishMatchesSingleBroker(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=4
pub 0 a=x b=y c=z d=x a=y =z =x b=x
pub 1 c=y c=y d=z =y a=x
pub 0 b=z*20 =y*7
poll
pub 1 a=x d=x =z
poll`)
}

func TestClusterFollowersHoldIdenticalPrefix(t *testing.T) {
	runSchedule(t, 0, `cluster 4 rf=3 q=3 parts=4
pub 0 a=x*32 b=y*32 c=z*32 d=x*32
pub 1 a=y*16 =z*16
pub 0 c=x*8 d=y*8 =x*8`)
}

func TestClusterFetchAfterHWIsInFuture(t *testing.T) {
	runSchedule(t, 0, `cluster 3 rf=2 q=2 parts=1
pub 0 k=v => published 1; hw [1]; ok; shipped +1
cut n3>n2
pub 0 k=staged => published 0, failed 1: publish could not reach quorum; hw [1]; ok`)
}

// crashWorkload is TestChaosClusterWALCrashPoints' schedule after its
// header and crash points.
const crashWorkload = `
pub 0 a=x*4 b=y*4 c=z*2 d=x*2
insert 8 1
pub 1 a=y*3 b=z*3 =x*2
repair
retry 0
retry 1
pub 0 c=y*3 d=z*3
insert 8 2
repair
retry 0
restart n2
repair
repair
query 1
poll`

// TestChaosClusterWALCrashPoints crashes n2 at every WAL append and every
// fsync the workload makes, one run per (log, k): the k-th such call on
// that log fails and kills n2. A first run counts the calls on each log
// with points that never fire; keyed by log, k lands on the same call
// whatever order a flush wave's goroutines run in. n2 restarts from disk
// and the model checks every step, so what it recovers is a committed
// prefix and the lake still answers as the model does.
func TestChaosClusterWALCrashPoints(t *testing.T) {
	const header, never = "cluster 3 rf=2 q=2 parts=2 wal\n", 1 << 30
	for _, fault := range []string{faults.OpWALAppend, faults.OpWALFsync} {
		t.Run(fault, func(t *testing.T) {
			t.Parallel()
			count := header
			for _, log := range []string{partitionLog(simTopic, 0), partitionLog(simTopic, 1)} {
				count += fmt.Sprintf("crash n2 %s %s %d\n", fault, log, never)
			}
			for st := range tsdb.NumStripes {
				count += fmt.Sprintf("crash n2 %s %s %d\n", fault, stripeLog(st), never)
			}
			points := 0
			for _, p := range runSchedule(t, 0, count+crashWorkload).points {
				for k := int64(1); k <= never-p.left; k++ {
					point := fmt.Sprintf("crash n2 %s %s %d", fault, p.log, k)
					if runSchedule(t, 0, header+point+crashWorkload).armed() > 0 {
						t.Fatalf("%s never fired", point)
					}
					points++
				}
			}
			t.Logf("%d %s crash points on n2", points, fault)
		})
	}
}

// TestClusterRoutesKeysLikeBroker: twenty keys land where a single
// broker's stream.KeyPartition puts them, at several partition counts.
func TestClusterRoutesKeysLikeBroker(t *testing.T) {
	for _, parts := range []int{3, 7, 16} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			runSchedule(t, 0, fmt.Sprintf(`cluster 3 rf=2 q=2 parts=%d
pub 0 a=v b=v c=v d=v e=v f=v g=v h=v i=v j=v k=v l=v m=v n=v o=v p=v q=v r=v s=v t=v`, parts))
		})
	}
}

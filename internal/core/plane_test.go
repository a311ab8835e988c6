package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"odakit/internal/cluster"
	"odakit/internal/faults"
	"odakit/internal/jobsched"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/sproc"
	"odakit/internal/telemetry"
	"odakit/internal/tsdb"
)

// clusterPlaneFacility is testFacility attached to a 3-node RF=2 cluster
// whose replication hops are single-shot, so a transport fault surfaces
// to the facility as a missed quorum instead of being retried away
// inside the cluster.
func clusterPlaneFacility(t *testing.T) (*Facility, *cluster.Cluster) {
	t.Helper()
	f := testFacility(t)
	f.Opts.RetryPolicy = chaosRetry()
	return f, attachCluster(t, f)
}

func attachCluster(t *testing.T, f *Facility) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New([]string{"n1", "n2", "n3"}, cluster.Config{
		RF: 2, LakeOptions: tsdb.Options{RollupInterval: f.Opts.SilverWindow},
		Retry: resilience.NoRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AttachPlane(c, c); err != nil {
		t.Fatal(err)
	}
	return c
}

// partitionValues reads a partition's whole retained log through the
// plane surface, requiring contiguous offsets from zero to EndOffset.
func partitionValues(t *testing.T, s plane.Stream, topic string, p int) [][]byte {
	t.Helper()
	end, err := s.EndOffset(topic, p)
	if err != nil {
		t.Fatal(err)
	}
	var vals [][]byte
	for off := int64(0); off < end; {
		recs, err := s.AppendRecords(nil, topic, p, off, 1024)
		if err != nil || len(recs) == 0 {
			t.Fatalf("fetch %s/%d@%d (end %d): %d records, err %v", topic, p, off, end, len(recs), err)
		}
		for _, r := range recs {
			if r.Offset != off {
				t.Fatalf("%s/%d: offset %d where %d was expected (hole or duplicate)", topic, p, r.Offset, off)
			}
			vals = append(vals, r.Value)
			off++
		}
	}
	return vals
}

// TestChaosIngestClusterPlaneExactlyOnce drives IngestWindow into a
// cluster plane while the inter-node transport drops leader appends and
// replication hops: flushes fail partially (some partitions miss quorum
// and their replicas cut the sub-batch), publishRetry resumes with only
// the failed remainder, and every bronze record must end up committed
// exactly once, in the order a fault-free single-node facility holds it.
// ODA_CHAOS_SEED replays the schedule.
func TestChaosIngestClusterPlaneExactlyOnce(t *testing.T) {
	seed := chaosSeed()
	sources := []telemetry.Source{telemetry.SourcePowerTemp, telemetry.SourceGPU}
	ref := testFacility(t)
	if _, err := ref.IngestWindow(context.Background(), t0, t0.Add(time.Minute), sources...); err != nil {
		t.Fatal(err)
	}

	f, c := clusterPlaneFacility(t)
	inj := faults.New(seed)
	inj.Set(cluster.OpPublish, faults.Rates{Transient: 0.08})
	inj.Set(cluster.OpReplicate, faults.Rates{Transient: 0.08})
	inj.Install(c.Transport())
	stats, err := f.IngestWindow(context.Background(), t0, t0.Add(time.Minute), sources...)
	if err != nil {
		t.Fatalf("seed %d: ingest under transport faults: %v\n%s", seed, err, inj)
	}
	if st := inj.Stats(); st[cluster.OpPublish].Transients == 0 || st[cluster.OpReplicate].Transients == 0 || f.retries.Value() == 0 {
		t.Fatalf("seed %d: the schedule exercised nothing: %s, %d facility retries", seed, inj, f.retries.Value())
	}
	c.Transport().SetFaultHook(nil) // reads below verify, they do not inject

	for _, si := range stats.Sources {
		topic := BronzeTopic(si.Source)
		var committed int64
		for p := 0; p < TopicPartitions; p++ {
			got := partitionValues(t, c, topic, p)
			want := partitionValues(t, ref.Broker, topic, p)
			committed += int64(len(got))
			if len(got) != len(want) {
				t.Fatalf("seed %d: %s/%d holds %d records, fault-free reference %d", seed, topic, p, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("seed %d: %s/%d@%d differs from the fault-free reference", seed, topic, p, i)
				}
			}
		}
		if committed != si.Records {
			t.Fatalf("seed %d: %s committed %d records, ingest reported %d", seed, topic, committed, si.Records)
		}
	}
	if end, _ := f.Broker.EndOffset(BronzeTopic(telemetry.SourcePowerTemp), 0); end != 0 {
		t.Fatalf("facility's own broker received %d records while attached to a cluster", end)
	}

	q := tsdb.Query{
		From: t0, To: t0.Add(time.Minute),
		Filters:     map[string][]string{tsdb.DimMetric: {"node_power_w"}},
		GroupBy:     []string{tsdb.DimComponent},
		Granularity: 15 * time.Second, Agg: tsdb.AggAvg,
	}
	want, err := ref.Lake.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.RunWithStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !want.Equal(got) {
		t.Fatalf("seed %d: clustered lake answer (%d rows) differs from the reference (%d rows)", seed, got.Len(), want.Len())
	}
}

// silverRun ingests [t0, t0+window) of the power/temperature source into
// f, drains the streaming Silver job and returns the OCEAN object it
// wrote with the job's counters. midDrain, when set, runs once from the
// job's goroutine as the n-th Silver window is about to be appended.
func silverRun(t *testing.T, f *Facility, window time.Duration, midDrain map[int]func()) ([]byte, sproc.Metrics) {
	t.Helper()
	src := telemetry.SourcePowerTemp
	if _, err := f.IngestWindow(context.Background(), t0, t0.Add(window), src); err != nil {
		t.Fatal(err)
	}
	appends := 0
	f.Ocean.SetFaultHook(func(op, _ string) error {
		if op == faults.OpStoreAppend {
			appends++
			if fn := midDrain[appends]; fn != nil {
				fn()
			}
		}
		return nil
	})
	m, err := f.DrainSilver(context.Background(), SilverPipelineConfig{Source: src})
	if err != nil {
		t.Fatalf("drain on %T: %v", f.stream, err)
	}
	f.Ocean.SetFaultHook(nil)
	data, _, err := f.Ocean.Get(BucketSilver, SilverObjectKey(src))
	if err != nil {
		t.Fatal(err)
	}
	return data, m
}

func sameSilver(t *testing.T, what string, got []byte, gm sproc.Metrics, want []byte, wm sproc.Metrics) {
	t.Helper()
	if gm.RecordsIn != wm.RecordsIn || gm.WindowsEmitted != wm.WindowsEmitted || gm.RowsOut != wm.RowsOut || gm.RecordsLate != 0 {
		t.Fatalf("%s: cluster-plane job counted %+v, local-plane job %+v", what, gm, wm)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("%s: cluster-plane Silver object (%d bytes) differs from the local plane's (%d bytes)", what, len(got), len(want))
	}
}

// TestSilverOnClusterPlaneMatchesLocal: the streaming Bronze→Silver job
// reads whichever plane the facility is attached to, so the same seeded
// window refined on a 3-node RF=2 cluster and on the facility's own
// broker must yield the same Silver object byte for byte and the same
// job counters — also when a bronze partition leader dies mid-drain and
// the reader carries on against the promoted follower.
func TestSilverOnClusterPlaneMatchesLocal(t *testing.T) {
	// EXPERIMENTS.md's Fig 4-b world: 2 minutes of a 16-node system
	// contract from 19,017 bronze records to 128 contextualized rows.
	t.Run("fig4b", func(t *testing.T) {
		exhibit := func() *Facility {
			sys := telemetry.FrontierLike(1).Scaled(16)
			sys.LossRate = 0.01
			f, err := NewFacility(Options{
				System: sys,
				Workload: &jobsched.WorkloadConfig{
					Seed: 1, MeanInterarrival: 20 * time.Second,
					MaxNodes: 6, MeanRuntime: 12 * time.Minute,
				},
				ScheduleFrom: t0.Add(-time.Hour), ScheduleTo: t0.Add(2 * time.Hour),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(f.Close)
			return f
		}
		want, wm := silverRun(t, exhibit(), 2*time.Minute, nil)
		f := exhibit()
		attachCluster(t, f)
		got, gm := silverRun(t, f, 2*time.Minute, nil)
		sameSilver(t, "fig 4-b window", got, gm, want, wm)
		if gm.RecordsIn != 19017 || gm.RowsOut != 128 {
			t.Fatalf("cluster plane refined %d bronze records into %d silver rows, EXPERIMENTS.md says 19,017 into 128", gm.RecordsIn, gm.RowsOut)
		}
	})

	// Ten minutes span several reader passes per partition, so windows are
	// appended while bronze is still being fetched.
	t.Run("leader killed mid-drain", func(t *testing.T) {
		want, wm := silverRun(t, testFacility(t), 10*time.Minute, nil)
		f, c := clusterPlaneFacility(t)
		// Every cluster.fetch during the drain is the Silver reader's, so
		// its targets are the bronze topic's partition leaders.
		var leaders []string
		c.Transport().SetFaultHook(func(op, target string) error {
			if op == cluster.OpFetch {
				leaders = append(leaders, target[strings.IndexByte(target, '>')+1:])
			}
			return nil
		})
		var victim string
		failovers := c.Health().Failovers
		got, gm := silverRun(t, f, 10*time.Minute, map[int]func(){
			1: func() {
				victim = leaders[0]
				leaders = nil
				if err := c.Kill(victim); err != nil {
					t.Error(err)
				}
			},
			8: func() {
				if err := c.Restart(victim); err != nil {
					t.Error(err)
				}
				if err := c.Repair(); err != nil {
					t.Error(err)
				}
			},
		})
		sameSilver(t, "leader killed mid-drain", got, gm, want, wm)
		if victim == "" || c.Health().Failovers == failovers || len(leaders) == 0 {
			t.Fatalf("the drain never read past the failover (victim %q, %d fetches after it)", victim, len(leaders))
		}
		if h := c.Health(); h.Status != "ok" {
			t.Fatalf("cluster after restart + repair: %+v", h)
		}
	})
}

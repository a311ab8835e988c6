package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"odakit/internal/cluster"
	"odakit/internal/faults"
	"odakit/internal/plane"
	"odakit/internal/resilience"
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
	return f, c
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
		recs, err := s.FetchNoWait(topic, p, off, 1024)
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
// with their sub-batch staged), publishRetry resumes with only the
// failed remainder, and every bronze record must end up committed
// exactly once, in the order a fault-free single-node facility holds it.
// ODA_CHAOS_SEED replays the schedule.
func TestChaosIngestClusterPlaneExactlyOnce(t *testing.T) {
	seed := chaosSeed()
	sources := []telemetry.Source{telemetry.SourcePowerTemp, telemetry.SourceGPU}
	ref := testFacility(t)
	if _, err := ref.IngestWindow(t0, t0.Add(time.Minute), sources...); err != nil {
		t.Fatal(err)
	}

	f, c := clusterPlaneFacility(t)
	inj := faults.New(seed)
	inj.Set(cluster.OpPublish, faults.Rates{Transient: 0.08})
	inj.Set(cluster.OpReplicate, faults.Rates{Transient: 0.08})
	inj.Install(c.Transport())
	stats, err := f.IngestWindow(t0, t0.Add(time.Minute), sources...)
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
		for p := 0; p < f.Opts.TopicPartitions; p++ {
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
	got, err := c.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !want.Equal(got) {
		t.Fatalf("seed %d: clustered lake answer (%d rows) differs from the reference (%d rows)", seed, got.Len(), want.Len())
	}
}

// TestSilverJobRefusesAttachedPlane: Silver jobs read through a
// stream.Consumer on the facility's own broker, which stays empty once a
// cluster is attached — building or draining one must say so instead of
// silently consuming nothing.
func TestSilverJobRefusesAttachedPlane(t *testing.T) {
	f, _ := clusterPlaneFacility(t)
	cfg := SilverPipelineConfig{Source: telemetry.SourcePowerTemp}
	_, err := f.NewSilverJob(cfg)
	if err == nil {
		t.Fatal("NewSilverJob on a cluster plane succeeded")
	}
	for _, want := range []string{"silver", "local broker", "*cluster.Cluster"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if _, derr := f.DrainSilver(context.Background(), cfg); derr == nil || derr.Error() != err.Error() {
		t.Fatalf("DrainSilver error = %v, want %v", derr, err)
	}
	// Back on its own plane the facility builds the job again.
	if err := f.AttachPlane(f.Broker, f.Lake); err != nil {
		t.Fatal(err)
	}
	if _, err := f.NewSilverJob(cfg); err != nil {
		t.Fatalf("NewSilverJob on the local plane: %v", err)
	}
}

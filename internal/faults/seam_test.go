package faults_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"odakit/internal/cluster"
	"odakit/internal/faults"
	"odakit/internal/objstore"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
	"odakit/internal/wal"
)

// A rig is one fresh fault surface: its guarded calls by op, and a
// snapshot of what a caller can observe of it.
type rig struct {
	surface interface {
		SetFaultHook(func(op, target string) error)
	}
	calls map[string]func() error
	state func() string
}

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func obs(component string) []schema.Observation {
	return []schema.Observation{{Ts: t0, System: "sys", Source: "power_temp", Component: component, Metric: "node_power_w", Value: 1}}
}

var lakeQuery = tsdb.Query{From: t0, To: t0.Add(time.Hour), GroupBy: []string{tsdb.DimComponent}, Agg: tsdb.AggCount}

func brokerRig(t *testing.T) rig {
	b := stream.NewBroker()
	if err := b.CreateTopic("t", stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	msg := []stream.Message{{Value: []byte("r")}}
	if _, err := b.PublishBatch("t", msg); err != nil {
		t.Fatal(err)
	}
	return rig{surface: b, calls: map[string]func() error{
		faults.OpBrokerPublish: func() error { _, err := b.PublishBatch("t", msg); return err },
		faults.OpBrokerFetch:   func() error { _, err := b.FetchNoWait("t", 0, 0, 10); return err },
	}, state: func() string {
		end, err := b.EndOffset("t", 0)
		return fmt.Sprint(end, err)
	}}
}

func storeRig(t *testing.T) rig {
	s, err := objstore.New("")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b", "k", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	return rig{surface: s, calls: map[string]func() error{
		faults.OpStorePut:    func() error { _, err := s.Put("b", "k", []byte("v1")); return err },
		faults.OpStoreAppend: func() error { _, err := s.Append("b", "k", []byte("+")); return err },
		faults.OpStoreGet:    func() error { _, _, err := s.Get("b", "k"); return err },
		faults.OpStoreHead:   func() error { _, err := s.Head("b", "k"); return err },
	}, state: func() string {
		data, info, err := s.Get("b", "k")
		st, _ := s.Stats("b")
		return fmt.Sprintf("%q %d %v %+v", data, info.Version, err, st)
	}}
}

func lakeRig(*testing.T) rig {
	db := tsdb.New(tsdb.Options{})
	return rig{surface: db, calls: map[string]func() error{
		faults.OpLakeInsert: func() error { return db.InsertBatch(obs("n1")) },
	}, state: func() string {
		f, err := db.Run(lakeQuery)
		return fmt.Sprintf("%+v %d %v", db.Stats(), f.Len(), err)
	}}
}

func walRig(t *testing.T) rig {
	w, err := wal.Open(wal.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	l, err := w.Log("p0")
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Entry{Kind: wal.KindRecord, Offset: 0, Value: []byte("r")}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	return rig{surface: w, calls: map[string]func() error{
		faults.OpWALOpen:   func() error { _, err := w.Log("p1"); return err },
		faults.OpWALAppend: func() error { return l.Append(rec) },
		faults.OpWALFsync:  func() error { return l.Sync() },
		faults.OpWALReplay: func() error { _, err := l.Replay(func(wal.Entry) error { return nil }); return err },
	}, state: func() string {
		ents, err := os.ReadDir(w.Dir())
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return fmt.Sprintf("%+v %v %v", w.Stats(), names, err)
	}}
}

// newCluster is a memory-only 3-node RF=2 cluster whose one-partition
// topic holds one committed record.
func newCluster(t *testing.T) (*cluster.Cluster, []stream.Message) {
	c, err := cluster.New([]string{"n1", "n2", "n3"}, cluster.Config{RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("t", stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	msg := []stream.Message{{Value: []byte("r")}}
	if _, err := c.PublishBatch("t", msg); err != nil {
		t.Fatal(err)
	}
	return c, msg
}

// lakeRows is how many rows the lake query answers, or its error.
func lakeRows(f *schema.Frame, _ tsdb.QueryStats, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprint(f.Len(), " rows")
}

// clusterRig's lake is empty, and its state is what a reader sees once
// Repair has run: a replica that failed an insert leaves the serving set,
// and Repair finds it holds nothing, because nothing reached it.
func clusterRig(t *testing.T) rig {
	c, msg := newCluster(t)
	return rig{surface: c.Transport(), calls: map[string]func() error{
		faults.OpClusterPublish:   func() error { _, err := c.PublishBatch("t", msg); return err },
		faults.OpClusterReplicate: func() error { _, err := c.PublishBatch("t", msg); return err },
		faults.OpClusterFetch:     func() error { _, err := c.AppendRecords(nil, "t", 0, 0, 10); return err },
		faults.OpClusterInsert:    func() error { return c.InsertBatch(obs("n1")) },
		faults.OpClusterQuery:     func() error { _, _, err := c.RunWithStats(lakeQuery); return err },
	}, state: func() string {
		rerr := c.Repair()
		end, err := c.EndOffset("t", 0)
		recs, ferr := c.AppendRecords(nil, "t", 0, 0, 10)
		return fmt.Sprint(rerr, end, err, len(recs), ferr, lakeRows(c.RunWithStats(lakeQuery)))
	}}
}

// resyncRig's lake holds rows in every stripe and n3 is dead, so Repair
// copies each stripe n3 held onto a live node.
func resyncRig(t *testing.T) rig {
	c, _ := newCluster(t)
	for i := 0; i < 16*tsdb.NumStripes; i++ {
		if err := c.InsertBatch(obs(fmt.Sprintf("node%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Kill("n3"); err != nil {
		t.Fatal(err)
	}
	return rig{surface: c.Transport(), calls: map[string]func() error{
		faults.OpClusterResync: c.Repair,
	}, state: func() string {
		h := c.Health()
		return fmt.Sprintf("%s; stripes: %d under-replicated, %d down", lakeRows(c.RunWithStats(lakeQuery)),
			h.UnderReplicatedStripes, h.DownStripes)
	}}
}

// TestEverySurfaceFiresEveryOp arms each of the five fault surfaces with a
// hook that rejects one op and checks, for every op constant, that the
// hook's error comes back, that the surface's observable state is what it
// was, and that SetFaultHook(nil) disarms the hook.
func TestEverySurfaceFiresEveryOp(t *testing.T) {
	for _, tc := range []struct {
		op  string
		rig func(*testing.T) rig
	}{
		{faults.OpBrokerFetch, brokerRig},
		{faults.OpBrokerPublish, brokerRig},
		{faults.OpStorePut, storeRig},
		{faults.OpStoreAppend, storeRig},
		{faults.OpStoreGet, storeRig},
		{faults.OpStoreHead, storeRig},
		{faults.OpLakeInsert, lakeRig},
		{faults.OpWALOpen, walRig},
		{faults.OpWALAppend, walRig},
		{faults.OpWALFsync, walRig},
		{faults.OpWALReplay, walRig},
		{faults.OpClusterReplicate, clusterRig},
		{faults.OpClusterFetch, clusterRig},
		{faults.OpClusterPublish, clusterRig},
		{faults.OpClusterInsert, clusterRig},
		{faults.OpClusterQuery, clusterRig},
		{faults.OpClusterResync, resyncRig},
	} {
		t.Run(tc.op, func(t *testing.T) {
			r := tc.rig(t)
			call := r.calls[tc.op]
			before := r.state()
			reject := errors.New("rejected " + tc.op)
			r.surface.SetFaultHook(func(op, _ string) error {
				if op == tc.op {
					return reject
				}
				return nil
			})
			// The error may come back wrapped or as a cause in the message.
			if err := call(); err == nil || !strings.Contains(err.Error(), reject.Error()) {
				t.Fatalf("armed: %v, want the hook's %q", err, reject)
			}
			r.surface.SetFaultHook(nil)
			if after := r.state(); after != before {
				t.Fatalf("the rejected call changed the surface:\n got %s\nwant %s", after, before)
			}
			if err := call(); err != nil {
				t.Fatalf("disarmed: %v", err)
			}
		})
	}
}

package sproc

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odakit/internal/cq"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// TestRestoreFromPR17FormatCheckpoint: the Silver job's checkpoint files
// from before its windows were a pump's view are refused at the path the
// pump now checkpoints to — the file written before the windows were a CQ
// view (no format field: a 15 s window job over one series, offsets
// [17 11 6 6], one window open) and the format-1 file of the streaming
// job that folded into a view of its own (offsets [0 25], one window
// open). Each is refused by name and format, with how to recover, and
// left as it was found.
func TestRestoreFromPR17FormatCheckpoint(t *testing.T) {
	for _, tc := range []struct{ fixture, format string }{
		{"pr17_format.ckpt.json", "format 0"},
		{"format1_job.ckpt.json", "format 1"},
	} {
		fixture, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "silver.ckpt.json")
		if err := os.WriteFile(path, fixture, 0o644); err != nil {
			t.Fatal(err)
		}
		eng := cq.NewEngine(cq.Config{RollupInterval: avgWindow.window, SegmentDuration: avgWindow.window})
		_, err = cq.NewPumpSource(eng, newBrokerWithTopic(t), cq.PumpConfig{Name: "silver", Topics: []string{"bronze"}, CheckpointDir: dir})
		if err == nil {
			t.Fatalf("the %s checkpoint was restored", tc.format)
		}
		for _, want := range []string{path, tc.format, "delete it"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("refusal %q does not say %q", err, want)
			}
		}
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, fixture) {
			t.Fatalf("the refused %s file changed (err %v)", tc.format, err)
		}
	}
}

// TestNonFiniteStateCheckpoints: one ±Inf observation in an open window
// (and the NaN sum a +Inf and a -Inf leave) must checkpoint, for every
// aggregation a window can answer: a pump that cannot marshal its state
// fails every later step, restarting into the same record for ever. The
// pump is killed mid-window, rebuilt from the file, and must drain to the
// frames of an uninterrupted run.
func TestNonFiniteStateCheckpoints(t *testing.T) {
	publish := func(b *stream.Broker, from, to int) {
		for s := from; s < to; s++ {
			v0, v1 := float64(s), float64(100+s)
			switch s {
			case 3:
				v0, v1 = math.Inf(1), math.Inf(-1)
			case 7:
				v0 = math.Inf(-1) // node0's sum is now Inf - Inf
			}
			publishObs(t, b, s, "node0", "power", v0)
			publishObs(t, b, s, "node1", "power", v1)
		}
	}
	ctx := context.Background()
	got := map[tsdb.AggKind][]schema.Row{}
	for _, agg := range []tsdb.AggKind{tsdb.AggSum, tsdb.AggMin, tsdb.AggMax, tsdb.AggLast} {
		w := windowSpec{window: time.Minute, agg: agg, groupBy: []string{tsdb.DimComponent}}
		bRef := newBrokerWithTopic(t)
		publish(bRef, 0, 30)
		var ref collectSink
		refPump, _ := windowPump(t, bRef, "ref", "", w, ref.sink)
		if err := refPump.Drain(ctx); err != nil {
			t.Fatal(err)
		}

		b, dir := newBrokerWithTopic(t), t.TempDir()
		publish(b, 0, 10)
		var sink collectSink
		first, _ := windowPump(t, b, "inf", dir, w, sink.sink)
		if err := first.Step(ctx); err != nil {
			t.Fatalf("%v: pass over ±Inf values: %v", agg, err)
		}
		if len(sink.frames) != 0 {
			t.Fatal("the minute window closed before the kill: nothing non-finite was checkpointed")
		}
		publish(b, 10, 30)
		second, _ := windowPump(t, b, "inf", dir, w, sink.sink)
		if err := second.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		if m := second.Stats(); !m.Recovered || m.Polled != 40 {
			t.Fatalf("%v: second incarnation: recovered=%v, read %d records; want a restore and only the 40 unread", agg, m.Recovered, m.Polled)
		}
		got[agg] = sink.rows()
		want := ref.rows()
		if len(got[agg]) != 2 || len(want) != 2 {
			t.Fatalf("%v: restored run emitted %d rows, uninterrupted %d, want 2", agg, len(got[agg]), len(want))
		}
		for i := range want {
			if !got[agg][i].Equal(want[i]) {
				t.Fatalf("%v: row %d after the restore: %v, uninterrupted %v", agg, i, got[agg][i], want[i])
			}
		}
	}
	if sum, min := got[tsdb.AggSum][0][2].FloatVal(), got[tsdb.AggMin][1][2].FloatVal(); !math.IsNaN(sum) || !math.IsInf(min, -1) {
		t.Fatalf("fixture lost its point: node0 sum %v (want NaN), node1 min %v (want -Inf)", sum, min)
	}
}

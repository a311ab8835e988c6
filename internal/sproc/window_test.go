package sproc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"odakit/internal/cq"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// The Silver shape end to end: a cq pump folds a Bronze topic into a
// tumbling view whose close sink turns each closed window into one frame
// (window, group columns, v) for the operators of this package. These
// tests hold the watermark, lateness, checkpoint and sink contract the
// Silver job runs on.

func newBrokerWithTopic(t testing.TB) *stream.Broker {
	t.Helper()
	b := stream.NewBroker()
	if err := b.CreateTopic("bronze", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	if tt, ok := t.(*testing.T); ok {
		tt.Cleanup(b.Close)
	}
	return b
}

func publishObs(t testing.TB, b *stream.Broker, sec int, node, metric string, v float64) {
	t.Helper()
	o := schema.Observation{
		Ts: tbase.Add(time.Duration(sec) * time.Second), System: "compass",
		Source: "power_temp", Component: node, Metric: metric, Value: v,
	}
	if _, err := b.PublishBatch("bronze", []stream.Message{{Key: []byte(node), Value: schema.EncodeRow(o.Row())}}); err != nil {
		t.Fatal(err)
	}
}

// collectSink gathers sunk frames thread-safely.
type collectSink struct {
	mu     sync.Mutex
	frames []*schema.Frame
}

func (c *collectSink) sink(f *schema.Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, f)
	return nil
}

func (c *collectSink) rows() []schema.Row {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []schema.Row
	for _, f := range c.frames {
		out = append(out, f.Rows()...)
	}
	return out
}

// windowSpec is a tumbling view of agg over groupBy, filtered by filters,
// whose windows close lateness after the watermark passes their end.
type windowSpec struct {
	window, lateness time.Duration
	agg              tsdb.AggKind
	filters          map[string][]string
	groupBy          []string
}

// windowPump registers w's view on an engine of its own, its chunks and
// so the windows it closes w.window wide, with a close sink that hands
// sink each closed window as one frame (window, group columns, v); and
// builds a pump named name over the "bronze" topic of s into it,
// checkpointing in dir when dir is not "".
func windowPump(t testing.TB, s plane.Stream, name, dir string, w windowSpec, sink func(*schema.Frame) error) (*cq.Pump, *cq.View) {
	t.Helper()
	eng := cq.NewEngine(cq.Config{RollupInterval: w.window, SegmentDuration: w.window})
	v, err := eng.Register(cq.Spec{
		Filters: w.filters, GroupBy: w.groupBy, Agg: w.agg, Granularity: w.window, Window: w.window, Kind: cq.WindowTumbling,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := windowSchema(w.groupBy)
	v.SetSink(w.lateness, func(_ context.Context, groups []tsdb.Group) error {
		for start := 0; start < len(groups); {
			f := schema.NewFrame(out)
			end := start
			for ; end < len(groups) && groups[end].Key.Ts == groups[start].Key.Ts; end++ {
				g := &groups[end]
				row := schema.Row{schema.TimeNanos(g.Key.Ts)}
				for _, d := range g.Key.Dims[:len(w.groupBy)] {
					row = append(row, schema.Str(d))
				}
				if err := f.AppendRow(append(row, schema.Float(g.Cell.Value(w.agg)))); err != nil {
					return err
				}
			}
			if err := sink(f); err != nil {
				return err
			}
			start = end
		}
		return nil
	})
	p, err := cq.NewPumpSource(eng, s, cq.PumpConfig{Name: name, Topics: []string{"bronze"}, BatchSize: 4096, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return p, v
}

// windowSchema is a closed window's frame: its start, the group columns,
// then the value.
func windowSchema(groupBy []string) *schema.Schema {
	fields := []schema.Field{{Name: "window", Kind: schema.KindTime}}
	for _, d := range groupBy {
		fields = append(fields, schema.Field{Name: d, Kind: schema.KindString})
	}
	return schema.New(append(fields, schema.Field{Name: "v", Kind: schema.KindFloat})...)
}

// countWindow counts records per component over 15 s windows.
var countWindow = windowSpec{window: 15 * time.Second, agg: tsdb.AggCount, groupBy: []string{tsdb.DimComponent}}

// avgWindow averages per (component, metric) over 15 s windows that wait
// 5 s for late records.
var avgWindow = windowSpec{window: 15 * time.Second, lateness: 5 * time.Second, agg: tsdb.AggAvg,
	groupBy: []string{tsdb.DimComponent, tsdb.DimMetric}}

// TestPassthroughJob: every record reaches the sink, counted in its
// window.
func TestPassthroughJob(t *testing.T) {
	b := newBrokerWithTopic(t)
	for i := 0; i < 10; i++ {
		publishObs(t, b, i, "node0", "power", float64(i))
	}
	var sink collectSink
	p, _ := windowPump(t, b, "pass", "", countWindow, sink.sink)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rows := sink.rows(); len(rows) != 1 || rows[0][2].FloatVal() != 10 || len(sink.frames) != 1 {
		t.Fatalf("sunk %v, want one window counting 10 records", rows)
	}
	if m := p.Stats(); m.Polled != 10 || m.Bad != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestWhereFilterJob: the view's filters decide which records a window
// holds.
func TestWhereFilterJob(t *testing.T) {
	b := newBrokerWithTopic(t)
	for i := 0; i < 10; i++ {
		metric := "power"
		if i%2 == 1 {
			metric = "temp"
		}
		publishObs(t, b, i, "node0", metric, float64(i))
	}
	var sink collectSink
	w := windowSpec{window: 15 * time.Second, agg: tsdb.AggCount, filters: map[string][]string{tsdb.DimMetric: {"power"}},
		groupBy: []string{tsdb.DimComponent, tsdb.DimMetric}}
	p, _ := windowPump(t, b, "filt", "", w, sink.sink)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rows := sink.rows(); len(rows) != 1 || rows[0][2].StrVal() != "power" || rows[0][3].FloatVal() != 5 {
		t.Fatalf("filtered rows = %v, want one window of the 5 power records", rows)
	}
}

// TestMalformedRecordsCounted: an undecodable record, one of another
// schema and one without a timestamp are dead-lettered, and the window
// holds the one good record.
func TestMalformedRecordsCounted(t *testing.T) {
	b := newBrokerWithTopic(t)
	publishObs(t, b, 0, "node0", "power", 1)
	if _, err := b.PublishBatch("bronze", []stream.Message{{Value: []byte("garbage!!")}}); err != nil {
		t.Fatal(err)
	}
	// Wrong schema (event instead of observation).
	ev := schema.Event{Ts: tbase, System: "s", Source: "syslog", Host: "h", Severity: "info", Message: "m"}
	if _, err := b.PublishBatch("bronze", []stream.Message{{Value: schema.EncodeRow(ev.Row())}}); err != nil {
		t.Fatal(err)
	}
	noTs := schema.Observation{System: "compass", Source: "power_temp", Component: "node0", Metric: "power", Value: 2}.Row()
	noTs[0] = schema.Null
	if _, err := b.PublishBatch("bronze", []stream.Message{{Value: schema.EncodeRow(noTs)}}); err != nil {
		t.Fatal(err)
	}
	var sink collectSink
	p, _ := windowPump(t, b, "mal", "", countWindow, sink.sink)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := p.Stats(); m.Polled != 4 || m.Bad != 3 || len(sink.rows()) != 1 {
		t.Fatalf("metrics = %+v rows=%d", m, len(sink.rows()))
	}
}

func TestWindowedAggregation(t *testing.T) {
	b := newBrokerWithTopic(t)
	// 60 seconds of 1 Hz data for two nodes: 4 windows of 15 samples each.
	for s := 0; s < 60; s++ {
		publishObs(t, b, s, "node0", "power", 100)
		publishObs(t, b, s, "node1", "power", 200+float64(s%15))
	}
	var sink collectSink
	p, _ := windowPump(t, b, "win", "", avgWindow, sink.sink)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := sink.rows()
	if len(rows) != 8 || len(sink.frames) != 4 { // 4 windows × 2 nodes
		t.Fatalf("%d window rows in %d frames, want 8 in 4", len(rows), len(sink.frames))
	}
	for _, r := range rows {
		// window, component, metric, avg
		if r[2].StrVal() != "power" {
			t.Fatalf("row = %v", r)
		}
		want := 100.0
		if r[1].StrVal() == "node1" {
			want = 207 // the mean of 200..214
		}
		if r[3].FloatVal() != want {
			t.Fatalf("avg = %v, want %v", r[3], want)
		}
		if ws := r[0].TimeVal(); ws.Second()%15 != 0 {
			t.Fatalf("window start not aligned: %v", ws)
		}
	}
}

func TestWatermarkClosesWindowsInOrder(t *testing.T) {
	b := newBrokerWithTopic(t)
	var sink collectSink
	p, _ := windowPump(t, b, "wm", "", avgWindow, sink.sink)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()

	// First window's data, then an event far enough ahead to pass the
	// watermark (window end 15s + lateness 5s => need event time > 20s).
	publishObs(t, b, 3, "node0", "power", 100)
	publishObs(t, b, 9, "node0", "power", 300)
	publishObs(t, b, 27, "node0", "power", 500)

	deadline := time.After(5 * time.Second)
	for len(sink.rows()) == 0 {
		select {
		case <-deadline:
			t.Fatal("first window never closed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	rows := sink.rows()
	if len(rows) != 1 || rows[0][3].FloatVal() != 200 {
		t.Fatalf("closed window rows = %v", rows)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
}

func TestLateRecordsDropped(t *testing.T) {
	b := newBrokerWithTopic(t)
	var sink collectSink
	p, v := windowPump(t, b, "late", "", avgWindow, sink.sink)
	publishObs(t, b, 3, "node0", "power", 100)
	publishObs(t, b, 40, "node0", "power", 100) // advances watermark to 35s: window [0,15) closes
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	deadline := time.After(5 * time.Second)
	for len(sink.rows()) == 0 {
		select {
		case <-deadline:
			t.Fatal("window never closed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	publishObs(t, b, 5, "node0", "power", 999) // late arrival for closed window
	for v.Stats().Late == 0 {
		select {
		case <-deadline:
			t.Fatal("late record never observed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
	if got := v.Stats().Late; got != 1 {
		t.Fatalf("late = %d, want 1", got)
	}
}

func TestMapBatchPivot(t *testing.T) {
	b := newBrokerWithTopic(t)
	for s := 0; s < 15; s++ {
		publishObs(t, b, s, "node0", "power", 100)
		publishObs(t, b, s, "node0", "temp", 40)
	}
	var sink collectSink
	w := avgWindow
	w.lateness = 0
	p, _ := windowPump(t, b, "piv", "", w, func(f *schema.Frame) error {
		wide, err := Pivot(f, []string{"window", "component"}, "metric", "v", AggAvg)
		if err != nil {
			return err
		}
		return sink.sink(wide)
	})
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := sink.rows()
	if len(rows) != 1 {
		t.Fatalf("wide rows = %d, want 1", len(rows))
	}
	// window, component, power, temp
	if rows[0][2].FloatVal() != 100 || rows[0][3].FloatVal() != 40 {
		t.Fatalf("wide row = %v", rows[0])
	}
}

func TestCheckpointRecoveryResumesExactly(t *testing.T) {
	b := newBrokerWithTopic(t)
	dir := t.TempDir()
	for s := 0; s < 30; s++ {
		publishObs(t, b, s, "node0", "power", float64(s))
	}
	// First incarnation drains what exists, checkpoints, "crashes".
	var sink1 collectSink
	p1, _ := windowPump(t, b, "rec", dir, avgWindow, sink1.sink)
	if err := p1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sink1.rows()) == 0 {
		t.Fatal("first incarnation emitted nothing")
	}

	// More data arrives while "down".
	for s := 30; s < 60; s++ {
		publishObs(t, b, s, "node0", "power", float64(s))
	}

	// Second incarnation restores and must process only the new records.
	var sink2 collectSink
	p2, _ := windowPump(t, b, "rec", dir, avgWindow, sink2.sink)
	if err := p2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m2 := p2.Stats()
	if !m2.Recovered {
		t.Fatal("second incarnation did not restore a checkpoint")
	}
	if m2.Polled != 30 {
		t.Fatalf("second incarnation read %d records, want 30 (no reprocessing)", m2.Polled)
	}
	// Drain force-closed all windows in each incarnation, so combined
	// output must equal a single uninterrupted run.
	b2 := newBrokerWithTopic(t)
	for s := 0; s < 60; s++ {
		publishObs(t, b2, s, "node0", "power", float64(s))
	}
	var ref collectSink
	pr, _ := windowPump(t, b2, "ref", "", avgWindow, ref.sink)
	if err := pr.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	combined := append(sink1.rows(), sink2.rows()...)
	refRows := ref.rows()
	if len(combined) != len(refRows) {
		t.Fatalf("recovered output %d rows, uninterrupted %d", len(combined), len(refRows))
	}
	for i := range refRows {
		if !combined[i].Equal(refRows[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, combined[i], refRows[i])
		}
	}
}

func TestCheckpointPreservesOpenWindowState(t *testing.T) {
	b := newBrokerWithTopic(t)
	dir := t.TempDir()
	// Only 7 seconds of data: window [0,15) stays open.
	for s := 0; s < 7; s++ {
		publishObs(t, b, s, "node0", "power", 100)
	}
	var sink1 collectSink
	p1, _ := windowPump(t, b, "open", dir, countWindow, sink1.sink)
	// Run briefly: absorb data without force flush, then stop.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := p1.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
	if len(sink1.rows()) != 0 {
		t.Fatal("window should still be open")
	}

	// Publish the rest after the crash; the recovered pump must combine
	// pre- and post-crash records into one correct window.
	for s := 7; s < 15; s++ {
		publishObs(t, b, s, "node0", "power", 100)
	}
	var sink2 collectSink
	p2, _ := windowPump(t, b, "open", dir, countWindow, sink2.sink)
	if err := p2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := sink2.rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0][2].FloatVal() != 15 {
		t.Fatalf("recovered window count = %v, want 15 (7 pre-crash + 8 post)", rows[0][2])
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	b := newBrokerWithTopic(t)
	publishObs(t, b, 0, "node0", "power", 1)
	boom := errors.New("downstream full")
	p, _ := windowPump(t, b, "err", "", windowSpec{window: 15 * time.Second, agg: tsdb.AggAvg}, func(*schema.Frame) error { return boom })
	if err := p.Drain(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
}

// downPartition is a broker whose partition `bad` refuses every fetch
// with a transient error while down is set, calling refused first. It
// notes the last offset it served of each partition.
type downPartition struct {
	*stream.Broker
	bad     int
	down    bool
	refused func()
	served  [2]int64
}

func (s *downPartition) AppendRecords(dst []stream.Record, topic string, part int, off int64, max int) ([]stream.Record, error) {
	if s.down && part == s.bad {
		if s.refused != nil {
			s.refused()
		}
		return dst, resilience.MarkTransient(errors.New("leader election in progress"))
	}
	n := len(dst)
	dst, err := s.Broker.AppendRecords(dst, topic, part, off, max)
	if len(dst) > n {
		s.served[part] = dst[len(dst)-1].Offset
	}
	return dst, err
}

// TestCancelMidPassLosesNothing: partition 0's page is already applied
// when partition 1 fails transiently and the pump is cancelled during the
// retry backoff. The pass never reached its checkpoint, so a restarted
// pump reads both partitions again into the restored state, and every
// record is sunk exactly once.
func TestCancelMidPassLosesNothing(t *testing.T) {
	const n = 40
	b := newBrokerWithTopic(t)
	for i := 0; i < n; i++ {
		o := schema.Observation{Ts: tbase.Add(time.Duration(i) * time.Second), System: "compass",
			Source: "power_temp", Component: "node0", Metric: "power", Value: float64(i)}
		if _, err := b.PublishBatchTo("bronze", i%2, []stream.Message{{Value: schema.EncodeRow(o.Row())}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &downPartition{Broker: b, bad: 1, down: true, refused: cancel}
	dir := t.TempDir()
	// One-second windows: each record is the one record of its window.
	w := windowSpec{window: time.Second, agg: tsdb.AggCount}
	var sink1, sink2 collectSink
	p1, _ := windowPump(t, src, "stop", dir, w, sink1.sink)
	if err := p1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
	if m := p1.Stats(); m.Retries != 1 || m.Polled != n/2 || m.Checkpoints != 0 {
		t.Fatalf("first incarnation: %+v, want one retry, partition 0's page read and no checkpoint", m)
	}

	src.down = false
	p2, _ := windowPump(t, src, "stop", dir, w, sink2.sink)
	if err := p2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]float64)
	for _, r := range append(sink1.rows(), sink2.rows()...) {
		seen[r[0].UnixNanos()] += r[1].FloatVal()
	}
	for i := 0; i < n; i++ {
		if c := seen[tbase.Add(time.Duration(i)*time.Second).UnixNano()]; c != 1 {
			t.Fatalf("record %d sunk %v times across the stop and the restart, want exactly once", i, c)
		}
	}
}

// TestLaggingPartitionHoldsWindowsOpen: fetch faults hold partition 1
// back while partition 0 reads on, far past the lateness. The watermark
// is the minimum over partitions, so no window partition 1 still feeds
// closes, and the drain sinks every record once, none of them late.
func TestLaggingPartitionHoldsWindowsOpen(t *testing.T) {
	const (
		lateness = 5 * time.Second
		page     = 4096 // the pump's BatchSize
	)
	b := newBrokerWithTopic(t)
	n := 0
	publish := func(part int, from, to int) {
		for i := from; i < to; i++ {
			// One record every 100 ms: a page spans ~410 s.
			o := schema.Observation{Ts: tbase.Add(time.Duration(i) * 100 * time.Millisecond), System: "compass",
				Source: "power_temp", Component: fmt.Sprintf("node%d", part), Metric: "power", Value: 1}
			if _, err := b.PublishBatchTo("bronze", part, []stream.Message{{Value: schema.EncodeRow(o.Row())}}); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	publish(0, 0, 10)
	publish(1, 0, 10)
	src := &downPartition{Broker: b, bad: 1}
	refusals := 0
	src.refused = func() {
		if refusals++; refusals == 3 {
			src.down = false
		}
	}
	var (
		sink   collectSink
		maxLag time.Duration
	)
	w := windowSpec{window: 15 * time.Second, lateness: lateness, agg: tsdb.AggCount, groupBy: []string{tsdb.DimComponent}}
	p, v := windowPump(t, src, "lag", "", w, func(f *schema.Frame) error {
		// Offset i of a partition holds event time i × 100 ms.
		maxLag = max(maxLag, time.Duration(src.served[0]-src.served[1])*100*time.Millisecond)
		return sink.sink(f)
	})
	ctx := context.Background()
	if err := p.Step(ctx); err != nil { // both partitions carry data
		t.Fatal(err)
	}
	publish(0, 10, 10+3*page)
	publish(1, 10, 10+3*page)
	src.down = true
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if refusals < 3 || maxLag <= lateness {
		t.Fatalf("%d refusals, partition 0 at most %v ahead of partition 1 when a window closed: no lag past the lateness", refusals, maxLag)
	}
	type window struct {
		start     int64
		component string
	}
	sunk := map[window]bool{}
	total := 0.0
	for _, r := range sink.rows() { // window, component, count
		key := window{r[0].UnixNanos(), r[1].StrVal()}
		if sunk[key] {
			t.Fatalf("window %v sunk twice", r)
		}
		sunk[key] = true
		total += r[2].FloatVal()
	}
	if late := v.Stats().Late; int(total) != n || late != 0 {
		t.Fatalf("sank %v of %d records, %d late", total, n, late)
	}
}

// TestViewResidencyBoundedByOpenWindows: draining an hour of 15 s windows
// keeps in the view, and in the pump's checkpoint, only the windows still
// open — its chunks are the windows, and a closed one leaves — not the
// hour a default SegmentDuration spans.
func TestViewResidencyBoundedByOpenWindows(t *testing.T) {
	const comps = 16
	b := newBrokerWithTopic(t)
	dir := t.TempDir()
	var sink collectSink
	w := windowSpec{window: 15 * time.Second, lateness: 5 * time.Second, agg: tsdb.AggAvg, groupBy: []string{tsdb.DimComponent}}
	p, v := windowPump(t, b, "resident", dir, w, sink.sink)
	var maxCells int64
	var firstCkpt, maxCkpt int64
	for sec := 0; sec < 3600; sec += 30 {
		for s := sec; s < sec+30; s++ {
			for c := 0; c < comps; c++ {
				publishObs(t, b, s, fmt.Sprintf("node%02d", c), "power", float64(s))
			}
		}
		if err := p.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		maxCells = max(maxCells, v.Stats().Cells)
		st, err := os.Stat(filepath.Join(dir, "resident.ckpt.json"))
		if err != nil {
			t.Fatal(err)
		}
		if firstCkpt == 0 {
			firstCkpt = st.Size()
		}
		maxCkpt = max(maxCkpt, st.Size())
	}
	// After a step the watermark sits at the end of a 30 s chunk: the
	// window holding it and the one it waits on for lateness stay open.
	if windows := len(sink.frames); windows < 230 || maxCells > 2*comps || maxCkpt > 2*firstCkpt {
		t.Fatalf("%d windows sunk; at most %d cells resident (want <= %d) and a %d-byte checkpoint (first %d)",
			windows, maxCells, 2*comps, maxCkpt, firstCkpt)
	}
}

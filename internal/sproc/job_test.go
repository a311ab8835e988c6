package sproc

import (
	"context"
	"errors"
	"fmt"
	"os"
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

// tumblingView registers, on an engine of its own, a tumbling view of agg
// over groupBy whose chunks, and so the windows a job closes, are window
// wide.
func tumblingView(t testing.TB, window time.Duration, agg tsdb.AggKind, filters map[string][]string, groupBy ...string) *cq.View {
	t.Helper()
	v, err := cq.NewEngine(cq.Config{RollupInterval: window, SegmentDuration: window}).Register(cq.Spec{
		Filters: filters, GroupBy: groupBy, Agg: agg, Granularity: window, Window: window, Kind: cq.WindowTumbling,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// viewJob builds a job over a fresh view; cfg names the job and its topic.
func viewJob(t testing.TB, s plane.Stream, cfg JobConfig, v *cq.View, sink func(*schema.Frame) error) *Job {
	t.Helper()
	cfg.View = v
	j, err := NewJob(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j.To(sink)
}

// TestPassthroughJob: every record reaches the sink, counted in its
// window.
func TestPassthroughJob(t *testing.T) {
	b := newBrokerWithTopic(t)
	for i := 0; i < 10; i++ {
		publishObs(t, b, i, "node0", "power", float64(i))
	}
	var sink collectSink
	j := viewJob(t, b, JobConfig{Name: "pass", Topic: "bronze"}, tumblingView(t, 15*time.Second, tsdb.AggCount, nil, tsdb.DimComponent), sink.sink)
	if err := j.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rows := sink.rows(); len(rows) != 1 || rows[0][2].FloatVal() != 10 {
		t.Fatalf("sunk %v, want one window counting 10 records", rows)
	}
	m := j.Metrics()
	if m.RecordsIn != 10 || m.RowsOut != 1 || m.RecordsInvalid != 0 || m.WindowsEmitted != 1 {
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
	v := tumblingView(t, 15*time.Second, tsdb.AggCount, map[string][]string{tsdb.DimMetric: {"power"}}, tsdb.DimComponent, tsdb.DimMetric)
	if err := viewJob(t, b, JobConfig{Name: "filt", Topic: "bronze"}, v, sink.sink).Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rows := sink.rows(); len(rows) != 1 || rows[0][2].StrVal() != "power" || rows[0][3].FloatVal() != 5 {
		t.Fatalf("filtered rows = %v, want one window of the 5 power records", rows)
	}
}

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
	var sink collectSink
	j := viewJob(t, b, JobConfig{Name: "mal", Topic: "bronze"}, tumblingView(t, 15*time.Second, tsdb.AggCount, nil, tsdb.DimComponent), sink.sink)
	if err := j.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := j.Metrics()
	if m.RecordsIn != 3 || m.RecordsInvalid != 2 || len(sink.rows()) != 1 {
		t.Fatalf("metrics = %+v rows=%d", m, len(sink.rows()))
	}
}

// windowJob averages power per (component, metric) over 15 s windows that
// wait 5 s for late records.
func windowJob(t testing.TB, b *stream.Broker, name, dir string, sink func(*schema.Frame) error) *Job {
	v := tumblingView(t, 15*time.Second, tsdb.AggAvg, nil, tsdb.DimComponent, tsdb.DimMetric)
	return viewJob(t, b, JobConfig{Name: name, Topic: "bronze", CheckpointDir: dir, Lateness: 5 * time.Second}, v, sink)
}

func TestWindowedAggregation(t *testing.T) {
	b := newBrokerWithTopic(t)
	// 60 seconds of 1 Hz data for two nodes: 4 windows of 15 samples each.
	for s := 0; s < 60; s++ {
		publishObs(t, b, s, "node0", "power", 100)
		publishObs(t, b, s, "node1", "power", 200+float64(s%15))
	}
	var sink collectSink
	j := windowJob(t, b, "win", "", sink.sink)
	if err := j.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := sink.rows()
	if len(rows) != 8 { // 4 windows × 2 nodes
		t.Fatalf("window rows = %d, want 8", len(rows))
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
	if m := j.Metrics(); m.WindowsEmitted != 4 || m.RowsOut != 8 {
		t.Fatalf("metrics = %+v, want 4 windows of 2 rows", m)
	}
}

func TestWatermarkClosesWindowsInOrder(t *testing.T) {
	b := newBrokerWithTopic(t)
	var sink collectSink
	j := windowJob(t, b, "wm", "", sink.sink)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- j.Run(ctx) }()

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
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLateRecordsDropped(t *testing.T) {
	b := newBrokerWithTopic(t)
	var sink collectSink
	j := windowJob(t, b, "late", "", sink.sink)
	publishObs(t, b, 3, "node0", "power", 100)
	publishObs(t, b, 40, "node0", "power", 100) // advances watermark to 35s: window [0,15) closes
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- j.Run(ctx) }()
	deadline := time.After(5 * time.Second)
	for len(sink.rows()) == 0 {
		select {
		case <-deadline:
			t.Fatal("window never closed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	publishObs(t, b, 5, "node0", "power", 999) // late arrival for closed window
	for j.Metrics().RecordsLate == 0 {
		select {
		case <-deadline:
			t.Fatal("late record never observed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
	if got := j.Metrics().RecordsLate; got != 1 {
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
	v := tumblingView(t, 15*time.Second, tsdb.AggAvg, nil, tsdb.DimComponent, tsdb.DimMetric)
	j := viewJob(t, b, JobConfig{Name: "piv", Topic: "bronze"}, v, sink.sink)
	j.MapBatch(func(f *schema.Frame) (*schema.Frame, error) {
		return Pivot(f, []string{"window", "component"}, "metric", "v", AggAvg)
	})
	if err := j.Drain(context.Background()); err != nil {
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
	j1 := windowJob(t, b, "rec", dir, sink1.sink)
	if err := j1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	firstRows := len(sink1.rows())
	if firstRows == 0 {
		t.Fatal("first incarnation emitted nothing")
	}

	// More data arrives while "down".
	for s := 30; s < 60; s++ {
		publishObs(t, b, s, "node0", "power", float64(s))
	}

	// Second incarnation restores and must process only the new records.
	var sink2 collectSink
	j2 := windowJob(t, b, "rec", dir, sink2.sink)
	if err := j2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m2 := j2.Metrics()
	if !m2.Recovered {
		t.Fatal("second incarnation did not restore a checkpoint")
	}
	if m2.RecordsIn != 30 {
		t.Fatalf("second incarnation read %d records, want 30 (no reprocessing)", m2.RecordsIn)
	}
	// Drain force-closed all windows in each incarnation, so combined
	// output must equal a single uninterrupted run.
	b2 := newBrokerWithTopic(t)
	for s := 0; s < 60; s++ {
		publishObs(t, b2, s, "node0", "power", float64(s))
	}
	var ref collectSink
	jr := windowJob(t, b2, "ref", "", ref.sink)
	if err := jr.Drain(context.Background()); err != nil {
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
	countJob := func(sink func(*schema.Frame) error) *Job {
		v := tumblingView(t, 15*time.Second, tsdb.AggCount, nil, tsdb.DimComponent)
		return viewJob(t, b, JobConfig{Name: "open", Topic: "bronze", CheckpointDir: dir}, v, sink)
	}
	var sink1 collectSink
	j1 := countJob(sink1.sink)
	// Run briefly: absorb data without force flush, then stop.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := j1.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(sink1.rows()) != 0 {
		t.Fatal("window should still be open")
	}

	// Publish the rest after the crash; the recovered job must combine
	// pre- and post-crash records into one correct window.
	for s := 7; s < 15; s++ {
		publishObs(t, b, s, "node0", "power", 100)
	}
	var sink2 collectSink
	if err := countJob(sink2.sink).Drain(context.Background()); err != nil {
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

func TestJobConfigValidation(t *testing.T) {
	b := newBrokerWithTopic(t)
	v := tumblingView(t, 15*time.Second, tsdb.AggAvg, nil)
	if _, err := NewJob(b, JobConfig{Topic: "bronze", View: v}); !errors.Is(err, ErrPlan) {
		t.Fatal("missing name accepted")
	}
	if _, err := NewJob(b, JobConfig{Name: "x", Topic: "bronze"}); !errors.Is(err, ErrPlan) {
		t.Fatal("missing view accepted")
	}
	j, _ := NewJob(b, JobConfig{Name: "x", Topic: "bronze", View: v})
	if err := j.Drain(context.Background()); !errors.Is(err, ErrPlan) {
		t.Fatal("missing sink accepted")
	}
	j3, _ := NewJob(b, JobConfig{Name: "z", Topic: "ghost", View: v})
	j3.To(func(*schema.Frame) error { return nil })
	if err := j3.Drain(context.Background()); !errors.Is(err, stream.ErrNoTopic) {
		t.Fatalf("missing topic: %v", err)
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	b := newBrokerWithTopic(t)
	publishObs(t, b, 0, "node0", "power", 1)
	boom := errors.New("downstream full")
	j := viewJob(t, b, JobConfig{Name: "err", Topic: "bronze"}, tumblingView(t, 15*time.Second, tsdb.AggAvg, nil), func(*schema.Frame) error { return boom })
	if err := j.Drain(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
}

// BenchmarkWindowedThroughput drains 20 000 records over 4 partitions and
// 64 components through a job averaging each component over 15 s windows.
func BenchmarkWindowedThroughput(b *testing.B) {
	bk := stream.NewBroker()
	defer bk.Close()
	_ = bk.CreateTopic("bronze", stream.TopicConfig{Partitions: 4})
	const records = 20000
	for s := 0; s < records; s++ {
		o := schema.Observation{
			Ts: tbase.Add(time.Duration(s%600) * time.Second), System: "compass",
			Source: "power_temp", Component: fmt.Sprintf("node%03d", s%64),
			Metric: "power", Value: float64(s),
		}
		if _, err := bk.PublishBatch("bronze", []stream.Message{{Key: []byte(o.Component), Value: schema.EncodeRow(o.Row())}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := tumblingView(b, 15*time.Second, tsdb.AggAvg, nil, tsdb.DimComponent)
		j := viewJob(b, bk, JobConfig{Name: fmt.Sprintf("bench%d", i), Topic: "bronze"}, v, func(*schema.Frame) error { return nil })
		if err := j.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "records/op")
}

// downPartition is a broker whose partition `bad` refuses every fetch
// with a transient error while down is set.
type downPartition struct {
	*stream.Broker
	bad  int
	down bool
}

func (s *downPartition) AppendRecords(dst []stream.Record, topic string, part int, off int64, max int) ([]stream.Record, error) {
	if s.down && part == s.bad {
		return dst, resilience.MarkTransient(errors.New("leader election in progress"))
	}
	return s.Broker.AppendRecords(dst, topic, part, off, max)
}

// TestCancelMidPassLosesNothing: partition 0's page is already applied
// when partition 1 fails transiently and the job is cancelled during the
// retry backoff. The graceful-stop checkpoint covers exactly the page the
// job processed: a restarted job sees every record exactly once.
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
	src := &downPartition{Broker: b, bad: 1, down: true}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One-second windows: each record is the one record of its window.
	cfg := JobConfig{Name: "stop", Topic: "bronze", CheckpointDir: dir,
		Retry: resilience.Policy{BaseDelay: time.Minute, MaxDelay: time.Minute,
			OnRetry: func(int, error, time.Duration) { cancel() }}}
	var sink1, sink2 collectSink
	j1 := viewJob(t, src, cfg, tumblingView(t, time.Second, tsdb.AggCount, nil), sink1.sink)
	if err := j1.Run(ctx); err != nil {
		t.Fatalf("cancelled run: %v", err)
	}
	if m := j1.Metrics(); m.Retries != 1 || m.RecordsIn != n/2 {
		t.Fatalf("first incarnation: %+v, want one retry and partition 0's page processed", m)
	}

	src.down = false
	cfg.Retry = resilience.NoRetry
	if err := viewJob(t, src, cfg, tumblingView(t, time.Second, tsdb.AggCount, nil), sink2.sink).Drain(context.Background()); err != nil {
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
	const lateness = 5 * time.Second
	b := newBrokerWithTopic(t)
	n := 0
	publish := func(part int, from, to int) {
		for i := from; i < to; i++ {
			// One record every 100 ms: a page of jobBatchSize spans ~410 s.
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
	retries := 0
	cfg := JobConfig{Name: "lag", Topic: "bronze", Lateness: lateness,
		Retry: resilience.Policy{MaxAttempts: 10, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond,
			OnRetry: func(int, error, time.Duration) {
				if retries++; retries == 3 {
					src.down = false
				}
			}}}
	var (
		sink   collectSink
		j      *Job
		maxLag time.Duration
	)
	j = viewJob(t, src, cfg, tumblingView(t, 15*time.Second, tsdb.AggCount, nil, tsdb.DimComponent), func(f *schema.Frame) error {
		j.mu.Lock()
		maxLag = max(maxLag, time.Duration(j.partWM[0]-j.partWM[1]))
		j.mu.Unlock()
		return sink.sink(f)
	})
	ctx := context.Background()
	if err := j.start(); err != nil {
		t.Fatal(err)
	}
	if err := j.step(ctx); err != nil { // both partitions carry data
		t.Fatal(err)
	}
	publish(0, 10, 10+3*jobBatchSize)
	publish(1, 10, 10+3*jobBatchSize)
	src.down = true
	if err := j.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if retries < 3 || maxLag <= lateness {
		t.Fatalf("%d retries, partition 0 at most %v ahead of partition 1 when a window closed: no lag past the lateness", retries, maxLag)
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
	if m := j.Metrics(); int(total) != n || m.RecordsLate != 0 {
		t.Fatalf("sank %v of %d records, %d late", total, n, m.RecordsLate)
	}
}

// TestViewResidencyBoundedByOpenWindows: draining an hour of 15 s windows
// keeps in the view, and in its checkpoint, only the windows still open —
// its chunks are the windows, and a closed one leaves — not the hour a
// default SegmentDuration spans.
func TestViewResidencyBoundedByOpenWindows(t *testing.T) {
	const comps = 16
	b := newBrokerWithTopic(t)
	v := tumblingView(t, 15*time.Second, tsdb.AggAvg, nil, tsdb.DimComponent)
	var sink collectSink
	j := viewJob(t, b, JobConfig{Name: "resident", Topic: "bronze", CheckpointDir: t.TempDir(), Lateness: 5 * time.Second}, v, sink.sink)
	if err := j.start(); err != nil {
		t.Fatal(err)
	}
	var maxCells int64
	var firstCkpt, maxCkpt int64
	for sec := 0; sec < 3600; sec += 30 {
		for s := sec; s < sec+30; s++ {
			for c := 0; c < comps; c++ {
				publishObs(t, b, s, fmt.Sprintf("node%02d", c), "power", float64(s))
			}
		}
		if err := j.step(context.Background()); err != nil {
			t.Fatal(err)
		}
		maxCells = max(maxCells, v.Stats().Cells)
		st, err := os.Stat(j.path)
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
	if m := j.Metrics(); m.WindowsEmitted < 230 || maxCells > 2*comps || maxCkpt > 2*firstCkpt {
		t.Fatalf("%d windows sunk; at most %d cells resident (want <= %d) and a %d-byte checkpoint (first %d)",
			m.WindowsEmitted, maxCells, 2*comps, maxCkpt, firstCkpt)
	}
}

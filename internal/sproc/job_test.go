package sproc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/stream"
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

func TestPassthroughJob(t *testing.T) {
	b := newBrokerWithTopic(t)
	for i := 0; i < 10; i++ {
		publishObs(t, b, i, "node0", "power", float64(i))
	}
	var sink collectSink
	j, err := NewJob(b, JobConfig{Name: "pass", Topic: "bronze", InputSchema: schema.ObservationSchema})
	if err != nil {
		t.Fatal(err)
	}
	j.To(sink.sink)
	if err := j.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.rows()); got != 10 {
		t.Fatalf("sunk %d rows, want 10", got)
	}
	m := j.Metrics()
	if m.RecordsIn != 10 || m.RowsOut != 10 || m.RecordsInvalid != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

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
	mi := schema.ObservationSchema.MustIndex("metric")
	j, _ := NewJob(b, JobConfig{Name: "filt", Topic: "bronze", InputSchema: schema.ObservationSchema})
	j.Where(func(r schema.Row) bool { return r[mi].StrVal() == "power" }).To(sink.sink)
	if err := j.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.rows()); got != 5 {
		t.Fatalf("filtered rows = %d, want 5", got)
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
	j, _ := NewJob(b, JobConfig{Name: "mal", Topic: "bronze", InputSchema: schema.ObservationSchema})
	j.To(sink.sink)
	if err := j.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := j.Metrics()
	if m.RecordsIn != 3 || m.RecordsInvalid != 2 || len(sink.rows()) != 1 {
		t.Fatalf("metrics = %+v rows=%d", m, len(sink.rows()))
	}
}

func windowJob(t testing.TB, b *stream.Broker, name, dir string, sink func(*schema.Frame) error) *Job {
	j, err := NewJob(b, JobConfig{
		Name: name, Topic: "bronze",
		InputSchema: schema.ObservationSchema, CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Window(WindowSpec{
		TimeCol: "ts", Window: 15 * time.Second, Lateness: 5 * time.Second,
		Keys: []string{"component", "metric"},
		Aggs: []Agg{{Col: "value", Kind: AggAvg, As: "avg"}, {Col: "value", Kind: AggCount, As: "n"}},
	}).To(sink)
	return j
}

func TestWindowedAggregation(t *testing.T) {
	b := newBrokerWithTopic(t)
	// 60 seconds of 1 Hz data for two nodes: 4 windows of 15 samples each.
	for s := 0; s < 60; s++ {
		publishObs(t, b, s, "node0", "power", 100)
		publishObs(t, b, s, "node1", "power", 200)
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
		// window, component, metric, avg, n
		if r[2].StrVal() != "power" || r[4].IntVal() != 15 {
			t.Fatalf("row = %v", r)
		}
		want := 100.0
		if r[1].StrVal() == "node1" {
			want = 200
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
	j, _ := NewJob(b, JobConfig{Name: "piv", Topic: "bronze", InputSchema: schema.ObservationSchema})
	j.Window(WindowSpec{
		TimeCol: "ts", Window: 15 * time.Second,
		Keys: []string{"component", "metric"},
		Aggs: []Agg{{Col: "value", Kind: AggAvg, As: "v"}},
	}).MapBatch(func(f *schema.Frame) (*schema.Frame, error) {
		return Pivot(f, []string{"window", "component"}, "metric", "v", AggAvg)
	}).To(sink.sink)
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
	var sink1 collectSink
	j1, _ := NewJob(b, JobConfig{Name: "open", Topic: "bronze", InputSchema: schema.ObservationSchema, CheckpointDir: dir})
	j1.Window(WindowSpec{TimeCol: "ts", Window: 15 * time.Second, Keys: []string{"component"}, Aggs: []Agg{{Col: "value", Kind: AggCount, As: "n"}}}).To(sink1.sink)
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
	j2, _ := NewJob(b, JobConfig{Name: "open", Topic: "bronze", InputSchema: schema.ObservationSchema, CheckpointDir: dir})
	j2.Window(WindowSpec{TimeCol: "ts", Window: 15 * time.Second, Keys: []string{"component"}, Aggs: []Agg{{Col: "value", Kind: AggCount, As: "n"}}}).To(sink2.sink)
	if err := j2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := sink2.rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0][2].IntVal() != 15 {
		t.Fatalf("recovered window count = %v, want 15 (7 pre-crash + 8 post)", rows[0][2])
	}
}

func TestJobConfigValidation(t *testing.T) {
	b := newBrokerWithTopic(t)
	if _, err := NewJob(b, JobConfig{Topic: "bronze", InputSchema: schema.ObservationSchema}); !errors.Is(err, ErrPlan) {
		t.Fatal("missing name accepted")
	}
	if _, err := NewJob(b, JobConfig{Name: "x", Topic: "bronze"}); !errors.Is(err, ErrPlan) {
		t.Fatal("missing schema accepted")
	}
	j, _ := NewJob(b, JobConfig{Name: "x", Topic: "bronze", InputSchema: schema.ObservationSchema})
	if err := j.Drain(context.Background()); !errors.Is(err, ErrPlan) {
		t.Fatal("missing sink accepted")
	}
	j2, _ := NewJob(b, JobConfig{Name: "y", Topic: "bronze", InputSchema: schema.ObservationSchema})
	j2.Window(WindowSpec{TimeCol: "ghost", Window: time.Second, Aggs: []Agg{{Col: "value", Kind: AggAvg}}}).To(func(*schema.Frame) error { return nil })
	if err := j2.Drain(context.Background()); !errors.Is(err, ErrPlan) {
		t.Fatal("bad time column accepted")
	}
	j3, _ := NewJob(b, JobConfig{Name: "z", Topic: "ghost", InputSchema: schema.ObservationSchema})
	j3.To(func(*schema.Frame) error { return nil })
	if err := j3.Drain(context.Background()); !errors.Is(err, stream.ErrNoTopic) {
		t.Fatalf("missing topic: %v", err)
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	b := newBrokerWithTopic(t)
	publishObs(t, b, 0, "node0", "power", 1)
	boom := errors.New("downstream full")
	j, _ := NewJob(b, JobConfig{Name: "err", Topic: "bronze", InputSchema: schema.ObservationSchema})
	j.To(func(*schema.Frame) error { return boom })
	if err := j.Drain(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
}

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
		j, _ := NewJob(bk, JobConfig{
			Name: fmt.Sprintf("bench%d", i), Topic: "bronze",
			InputSchema: schema.ObservationSchema,
		})
		j.Window(WindowSpec{
			TimeCol: "ts", Window: 15 * time.Second,
			Keys: []string{"component"},
			Aggs: []Agg{{Col: "value", Kind: AggAvg}},
		}).To(func(*schema.Frame) error { return nil })
		if err := j.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "records/op")
}

func TestSlidingWindows(t *testing.T) {
	b := newBrokerWithTopic(t)
	// 60 seconds of 1 Hz data, one node, constant value.
	for s := 0; s < 60; s++ {
		publishObs(t, b, s, "node0", "power", 100)
	}
	var sink collectSink
	j, _ := NewJob(b, JobConfig{Name: "slide", Topic: "bronze", InputSchema: schema.ObservationSchema})
	j.Window(WindowSpec{
		TimeCol: "ts", Window: 30 * time.Second, Slide: 15 * time.Second,
		Keys: []string{"component"},
		Aggs: []Agg{{Col: "value", Kind: AggCount, As: "n"}, {Col: "value", Kind: AggAvg, As: "avg"}},
	}).To(sink.sink)
	if err := j.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := sink.rows()
	// Window starts at -15? Starts: 0,15,30,45 cover data fully; also the
	// window starting at 45 covers 45..59, and start -15 is clamped out by
	// the (ts-Window, ts] rule only producing starts >= ...: starts are
	// 0,15,30,45 plus the partial first window start -15 is impossible
	// (negative unix-aligned start exists: tick 0..14 also lands in the
	// window starting at -15s). Expect 5 windows.
	if len(rows) != 5 {
		t.Fatalf("sliding windows = %d rows: %v", len(rows), rows)
	}
	// Full windows (starts 0,15,30) hold 30 samples; edge windows fewer.
	counts := map[int64]int64{}
	for _, r := range rows {
		// window, component, n, avg
		counts[r[0].UnixNanos()] = r[2].IntVal()
		if r[3].FloatVal() != 100 {
			t.Fatalf("avg = %v", r[3])
		}
	}
	base := tbase.UnixNano()
	want := map[int64]int64{
		base - int64(15*time.Second): 15, // covers 0..14
		base:                         30,
		base + int64(15*time.Second): 30,
		base + int64(30*time.Second): 30,
		base + int64(45*time.Second): 15, // covers 45..59
	}
	for ws, n := range want {
		if counts[ws] != n {
			t.Fatalf("window %d count = %d, want %d (all %v)", (ws-base)/1e9, counts[ws], n, counts)
		}
	}
}

func TestSlidingWindowValidation(t *testing.T) {
	b := newBrokerWithTopic(t)
	j, _ := NewJob(b, JobConfig{Name: "badslide", Topic: "bronze", InputSchema: schema.ObservationSchema})
	j.Window(WindowSpec{
		TimeCol: "ts", Window: 10 * time.Second, Slide: 20 * time.Second,
		Aggs: []Agg{{Col: "value", Kind: AggAvg}},
	}).To(func(*schema.Frame) error { return nil })
	if err := j.Drain(context.Background()); !errors.Is(err, ErrPlan) {
		t.Fatalf("slide > window accepted: %v", err)
	}
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
	cfg := JobConfig{Name: "stop", Topic: "bronze", InputSchema: schema.ObservationSchema, CheckpointDir: dir,
		Retry: resilience.Policy{BaseDelay: time.Minute, MaxDelay: time.Minute,
			OnRetry: func(int, error, time.Duration) { cancel() }}}
	var sink1, sink2 collectSink
	j1, err := NewJob(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.To(sink1.sink).Run(ctx); err != nil {
		t.Fatalf("cancelled run: %v", err)
	}
	if m := j1.Metrics(); m.Retries != 1 || m.RecordsIn != n/2 {
		t.Fatalf("first incarnation: %+v, want one retry and partition 0's page processed", m)
	}

	src.down = false
	cfg.Retry = resilience.NoRetry
	j2, err := NewJob(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.To(sink2.sink).Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]int)
	vIdx := schema.ObservationSchema.MustIndex("value")
	for _, r := range append(sink1.rows(), sink2.rows()...) {
		seen[r[vIdx].FloatVal()]++
	}
	for i := 0; i < n; i++ {
		if seen[float64(i)] != 1 {
			t.Fatalf("record %d sunk %d times across the stop and the restart, want exactly once", i, seen[float64(i)])
		}
	}
}

package cq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"odakit/internal/columnar"
	"odakit/internal/obs"
	"odakit/internal/resilience"
	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

func testEngine() *Engine {
	return NewEngine(Config{RollupInterval: 15 * time.Second, SegmentDuration: time.Minute})
}

func obsAt(ts time.Time, comp, metric string, v float64) schema.Observation {
	return schema.Observation{Ts: ts, System: "sys", Source: "alpha", Component: comp, Metric: metric, Value: v}
}

// obsRows returns the observations as the rows a pump hands the engine.
func obsRows(obs ...schema.Observation) []schema.Row {
	rows := make([]schema.Row, len(obs))
	for i := range obs {
		rows[i] = obs[i].Row()
	}
	return rows
}

var unitT0 = time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)

func TestSpecValidate(t *testing.T) {
	base := Spec{Window: time.Minute}
	ptr := func(f float64) *float64 { return &f }
	cases := []struct {
		name string
		mut  func(*Spec)
		ok   bool
	}{
		{"minimal", func(s *Spec) {}, true},
		{"no window", func(s *Spec) { s.Window = 0 }, false},
		{"negative granularity", func(s *Spec) { s.Granularity = -time.Second }, false},
		{"granularity over window", func(s *Spec) { s.Granularity = 2 * time.Minute }, false},
		{"bad group dim", func(s *Spec) { s.GroupBy = []string{"host"} }, false},
		{"dup group dim", func(s *Spec) { s.GroupBy = []string{"metric", "metric"} }, false},
		{"all dims", func(s *Spec) { s.GroupBy = []string{"system", "source", "component", "metric"} }, true},
		{"bad filter dim", func(s *Spec) { s.Filters = map[string][]string{"rack": {"r1"}} }, false},
		{"bad kind", func(s *Spec) { s.Kind = WindowKind(9) }, false},
		{"alert season one", func(s *Spec) { s.Alert = &AlertSpec{Season: 1} }, false},
		{"alert negative score", func(s *Spec) { s.Alert = &AlertSpec{MaxScore: -1} }, false},
		{"alert ok", func(s *Spec) { s.Alert = &AlertSpec{MaxScore: 3, Season: 4} }, true},
		{"alert NaN above", func(s *Spec) { s.Alert = &AlertSpec{Above: ptr(math.NaN())} }, false},
		{"alert Inf below", func(s *Spec) { s.Alert = &AlertSpec{Below: ptr(math.Inf(1))} }, false},
		{"alert NaN score", func(s *Spec) { s.Alert = &AlertSpec{MaxScore: math.NaN()} }, false},
	}
	for _, tc := range cases {
		s := base
		tc.mut(&s)
		err := s.validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRegisterIsContentAddressedAndIdempotent(t *testing.T) {
	e := testEngine()
	v1, err := e.Register(Spec{Name: "a", Window: time.Minute, GroupBy: []string{"metric"}})
	if err != nil {
		t.Fatal(err)
	}
	// Same shape, different name: same view, state shared.
	v2, err := e.Register(Spec{Name: "b", Window: time.Minute, GroupBy: []string{"metric"}})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("same-shape specs resolved to distinct views %s vs %s", v1.ID, v2.ID)
	}
	v3, err := e.Register(Spec{Name: "a", Window: 2 * time.Minute, GroupBy: []string{"metric"}})
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatalf("different windows resolved to the same view")
	}
	if len(e.Views()) != 2 {
		t.Fatalf("want 2 views, got %d", len(e.Views()))
	}
	if !e.Unregister(v3.ID) || e.Unregister(v3.ID) {
		t.Fatalf("unregister semantics broken")
	}
}

func TestWindowBounds(t *testing.T) {
	e := testEngine()
	sliding, _ := e.Register(Spec{Window: time.Minute})
	tumbling, _ := e.Register(Spec{Window: time.Minute, Kind: WindowTumbling})

	wm := unitT0.Add(95 * time.Second).UnixNano() // 00:01:35
	from, to, ok := sliding.windowBounds(wm)
	if !ok {
		t.Fatal("no bounds")
	}
	// Sliding: to = wm rounded up to the next rollup edge (00:01:45).
	if want := unitT0.Add(105 * time.Second).UnixNano(); to != want {
		t.Fatalf("sliding to = %d, want %d", to, want)
	}
	if to-from != int64(time.Minute) {
		t.Fatalf("sliding width = %d", to-from)
	}
	from, to, _ = tumbling.windowBounds(wm)
	if want := unitT0.Add(time.Minute).UnixNano(); from != want {
		t.Fatalf("tumbling from = %d, want %d", from, want)
	}
	if to-from != int64(time.Minute) {
		t.Fatalf("tumbling width = %d", to-from)
	}
	if _, _, ok := sliding.windowBounds(minWatermark); ok {
		t.Fatal("bounds before any data")
	}
}

func TestEvictionAndLateDrops(t *testing.T) {
	e := testEngine()
	v, _ := e.Register(Spec{Window: time.Minute}) // segment 1m, window 1m
	// Fill three segments; the window end moves to 00:03:00-ish.
	for i := 0; i < 12; i++ {
		e.Apply("bronze.alpha", 0, obsRows(
			obsAt(unitT0.Add(time.Duration(i)*15*time.Second), "n1", "cpu", float64(i))))
	}
	st := v.Stats()
	if st.Applied != 12 || st.Late != 0 {
		t.Fatalf("applied=%d late=%d", st.Applied, st.Late)
	}
	// Early chunks (wholly before the window start) must be evicted.
	if st.Cells >= 12 {
		t.Fatalf("no eviction: %d cells live", st.Cells)
	}
	// A record below the eviction horizon is dropped and counted late.
	e.Apply("bronze.alpha", 0, obsRows(obsAt(unitT0, "n1", "cpu", 1)))
	if st = v.Stats(); st.Late != 1 {
		t.Fatalf("late=%d, want 1", st.Late)
	}
}

func TestReadGenerationCache(t *testing.T) {
	e := testEngine()
	v, _ := e.Register(Spec{Window: time.Minute})
	e.Apply("bronze.alpha", 0, obsRows(obsAt(unitT0, "n1", "cpu", 42)))
	f1, info1 := v.Read()
	if info1.CacheHit {
		t.Fatal("first read cannot hit")
	}
	f2, info2 := v.Read()
	if !info2.CacheHit || f1 != f2 {
		t.Fatal("second read at same gen must return the cached frame")
	}
	e.Apply("bronze.alpha", 0, obsRows(obsAt(unitT0.Add(time.Second), "n1", "cpu", 43)))
	_, info3 := v.Read()
	if info3.CacheHit {
		t.Fatal("read after update must re-fold")
	}
	v.Invalidate()
	_, info4 := v.Read()
	if info4.CacheHit {
		t.Fatal("read after Invalidate must re-fold")
	}
}

func TestSubscribeNotifies(t *testing.T) {
	e := testEngine()
	v, _ := e.Register(Spec{Window: time.Minute})
	ch, cancel := v.Subscribe()
	defer cancel()
	if v.Stats().Watchers != 1 {
		t.Fatal("watcher not counted")
	}
	gen := v.Gen()
	e.Apply("bronze.alpha", 0, obsRows(obsAt(unitT0, "n1", "cpu", 1)))
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("no wakeup after apply")
	}
	if v.Gen() == gen {
		t.Fatal("generation did not advance")
	}
	cancel()
	if v.Stats().Watchers != 0 {
		t.Fatal("cancel did not drop watcher")
	}
}

func TestFiltersLimitState(t *testing.T) {
	e := testEngine()
	v, _ := e.Register(Spec{
		Window:  time.Minute,
		Filters: map[string][]string{"metric": {"cpu"}},
		GroupBy: []string{"component"},
	})
	e.Apply("bronze.alpha", 0, obsRows(
		obsAt(unitT0, "n1", "cpu", 1),
		obsAt(unitT0, "n1", "mem", 2), // filtered: never stored
	))
	if st := v.Stats(); st.Cells != 1 {
		t.Fatalf("filtered record was stored: %d cells", st.Cells)
	}
	f, _ := v.Read()
	rows := f.Rows()
	if len(rows) != 1 || rows[0][1].StrVal() != "n1" || rows[0][2].FloatVal() != 1 {
		t.Fatalf("unexpected rows %v", rows)
	}
}

func TestThresholdAndAnomalyAlerts(t *testing.T) {
	e := testEngine()
	above := 100.0
	v, _ := e.Register(Spec{
		Window:  2 * time.Minute,
		GroupBy: []string{"component"},
		Alert:   &AlertSpec{Above: &above, MaxScore: 3},
	})
	// Steady series, then a spike; buckets close as the watermark passes.
	for i := 0; i < 10; i++ {
		val := 50.0
		if i == 8 {
			val = 500 // crosses Above AND is a z-score outlier
		}
		e.Apply("bronze.alpha", 0, obsRows(
			obsAt(unitT0.Add(time.Duration(i)*15*time.Second), "n1", "cpu", val)))
	}
	alerts := v.Alerts()
	if len(alerts) == 0 {
		t.Fatal("no alerts fired")
	}
	found := false
	for _, a := range alerts {
		if a.Value == 500 && a.Dims["component"] == "n1" {
			found = true
			if a.Reason == "" {
				t.Fatal("alert without reason")
			}
		}
	}
	if !found {
		t.Fatalf("spike alert missing: %+v", alerts)
	}
	if v.Stats().Alerts != int64(len(alerts)) {
		t.Fatal("stats alert count mismatch")
	}
}

func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine(Config{RollupInterval: 15 * time.Second, SegmentDuration: time.Minute, Registry: reg})
	v, _ := e.Register(Spec{Window: time.Minute})
	e.Apply("bronze.alpha", 0, obsRows(obsAt(unitT0, "n1", "cpu", 1)))
	v.Read()
	v.Read()
	want := map[string]float64{
		"oda_cq_views":                 1,
		"oda_cq_updates_total":         1,
		"oda_cq_reads_total":           2,
		"oda_cq_read_cache_hits_total": 1,
		"oda_cq_observations_total":    1,
	}
	got := map[string]float64{}
	for _, s := range reg.Gather() {
		got[s.Name] = s.Value
	}
	for name, val := range want {
		if got[name] != val {
			t.Errorf("%s = %v, want %v", name, got[name], val)
		}
	}
}

func TestPumpSkipsBadRecords(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	if err := b.CreateTopic("bronze.alpha", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	e := testEngine()
	v, _ := e.Register(Spec{Window: time.Minute})
	good := obsAt(unitT0, "n1", "cpu", 7)
	if _, err := b.PublishBatch("bronze.alpha", []stream.Message{{Key: []byte("n1"), Value: schema.EncodeRow(good.Row())}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishBatch("bronze.alpha", []stream.Message{{Key: []byte("n1"), Value: []byte("not a row")}}); err != nil {
		t.Fatal(err)
	}
	p, err := NewPumpSource(e, b, PumpConfig{Topics: []string{"bronze.alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := p.Stats()
	if m.Bad != 1 || m.Applied != 1 {
		t.Fatalf("bad=%d applied=%d", m.Bad, m.Applied)
	}
	if st := v.Stats(); st.Applied != 1 {
		t.Fatalf("view applied=%d", st.Applied)
	}
}

// TestPumpMetricsWhileRunning reads Metrics from another goroutine while
// Run applies records, as /healthz-style callers do; under -race a
// counter the loop writes unsynchronized is a failure.
func TestPumpMetricsWhileRunning(t *testing.T) {
	const topic, n = "bronze.alpha", 200
	b := stream.NewBroker()
	defer b.Close()
	if err := b.CreateTopic(topic, stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	e := testEngine()
	if _, err := e.Register(Spec{Window: time.Hour}); err != nil {
		t.Fatal(err)
	}
	p, err := NewPumpSource(e, b, PumpConfig{Topics: []string{topic}, BatchSize: 16, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- p.Run(ctx) }()
	for i := 0; i < n; i++ {
		o := obsAt(unitT0.Add(time.Duration(i)*time.Second), "n1", "cpu", float64(i))
		if _, err := b.PublishBatchTo(topic, i%2, []stream.Message{{Value: schema.EncodeRow(o.Row())}}); err != nil {
			t.Fatal(err)
		}
		_ = p.Stats()
	}
	deadline := time.Now().Add(10 * time.Second)
	for m := p.Stats(); m.Applied < n; m = p.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("the running pump applied %d of %d records", m.Applied, n)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run ended with %v, want context.Canceled", err)
	}
	if m := p.Stats(); m.Polled != n || m.Applied != n || m.Checkpoints == 0 {
		t.Fatalf("after Run: %+v, want %d polled and applied, and checkpoints", m, n)
	}
}

func TestViewIDStableAcrossFilterOrder(t *testing.T) {
	a := Spec{Window: time.Minute, Filters: map[string][]string{"metric": {"cpu", "mem"}, "component": {"n1"}}}
	b := Spec{Window: time.Minute, Filters: map[string][]string{"component": {"n1"}, "metric": {"mem", "cpu"}}}
	if viewID(a) != viewID(b) {
		t.Fatal("fingerprint depends on map/slice order")
	}
	c := a
	c.Agg = tsdb.AggSum
	if viewID(a) == viewID(c) {
		t.Fatal("fingerprint ignores agg")
	}
}

// outageStream is a broker whose partition `bad` fails every fetch with a
// transient error until healAt, counting the fetches it refused.
type outageStream struct {
	*stream.Broker
	bad     int
	healAt  time.Time
	refused int
}

func (s *outageStream) AppendRecords(dst []stream.Record, topic string, part int, off int64, max int) ([]stream.Record, error) {
	if part == s.bad && time.Now().Before(s.healAt) {
		s.refused++
		return dst, resilience.MarkTransient(errors.New("leader election in progress"))
	}
	return s.Broker.AppendRecords(dst, topic, part, off, max)
}

// TestDrainIdlesThroughTransientOutage: while one partition is transiently
// unreadable Drain is not caught up, yet the reader would not park — the
// partition's records are committed. It must back off between passes
// instead of spinning, and still apply every record exactly once when the
// partition heals.
func TestDrainIdlesThroughTransientOutage(t *testing.T) {
	const (
		topic  = "bronze.alpha"
		outage = 50 * time.Millisecond
		idle   = 5 * time.Millisecond // the mean pass spacing allowed
		n      = 400
	)
	b := stream.NewBroker()
	defer b.Close()
	if err := b.CreateTopic(topic, stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		o := obsAt(unitT0.Add(time.Duration(i)*time.Second), "node01", "pow", float64(i))
		if _, err := b.PublishBatchTo(topic, i%2, []stream.Message{{Value: schema.EncodeRow(o.Row())}}); err != nil {
			t.Fatal(err)
		}
	}
	e := testEngine()
	if _, err := e.Register(Spec{Window: time.Hour}); err != nil {
		t.Fatal(err)
	}
	src := &outageStream{Broker: b, bad: 1}
	p, err := NewPumpSource(e, src, PumpConfig{Topics: []string{topic}})
	if err != nil {
		t.Fatal(err)
	}
	src.healAt = time.Now().Add(outage)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if limit := int(outage/idle) + 5; src.refused == 0 || src.refused > limit {
		t.Fatalf("%d fetches hit the partition during its %v outage, want 1..%d (backed off, not spinning)", src.refused, outage, limit)
	}
	if m := p.Stats(); m.Polled != n || m.Applied != n || m.Bad != 0 {
		t.Fatalf("after the outage the pump had polled %d and applied %d of %d records (%d bad)", m.Polled, m.Applied, n, m.Bad)
	}
}

// TestCheckpointRoundTripAcrossPages snapshots a view whose per-(stripe,
// chunk, partition) tables run past two cell pages and restores it into a
// fresh engine: the restored view snapshots to the same state and reads
// the same frame, so insertion order survives a page boundary on both
// sides of the checkpoint.
func TestCheckpointRoundTripAcrossPages(t *testing.T) {
	spec := Spec{
		Name: "paged", GroupBy: []string{tsdb.DimMetric}, Granularity: 30 * time.Second,
		Agg: tsdb.AggAvg, Window: 10 * time.Minute,
	}
	cfg := Config{RollupInterval: 15 * time.Second, SegmentDuration: time.Hour}
	eng := NewEngine(cfg)
	v, err := eng.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for tick := 0; tick < 16; tick++ { // 640 series × 16 buckets over 16 stripes: ~640 cells a table
		obs := make([]schema.Observation, 0, 640)
		for c := 0; c < 640; c++ {
			at := unitT0.Add(time.Duration(tick)*15*time.Second + time.Duration(rng.Intn(15000))*time.Millisecond)
			obs = append(obs, obsAt(at, fmt.Sprintf("node%05d", c), []string{"pow", "temp"}[c%2], rng.NormFloat64()))
		}
		eng.Apply("bronze.alpha", 0, obsRows(obs...))
	}
	for s := range v.stripes {
		for _, byTP := range v.stripes[s] {
			for _, ct := range byTP {
				if ct.Pages() < 3 {
					t.Fatalf("stripe %d table holds %d cells in %d pages: no page boundary to straddle", s, ct.Len(), ct.Pages())
				}
			}
		}
	}
	snap := v.snapshot()
	v2, err := NewEngine(cfg).Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.restoreInto(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v2.snapshot(), snap) {
		t.Fatal("restored view snapshots differently")
	}
	want, _ := v.Read()
	if got, _ := v2.Read(); got.Len() == 0 || !got.Equal(want) {
		t.Fatalf("restored view reads %d rows, original %d, or they differ", got.Len(), want.Len())
	}
}

// TestRestoreRejectsCorruptCheckpoint corrupts a valid snapshot's cells
// one way per row and requires restoreInto to refuse it with an error
// naming the view and, where the bad row names one, the stripe, leaving
// the view exactly as empty as a fresh one.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	spec := Spec{Name: "corrupt", GroupBy: []string{tsdb.DimComponent}, Agg: tsdb.AggSum, Window: 10 * time.Minute}
	register := func() *View {
		v, err := testEngine().Register(spec)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	src := register()
	var obs []schema.Observation
	for i := 0; i < 60; i++ {
		obs = append(obs, obsAt(unitT0.Add(time.Duration(i)*4*time.Second), fmt.Sprintf("node%02d", i%3), "pow", float64(i)))
	}
	src.engine.Apply("bronze.alpha", 0, obsRows(obs...))
	good := src.snapshot()
	if len(good.Slices) != 1 {
		t.Fatalf("fixture snapshot has %d slices, want 1", len(good.Slices))
	}
	if err := register().restoreInto(good); err != nil {
		t.Fatalf("the uncorrupted snapshot: %v", err)
	}
	empty := register().snapshot()
	cells, err := columnar.ReadAll(good.Slices[0].Cells)
	if err != nil || cells.Len() < 2 {
		t.Fatalf("fixture slice: %v (%d cells)", err, cells.Len())
	}
	idx := tsdb.ColdSchema.MustIndex
	stripe := func(r int) int64 { return cells.Row(r)[idx("stripe")].IntVal() }
	encode := func(f *schema.Frame) []byte {
		data, err := columnar.Encode(f, columnar.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// rewrite returns the slice with row r's field set to val, then the
	// rows extra appended.
	rewrite := func(r int, name string, val schema.Value, extra ...int) []byte {
		f := schema.NewFrame(tsdb.ColdSchema)
		for i := 0; i < cells.Len(); i++ {
			row := cells.Row(i)
			if i == r {
				row[idx(name)] = val
			}
			if err := f.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range extra {
			if err := f.AppendRow(cells.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		return encode(f)
	}
	foreign := (stripe(1) + 1) % tsdb.NumStripes
	offGrid := cells.Row(1)[idx("bucket")].UnixNanos() + int64(time.Second)
	noChunk := int64(math.MaxInt64) - math.MaxInt64%int64(src.geom.Rollup) // its chunk ends past the int64 range
	blob := good.Slices[0].Cells
	for _, tc := range []struct {
		name   string
		cells  []byte
		stripe int64 // the stripe the error names; -1 when none is known
	}{
		{"cell listed twice", rewrite(-1, "", schema.Null, 0), stripe(0)},
		{"part on a foreign stripe", rewrite(1, "stripe", schema.Int(foreign)), foreign},
		{"cell off the rollup grid", rewrite(1, "bucket", schema.TimeNanos(offGrid)), stripe(1)},
		{"cell in no chunk", rewrite(1, "bucket", schema.TimeNanos(noChunk)), stripe(1)},
		{"a blob that is not ColdSchema", encode(schema.NewFrame(schema.ObservationSchema)), -1},
		{"a null cell", rewrite(1, "sum", schema.Null), stripe(1)},
		{"truncated OCF bytes", blob[:len(blob)/2], -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cv := good
			cv.Slices = []ckptSlice{{Topic: good.Slices[0].Topic, Part: good.Slices[0].Part, Cells: tc.cells}}
			v := register()
			err := v.restoreInto(cv)
			if err == nil {
				t.Fatal("corrupt snapshot restored without an error")
			}
			t.Log(err)
			if !strings.Contains(err.Error(), v.ID) {
				t.Fatalf("error %q does not name view %s", err, v.ID)
			}
			if s := fmt.Sprintf("stripe %d", tc.stripe); tc.stripe >= 0 && !strings.Contains(err.Error(), s) {
				t.Fatalf("error %q does not name %s", err, s)
			}
			if got := v.snapshot(); !reflect.DeepEqual(got, empty) {
				t.Fatalf("a refused restore left state behind: %+v", got)
			}
		})
	}
}

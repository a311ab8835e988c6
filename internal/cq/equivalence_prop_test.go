package cq

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odakit/internal/schema"
	"odakit/internal/stream"
	"odakit/internal/tsdb"
)

// The tentpole property: a view's frame is byte-identical to tsdb.Run
// over a store rebuilt by partition-major replay of the same records —
// at every epoch, across randomized specs, publish patterns, late
// records, chunk eviction, and a crash/restore cycle. Float aggregation
// is order-sensitive, so Frame.Equal (bitwise on floats) passing across
// random trials is strong evidence the fold orders genuinely coincide.

const (
	propRollup  = 15 * time.Second
	propSegment = time.Minute // small segments exercise chunk bounds + eviction
	propParts   = 4
)

var propT0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type propWorld struct {
	t      *testing.T
	rng    *rand.Rand
	broker *stream.Broker
	topics []string // sorted; topic i carries source sources[i] only
	cur    time.Time
}

func newPropWorld(t *testing.T, rng *rand.Rand) *propWorld {
	b := stream.NewBroker()
	topics := []string{"bronze.alpha", "bronze.beta"}
	for _, tp := range topics {
		if err := b.CreateTopic(tp, stream.TopicConfig{Partitions: propParts}); err != nil {
			t.Fatalf("create topic: %v", err)
		}
	}
	return &propWorld{t: t, rng: rng, broker: b, topics: topics, cur: propT0}
}

// sourceOf derives the series' source dim from its topic, so series are
// disjoint across topics — the affinity precondition core establishes
// by construction (BronzeTopic is keyed by source).
func sourceOf(topic string) string { return strings.TrimPrefix(topic, "bronze.") }

// publishRound emits n observations keyed by component (per-series
// partition affinity), with a mostly-forward clock and occasional late
// records.
func (w *propWorld) publishRound(n int) {
	comps := []string{"node01", "node02", "node03", "node04", "node05", "node06"}
	mets := []string{"cpu", "mem", "pow"}
	for i := 0; i < n; i++ {
		// Mostly advance, sometimes step back (late-but-usually-in-window).
		if w.rng.Intn(10) == 0 {
			back := time.Duration(w.rng.Intn(120)) * time.Second
			if w.cur.Add(-back).After(propT0) {
				w.cur = w.cur.Add(-back)
			}
		} else {
			w.cur = w.cur.Add(time.Duration(w.rng.Intn(8000)) * time.Millisecond)
		}
		topic := w.topics[w.rng.Intn(len(w.topics))]
		o := schema.Observation{
			Ts:        w.cur,
			System:    "sys",
			Source:    sourceOf(topic),
			Component: comps[w.rng.Intn(len(comps))],
			Metric:    mets[w.rng.Intn(len(mets))],
			Value:     w.rng.NormFloat64()*10 + 50,
		}
		if _, err := w.broker.PublishBatch(topic, []stream.Message{{Key: []byte(o.Component), Value: schema.EncodeRow(o.Row())}}); err != nil {
			w.t.Fatalf("publish: %v", err)
		}
	}
}

// referenceDB rebuilds a LAKE by partition-major replay — topics
// ascending, each partition fully, offsets ascending. The pump and
// core.ReplayBronzeToLake visit the same partitions in the same order a
// page at a time; every series lives in one partition, so per-partition
// offset order is all the view's fold has to mirror.
func (w *propWorld) referenceDB() *tsdb.DB {
	db := tsdb.New(tsdb.Options{
		RollupInterval: propRollup, SegmentDuration: propSegment, QueryCacheSize: -1,
	})
	ctx := context.Background()
	for _, topic := range w.topics {
		for p := 0; p < propParts; p++ {
			end, err := w.broker.EndOffset(topic, p)
			if err != nil {
				w.t.Fatalf("end offset: %v", err)
			}
			for off := int64(0); off < end; {
				recs, err := w.broker.Fetch(ctx, topic, p, off, 1024)
				if err != nil {
					w.t.Fatalf("fetch: %v", err)
				}
				for _, r := range recs {
					row, _, derr := schema.DecodeRow(r.Value)
					if derr != nil {
						w.t.Fatalf("decode: %v", derr)
					}
					db.Insert(schema.ObservationFromRow(row))
				}
				off = recs[len(recs)-1].Offset + 1
			}
		}
	}
	return db
}

func randomSpec(rng *rand.Rand) Spec {
	dims := []string{tsdb.DimSystem, tsdb.DimSource, tsdb.DimComponent, tsdb.DimMetric}
	rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
	s := Spec{
		Name:    "prop",
		GroupBy: dims[:rng.Intn(len(dims)+1)],
		Agg:     tsdb.AggKind(rng.Intn(6)),
		Window:  []time.Duration{90 * time.Second, 2 * time.Minute, 3 * time.Minute}[rng.Intn(3)],
		Kind:    WindowKind(rng.Intn(2)),
	}
	s.Granularity = []time.Duration{0, 15 * time.Second, 30 * time.Second, time.Minute}[rng.Intn(4)]
	if rng.Intn(2) == 0 {
		s.Filters = map[string][]string{}
		if rng.Intn(2) == 0 {
			s.Filters[tsdb.DimMetric] = []string{"cpu", "pow"}[:1+rng.Intn(2)]
		}
		if rng.Intn(3) == 0 {
			s.Filters[tsdb.DimComponent] = []string{"node01", "node02", "node03"}[:1+rng.Intn(3)]
		}
	}
	if rng.Intn(2) == 0 {
		// Exercise the alert path; alerting never affects frames.
		above := 65.0
		s.Alert = &AlertSpec{Above: &above, MaxScore: 3, Season: []int{0, 4}[rng.Intn(2)]}
	}
	return s
}

// checkEpoch asserts the view's frame is byte-identical to the batch
// answer over the same window.
func checkEpoch(t *testing.T, w *propWorld, v *View, epoch int) {
	frame, info := v.Read()
	if info.From.IsZero() {
		return // no data yet
	}
	ref := w.referenceDB()
	want, err := ref.Run(tsdb.Query{
		From: info.From, To: info.To,
		Filters: v.Spec.Filters, GroupBy: v.Spec.GroupBy,
		Granularity: v.Spec.Granularity, Agg: v.Spec.Agg,
	})
	if err != nil {
		t.Fatalf("epoch %d: batch run: %v", epoch, err)
	}
	if !frame.Equal(want) {
		t.Fatalf("epoch %d: view frame diverges from batch\nview  (%d rows): %s\nbatch (%d rows): %s",
			epoch, len(frame.Rows()), dumpRows(frame), len(want.Rows()), dumpRows(want))
	}
}

func dumpRows(f *schema.Frame) string {
	var b strings.Builder
	for _, r := range f.Rows() {
		fmt.Fprintf(&b, "\n  %v", r)
	}
	return b.String()
}

func TestViewMatchesBatchAtEveryEpoch(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			w := newPropWorld(t, rng)
			defer w.broker.Close()

			eng := NewEngine(Config{RollupInterval: propRollup, SegmentDuration: propSegment})
			spec := randomSpec(rng)
			v, err := eng.Register(spec)
			if err != nil {
				t.Fatalf("register: %v", err)
			}
			pump, err := NewPumpSource(eng, w.broker, PumpConfig{Topics: w.topics})
			if err != nil {
				t.Fatalf("pump: %v", err)
			}
			ctx := context.Background()
			for epoch := 0; epoch < 6; epoch++ {
				w.publishRound(30 + rng.Intn(120))
				if err := pump.Drain(ctx); err != nil {
					t.Fatalf("drain: %v", err)
				}
				checkEpoch(t, w, v, epoch)
			}
		})
	}
}

// TestViewSurvivesCrashRestore kills the pump mid-sequence — applied
// batches past the last checkpoint are lost with the process — then
// rebuilds engine and pump from the checkpoint dir and proves the
// restored+replayed view still matches batch at every subsequent epoch.
func TestViewSurvivesCrashRestore(t *testing.T) {
	for seed := int64(11); seed <= 14; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			w := newPropWorld(t, rng)
			defer w.broker.Close()
			dir := t.TempDir()

			eng := NewEngine(Config{RollupInterval: propRollup, SegmentDuration: propSegment})
			spec := randomSpec(rng)
			v, err := eng.Register(spec)
			if err != nil {
				t.Fatalf("register: %v", err)
			}
			// CheckpointEvery 3: most steps leave an un-checkpointed
			// suffix for the crash to destroy.
			pcfg := PumpConfig{Topics: w.topics, CheckpointDir: dir, CheckpointEvery: 3}
			pump, err := NewPumpSource(eng, w.broker, pcfg)
			if err != nil {
				t.Fatalf("pump: %v", err)
			}
			ctx := context.Background()
			for epoch := 0; epoch < 3; epoch++ {
				w.publishRound(30 + rng.Intn(80))
				if err := pump.Drain(ctx); err != nil {
					t.Fatalf("drain: %v", err)
				}
				checkEpoch(t, w, v, epoch)
			}

			// Publish more and step WITHOUT a final checkpoint, then
			// "crash": everything since the last checkpoint is lost.
			w.publishRound(60)
			if _, err := pump.step(ctx); err != nil {
				t.Fatalf("step: %v", err)
			}

			eng2 := NewEngine(Config{RollupInterval: propRollup, SegmentDuration: propSegment})
			pump2, err := NewPumpSource(eng2, w.broker, pcfg)
			if err != nil {
				t.Fatalf("restart pump: %v", err)
			}
			if !pump2.Metrics().Recovered {
				t.Fatalf("restart did not recover from checkpoint")
			}
			v2, ok := eng2.Get(v.ID)
			if !ok {
				t.Fatalf("restored engine lost view %s (have %d views)", v.ID, len(eng2.Views()))
			}
			if err := pump2.Drain(ctx); err != nil {
				t.Fatalf("drain after restore: %v", err)
			}
			checkEpoch(t, w, v2, 100)
			for epoch := 0; epoch < 3; epoch++ {
				w.publishRound(30 + rng.Intn(80))
				if err := pump2.Drain(ctx); err != nil {
					t.Fatalf("drain: %v", err)
				}
				checkEpoch(t, w, v2, 200+epoch)
			}
		})
	}
}

// TestLargeWindowViewMatchesBatch holds the same byte-identity over a
// dashboard-sized window: more than 50k resident cells under a 3-dim
// group-by, so the fold grows its group tables through every doubling
// up to tens of thousands of groups (the small random specs above never
// leave the first allocation) and evicts whole chunks as the window
// slides between the two epochs.
func TestLargeWindowViewMatchesBatch(t *testing.T) {
	const comps, window = 32, 30 * time.Minute
	mets := []string{"cpu", "mem", "pow", "temp", "fan", "net", "disk"}
	rng := rand.New(rand.NewSource(21))
	w := newPropWorld(t, rng)
	defer w.broker.Close()

	eng := NewEngine(Config{RollupInterval: propRollup, SegmentDuration: propSegment})
	v, err := eng.Register(Spec{
		Name:    "large",
		GroupBy: []string{tsdb.DimComponent, tsdb.DimMetric, tsdb.DimSource},
		// Two rollup cells per output bucket, so every group merges.
		Granularity: 2 * propRollup, Agg: tsdb.AggAvg, Window: window,
	})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	pump, err := NewPumpSource(eng, w.broker, PumpConfig{Topics: w.topics})
	if err != nil {
		t.Fatalf("pump: %v", err)
	}
	// One sample per (series, rollup bucket), a second for about a third
	// of them; keyed by component like every producer.
	publish := func(from, to time.Duration) {
		for at := from; at < to; at += propRollup {
			for _, topic := range w.topics {
				for c := 0; c < comps; c++ {
					for _, m := range mets {
						for n := 1 + rng.Intn(3)/2; n > 0; n-- {
							o := schema.Observation{
								Ts:     propT0.Add(at + time.Duration(rng.Intn(15000))*time.Millisecond),
								System: "sys", Source: sourceOf(topic),
								Component: fmt.Sprintf("node%02d", c), Metric: m,
								Value: rng.NormFloat64()*10 + 50,
							}
							if _, err := w.broker.PublishBatch(topic, []stream.Message{{Key: []byte(o.Component), Value: schema.EncodeRow(o.Row())}}); err != nil {
								t.Fatalf("publish: %v", err)
							}
						}
					}
				}
			}
		}
	}
	ctx := context.Background()
	for epoch, span := range [][2]time.Duration{{0, 20 * time.Minute}, {20 * time.Minute, 40 * time.Minute}} {
		publish(span[0], span[1])
		if err := pump.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		checkEpoch(t, w, v, epoch)
	}
	v.Invalidate()
	frame, info := v.Read()
	if info.Cells < 50_000 || frame.Len() < 25_000 {
		t.Fatalf("window holds %d cells in %d groups: too small to exercise table growth", info.Cells, frame.Len())
	}
}

// TestRestoreFromPR12FormatCheckpoint restores a checkpoint file written
// before view state moved onto tsdb's cell tables (testdata, generated
// by the code at PR 12 from the seeded world rebuilt below), proving the
// on-disk format did not move with it: the restored view re-serializes
// to the file's exact bytes, and after replaying the un-checkpointed
// suffix it answers byte-identically to batch.
func TestRestoreFromPR12FormatCheckpoint(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "pr12_format.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "cq.ckpt.json"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	w := newPropWorld(t, rng)
	defer w.broker.Close()
	for i := 0; i < 3; i++ {
		w.publishRound(100) // the rounds the fixture's offsets cover
	}
	eng := NewEngine(Config{RollupInterval: propRollup, SegmentDuration: propSegment})
	pump, err := NewPumpSource(eng, w.broker, PumpConfig{Topics: w.topics, CheckpointDir: dir})
	if err != nil {
		t.Fatalf("pump: %v", err)
	}
	if !pump.Metrics().Recovered || len(eng.Views()) != 1 {
		t.Fatalf("recovered = %v with %d views, want the fixture's one view", pump.Metrics().Recovered, len(eng.Views()))
	}
	if err := pump.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(filepath.Join(dir, "cq.ckpt.json")); err != nil || !bytes.Equal(again, fixture) {
		t.Fatalf("re-serialized checkpoint differs from the PR 12 file (err %v, %d vs %d bytes)", err, len(again), len(fixture))
	}
	v := eng.Views()[0]
	checkEpoch(t, w, v, 0)
	w.publishRound(100)
	if err := pump.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkEpoch(t, w, v, 1)
}

package cq

import (
	"context"
	"encoding/json"
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

// referenceDB rebuilds a LAKE from one InsertBatch of the partition-major
// sequence — topics ascending, each partition fully, offsets ascending.
// The pump and
// core.ReplayBronzeToLake visit the same partitions in the same order a
// page at a time; every series lives in one partition, so per-partition
// offset order is all the view's fold has to mirror.
func (w *propWorld) referenceDB() *tsdb.DB {
	var seq []schema.Observation
	for _, topic := range w.topics {
		for p := 0; p < propParts; p++ {
			end, err := w.broker.EndOffset(topic, p)
			if err != nil {
				w.t.Fatalf("end offset: %v", err)
			}
			for off := int64(0); off < end; {
				recs, err := w.broker.FetchNoWait(topic, p, off, 1024)
				if err != nil {
					w.t.Fatalf("fetch: %v", err)
				}
				for _, r := range recs {
					row, _, derr := schema.DecodeRow(r.Value)
					if derr != nil {
						w.t.Fatalf("decode: %v", derr)
					}
					seq = append(seq, schema.ObservationFromRow(row))
				}
				off = recs[len(recs)-1].Offset + 1
			}
		}
	}
	db := tsdb.New(tsdb.Options{
		RollupInterval: propRollup, SegmentDuration: propSegment, QueryCacheSize: -1,
	})
	if err := db.InsertBatch(seq); err != nil {
		w.t.Fatalf("insert: %v", err)
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
// The pump checkpoints after every pass, so the crash is staged by putting
// back a checkpoint file saved earlier in the run: the passes since are
// the un-checkpointed suffix it destroys.
func TestViewSurvivesCrashRestore(t *testing.T) {
	for seed := int64(11); seed <= 14; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			w := newPropWorld(t, rng)
			defer w.broker.Close()
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "cq.ckpt.json")

			eng := NewEngine(Config{RollupInterval: propRollup, SegmentDuration: propSegment})
			spec := randomSpec(rng)
			v, err := eng.Register(spec)
			if err != nil {
				t.Fatalf("register: %v", err)
			}
			pcfg := PumpConfig{Topics: w.topics, CheckpointDir: dir}
			pump, err := NewPumpSource(eng, w.broker, pcfg)
			if err != nil {
				t.Fatalf("pump: %v", err)
			}
			ctx := context.Background()
			saveAt := rng.Intn(3)
			var saved []byte
			for epoch := 0; epoch < 3; epoch++ {
				w.publishRound(30 + rng.Intn(80))
				if err := pump.Drain(ctx); err != nil {
					t.Fatalf("drain: %v", err)
				}
				checkEpoch(t, w, v, epoch)
				if epoch == saveAt {
					if saved, err = os.ReadFile(ckpt); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Publish and apply more, then "crash": everything since the
			// saved checkpoint is lost.
			w.publishRound(60)
			if err := pump.Drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if err := os.WriteFile(ckpt, saved, 0o644); err != nil {
				t.Fatal(err)
			}

			eng2 := NewEngine(Config{RollupInterval: propRollup, SegmentDuration: propSegment})
			pump2, err := NewPumpSource(eng2, w.broker, pcfg)
			if err != nil {
				t.Fatalf("restart pump: %v", err)
			}
			if !pump2.Stats().Recovered {
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

// TestRestoreFromPR12FormatCheckpoint starts a pump on a checkpoint file
// written before view cells were stored as ColdSchema (testdata, in the
// format-less JSON-cell form, from the seeded world rebuilt below).
// The file is refused with an error that names it and says deleting it
// rebuilds the views, nothing is registered, and once it is deleted the
// fixture's view rebuilt from the stream answers byte-identically to batch.
func TestRestoreFromPR12FormatCheckpoint(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "pr12_format.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cq.ckpt.json")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	w := newPropWorld(t, rng)
	defer w.broker.Close()
	for i := 0; i < 3; i++ {
		w.publishRound(100) // the rounds the fixture's offsets cover
	}
	eng := NewEngine(Config{RollupInterval: propRollup, SegmentDuration: propSegment})
	cfg := PumpConfig{Topics: w.topics, CheckpointDir: dir}
	_, err = NewPumpSource(eng, w.broker, cfg)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "delete it to rebuild the views from the stream") {
		t.Fatalf("the JSON-cell checkpoint was not refused by name: %v", err)
	}
	if n := len(eng.Views()); n != 0 {
		t.Fatalf("a refused checkpoint registered %d views", n)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	above := 65.0
	v, err := eng.Register(Spec{
		Name: "fixture", Filters: map[string][]string{tsdb.DimMetric: {"cpu", "pow"}},
		GroupBy: []string{tsdb.DimMetric, tsdb.DimSource}, Granularity: 30 * time.Second,
		Agg: tsdb.AggAvg, Window: 3 * time.Minute, Alert: &AlertSpec{Above: &above, MaxScore: 3},
	})
	if err != nil || v.ID != "cqd58b53925be29378" {
		t.Fatalf("the fixture's spec registers as %v (%v)", v, err)
	}
	pump, err := NewPumpSource(eng, w.broker, cfg)
	if err != nil {
		t.Fatalf("pump: %v", err)
	}
	if err := pump.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkEpoch(t, w, v, 0)
}

// TestRefusedCheckpointRestoresNothing corrupts the second of two views
// in a checkpoint and starts a pump on it: the refusal unregisters the
// views the restore registered, leaves a view registered before it
// registered and empty, and a pump rebuilt without the checkpoint still
// matches batch rather than replaying the stream into restored state.
func TestRefusedCheckpointRestoresNothing(t *testing.T) {
	specs := []Spec{
		{Name: "by-component", GroupBy: []string{tsdb.DimComponent}, Agg: tsdb.AggSum, Window: 10 * time.Minute},
		{Name: "by-metric", GroupBy: []string{tsdb.DimMetric}, Agg: tsdb.AggCount, Window: 10 * time.Minute},
	}
	newEngine := func() *Engine { return NewEngine(Config{RollupInterval: propRollup, SegmentDuration: propSegment}) }
	w := newPropWorld(t, rand.New(rand.NewSource(41)))
	defer w.broker.Close()
	w.publishRound(120)
	dir := t.TempDir()
	path := filepath.Join(dir, "cq.ckpt.json")
	eng := newEngine()
	for _, s := range specs {
		if _, err := eng.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	pump, err := NewPumpSource(eng, w.broker, PumpConfig{Topics: w.topics, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := pump.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The file's views, in order: the first restores, the second is refused.
	first, second := eng.Views()[0], eng.Views()[1]

	for _, corrupt := range []struct {
		name, want string
		edit       func(view map[string]any)
	}{
		{"view id", "re-registered", func(view map[string]any) { view["id"] = "cq-not-this-spec" }},
		{"view cells", "columnar", func(view map[string]any) {
			sl := view["slices"].([]any)[0].(map[string]any)
			b64 := sl["cells"].(string)
			sl["cells"] = b64[:len(b64)/8*4] // half the OCF bytes, still base64
		}},
	} {
		var doc map[string]any
		if err := json.Unmarshal(good, &doc); err != nil {
			t.Fatal(err)
		}
		corrupt.edit(doc["views"].([]any)[1].(map[string]any))
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, preRegistered := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pre-registered=%v", corrupt.name, preRegistered), func(t *testing.T) {
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				eng := newEngine()
				if preRegistered {
					if _, err := eng.Register(first.Spec); err != nil {
						t.Fatal(err)
					}
				}
				_, err := NewPumpSource(eng, w.broker, PumpConfig{Topics: w.topics, CheckpointDir: dir})
				if err == nil || !strings.Contains(err.Error(), corrupt.want) {
					t.Fatalf("the corrupt checkpoint: %v, want a %q error", err, corrupt.want)
				}
				if _, ok := eng.Get(second.ID); ok {
					t.Fatalf("the refused view %s stayed registered", second.ID)
				}
				v, ok := eng.Get(first.ID)
				if ok != preRegistered {
					t.Fatalf("view %s registered = %v after the refusal, want %v", first.ID, ok, preRegistered)
				}
				if !ok {
					if v, err = eng.Register(first.Spec); err != nil {
						t.Fatal(err)
					}
				}
				if st := v.Stats(); st.Applied != 0 || st.Cells != 0 {
					t.Fatalf("view %s kept %d applied records in %d cells", v.ID, st.Applied, st.Cells)
				}
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				pump, err := NewPumpSource(eng, w.broker, PumpConfig{Topics: w.topics, CheckpointDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if err := pump.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				checkEpoch(t, w, v, 0)
			})
		}
	}
}

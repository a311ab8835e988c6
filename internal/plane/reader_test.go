package plane_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"odakit/internal/cluster"
	"odakit/internal/faults"
	"odakit/internal/plane"
	"odakit/internal/resilience"
	"odakit/internal/stream"
)

// The Reader against a dumb reference, on both planes. The reference is
// what was published: per topic partition, the (key, value) at each
// offset, offsets being positions in a slice. Seeded schedules interleave
// publishes (whose byte retention trims heads the reader has not reached,
// and on the broker ship a topic the way a cluster follower is written,
// gaps adopted mid-log included), reader passes of random page size under
// injected transient fetch faults, and checkpoint round trips (a fresh
// Reader seeked to the old one's Offsets). Checked after every pass:
// records arrive in offset order with the published bytes, none twice; an
// offset the reader passed over is one the log no longer held (below the
// retention horizon, or inside an adopted gap); the cursor sits right
// after the last record delivered; and Lag()==0 exactly when the
// reference says nothing deliverable is left.

type refTopic struct {
	cfg   stream.TopicConfig
	parts [][]stream.Message // parts[p][offset]
	// holes[p] holds the offsets of partition p a shipment jumped over;
	// nil unless the topic is shipped.
	holes []map[int64]bool
}

type world struct {
	t      *testing.T
	s      plane.Stream
	topics map[string]*refTopic
	// delivered[topic][p] is the set of offsets handed to the callback.
	delivered map[string][]map[int64]bool
	// holesSkipped counts retained-log holes a pass stepped over.
	holesSkipped int
}

func (w *world) publish(rng *rand.Rand, topic string) {
	rt := w.topics[topic]
	msgs := make([]stream.Message, 1+rng.Intn(40))
	for i := range msgs {
		msgs[i] = stream.Message{
			Key:   []byte(fmt.Sprintf("k%02d", rng.Intn(24))),
			Value: []byte(fmt.Sprintf("%s-%d", topic, rng.Int63())),
		}
	}
	if n, err := w.s.PublishBatch(topic, msgs); err != nil || n != len(msgs) {
		w.t.Fatalf("publish %s: %d of %d, %v", topic, n, len(msgs), err)
	}
	for _, m := range msgs {
		p := stream.KeyPartition(m.Key, len(rt.parts))
		rt.parts[p] = append(rt.parts[p], m)
	}
}

// ship writes one partition of a shipped topic through ReplicateBatch with
// leader-assigned offsets, as a cluster follower is written. One shipment
// in four starts past the log's end, and the log adopts the gap — a hole
// mid-log once it holds records, the one way a log gets one.
func (w *world) ship(rng *rand.Rand, topic string) {
	rt := w.topics[topic]
	p := rng.Intn(len(rt.parts))
	if rng.Intn(4) == 0 {
		for n := 1 + rng.Intn(6); n > 0; n-- {
			rt.holes[p][int64(len(rt.parts[p]))] = true
			rt.parts[p] = append(rt.parts[p], stream.Message{})
		}
	}
	recs := make([]stream.Record, 1+rng.Intn(40))
	ts := time.Now()
	for i := range recs {
		m := stream.Message{
			Key:   []byte(fmt.Sprintf("k%02d", rng.Intn(24))),
			Value: []byte(fmt.Sprintf("%s-%d", topic, rng.Int63())),
		}
		recs[i] = stream.Record{Offset: int64(len(rt.parts[p])), Ts: ts, Key: m.Key, Value: m.Value}
		rt.parts[p] = append(rt.parts[p], m)
	}
	if err := w.s.(*stream.Broker).ReplicateBatch(topic, p, recs); err != nil {
		w.t.Fatalf("ship %s/%d: %v", topic, p, err)
	}
}

// gone reports whether the log may legitimately no longer hold offset off
// of a partition whose retention horizon is oldest: it is below the
// horizon or inside an adopted gap.
func (rt *refTopic) gone(p int, off, oldest int64) bool {
	return off < oldest || rt.holes != nil && rt.holes[p][off]
}

// pass makes one Reader pass and checks it against the reference.
func (w *world) pass(r *plane.Reader, max int) {
	t := w.t
	before := r.Offsets()
	last := map[string][]int64{}
	for topic, offs := range before {
		last[topic] = make([]int64, len(offs))
		for p := range offs {
			last[topic][p] = -1
		}
	}
	_, err := r.Poll(context.Background(), max, func(topic string, p int, recs []stream.Record) error {
		rt := w.topics[topic]
		if len(recs) == 0 || len(recs) > max {
			t.Fatalf("%s/%d: page of %d records for max %d", topic, p, len(recs), max)
		}
		if last[topic][p] >= 0 {
			t.Fatalf("%s/%d: two pages in one pass", topic, p)
		}
		for _, rec := range recs {
			if rec.Offset < before[topic][p] || rec.Offset <= last[topic][p] {
				t.Fatalf("%s/%d: offset %d after %d (cursor was %d)", topic, p, rec.Offset, last[topic][p], before[topic][p])
			}
			if rec.Offset >= int64(len(rt.parts[p])) {
				t.Fatalf("%s/%d: offset %d was never published (%d were)", topic, p, rec.Offset, len(rt.parts[p]))
			}
			if want := rt.parts[p][rec.Offset]; string(rec.Value) != string(want.Value) || string(rec.Key) != string(want.Key) {
				t.Fatalf("%s/%d@%d: got %q, published %q", topic, p, rec.Offset, rec.Value, want.Value)
			}
			if w.delivered[topic][p][rec.Offset] {
				t.Fatalf("%s/%d@%d delivered twice", topic, p, rec.Offset)
			}
			w.delivered[topic][p][rec.Offset] = true
			last[topic][p] = rec.Offset
		}
		return nil
	})
	if err != nil && !resilience.IsTransient(err) {
		t.Fatalf("pass: %v", err)
	}
	after := r.Offsets()
	deliverable := false
	for topic, rt := range w.topics {
		for p := range rt.parts {
			cur, was := after[topic][p], before[topic][p]
			oldest, oerr := w.s.OldestOffset(topic, p)
			if oerr != nil {
				t.Fatal(oerr)
			}
			switch {
			case last[topic][p] >= 0 && cur != last[topic][p]+1:
				t.Fatalf("%s/%d: cursor %d after delivering up to %d", topic, p, cur, last[topic][p])
			case last[topic][p] < 0 && cur != was && cur != oldest:
				t.Fatalf("%s/%d: cursor moved %d -> %d with nothing delivered (horizon %d)", topic, p, was, cur, oldest)
			}
			for off := was; off < cur; off++ {
				if !w.delivered[topic][p][off] && !rt.gone(p, off, oldest) {
					t.Fatalf("%s/%d: cursor %d is past offset %d, which was retained (horizon %d) and never delivered", topic, p, cur, off, oldest)
				}
				if off >= oldest && rt.gone(p, off, oldest) {
					w.holesSkipped++
				}
			}
			for off := cur; off < int64(len(rt.parts[p])); off++ {
				if !rt.gone(p, off, oldest) {
					deliverable = true
				}
			}
		}
	}
	lag, lerr := r.Lag()
	if lerr != nil {
		t.Fatal(lerr)
	}
	// Offsets at the very end of a log are never "gone" (retention keeps
	// the newest record, and a gap is adopted only with the records after
	// it), so lag counts offsets and the reference counts records yet they
	// reach zero together.
	if (lag == 0) == deliverable {
		t.Fatalf("Lag() = %d but the reference says deliverable-left = %v", lag, deliverable)
	}
}

// runReaderSchedule drives one seeded schedule over the topics cfgs names;
// shipped, when not "", is a topic written by ship rather than published
// (s must then be a *stream.Broker).
func runReaderSchedule(t *testing.T, seed int64, s plane.Stream, cfgs map[string]stream.TopicConfig, shipped string, inj *faults.Injector, fetchOp string) {
	rng := rand.New(rand.NewSource(seed))
	w := &world{t: t, s: s, topics: map[string]*refTopic{}, delivered: map[string][]map[int64]bool{}}
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names) // so a seed draws the same schedule every run
	for _, name := range names {
		cfg := cfgs[name]
		if err := s.EnsureTopic(name, cfg); err != nil {
			t.Fatal(err)
		}
		rt := &refTopic{cfg: cfg, parts: make([][]stream.Message, cfg.Partitions)}
		if name == shipped {
			rt.holes = make([]map[int64]bool, cfg.Partitions)
			for p := range rt.holes {
				rt.holes[p] = map[int64]bool{}
			}
		}
		w.topics[name] = rt
		w.delivered[name] = make([]map[int64]bool, cfg.Partitions)
		for p := range w.delivered[name] {
			w.delivered[name][p] = map[int64]bool{}
		}
	}
	newReader := func() *plane.Reader {
		r, err := plane.NewReader(s, names...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := newReader()
	inj.Set(fetchOp, faults.Rates{Transient: 0.15})
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			if name := names[rng.Intn(len(names))]; name == shipped {
				w.ship(rng, name)
			} else {
				w.publish(rng, name)
			}
		case op < 9:
			w.pass(r, 1+rng.Intn(32))
		default:
			// Checkpoint and restart: a new reader takes over at Offsets.
			offs := r.Offsets()
			r = newReader()
			if err := r.Seek(offs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := inj.Stats()[fetchOp]; st.Transients == 0 {
		t.Fatalf("seed %d: the schedule injected no %s faults: %s", seed, fetchOp, inj)
	}
	inj.Set(fetchOp, faults.Rates{})
	for lag := int64(1); lag > 0; {
		w.pass(r, 64)
		lag, _ = r.Lag()
	}
	lost := 0
	for topic, rt := range w.topics {
		for p, log := range rt.parts {
			lost += len(log) - len(w.delivered[topic][p])
		}
	}
	if lost == 0 {
		t.Fatalf("seed %d: no record was lost to retention — the schedule never raced the reader against the horizon", seed)
	}
	if shipped != "" && w.holesSkipped == 0 {
		t.Fatalf("seed %d: no pass stepped over a hole in a retained log — the schedule never adopted a gap mid-log", seed)
	}
}

func TestReaderMatchesReferenceOnBothPlanes(t *testing.T) {
	plain := stream.TopicConfig{Partitions: 4, RetentionBytes: 2 << 10}
	for _, seed := range []int64{1, 2, 3, 20240601} {
		seed := seed
		t.Run(fmt.Sprintf("broker/seed%d", seed), func(t *testing.T) {
			b := stream.NewBroker()
			defer b.Close()
			inj := faults.New(seed)
			inj.InstallBroker(b)
			runReaderSchedule(t, seed, b, map[string]stream.TopicConfig{
				"t.plain":   plain,
				"t.shipped": {Partitions: 2, RetentionBytes: 4 << 10},
			}, "t.shipped", inj, faults.OpBrokerFetch)
		})
		t.Run(fmt.Sprintf("cluster/seed%d", seed), func(t *testing.T) {
			c, err := cluster.New([]string{"n1", "n2", "n3"}, cluster.Config{RF: 2})
			if err != nil {
				t.Fatal(err)
			}
			inj := faults.New(seed)
			inj.Install(c.Transport())
			runReaderSchedule(t, seed, c, map[string]stream.TopicConfig{
				"t.plain": plain,
				"t.other": {Partitions: 3, RetentionBytes: 4 << 10},
			}, "", inj, cluster.OpFetch)
		})
	}
}

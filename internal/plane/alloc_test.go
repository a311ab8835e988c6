package plane_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"odakit/internal/cluster"
	"odakit/internal/faults"
	"odakit/internal/plane"
	"odakit/internal/schema"
	"odakit/internal/stream"
)

// allocPage is the page size of the allocation tests: the pump's.
const allocPage = 512

// observationMessages encodes n observations of a few series as a
// producer does, keyed so that a two-partition topic takes every other
// one.
func observationMessages(n int) []stream.Message {
	var keys [][]byte
	for c := 0; len(keys) < 2; c++ {
		if k := []byte(fmt.Sprintf("node%05d", c)); stream.KeyPartition(k, 2) == len(keys) {
			keys = append(keys, k)
		}
	}
	msgs := make([]stream.Message, n)
	for i := range msgs {
		o := schema.Observation{
			Ts: time.Unix(1717200000, int64(i)).UTC(), System: "compass", Source: "power_temp",
			Component: string(keys[i%2]), Metric: "node_power_w", Value: float64(i),
		}
		msgs[i] = stream.Message{Key: keys[i%2], Value: schema.EncodeRow(o.Row())}
	}
	return msgs
}

// TestReaderPollAllocatesNothing: once its page has grown, a Reader
// delivers a page per partition without allocating, on a broker and on a
// cluster. Each run reads the next page of every partition.
func TestReaderPollAllocatesNothing(t *testing.T) {
	const runs = 20
	c, err := cluster.New([]string{"n1", "n2", "n3"}, cluster.Config{RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := stream.NewBroker()
	defer b.Close()
	for name, s := range map[string]plane.Stream{"broker": b, "cluster": c} {
		t.Run(name, func(t *testing.T) {
			if err := s.EnsureTopic("t", stream.TopicConfig{Partitions: 2}); err != nil {
				t.Fatal(err)
			}
			msgs := observationMessages(allocPage)
			// runs+2 pages per partition: the warm-up pass, the one
			// AllocsPerRun adds, and runs more.
			for i := 0; i < 2*(runs+2); i++ {
				if _, err := s.PublishBatch("t", msgs); err != nil {
					t.Fatal(err)
				}
			}
			r, err := plane.NewReader(s, "t")
			if err != nil {
				t.Fatal(err)
			}
			read := 0
			poll := func() {
				n, err := r.Poll(context.Background(), allocPage, func(string, int, []stream.Record) error { return nil })
				if err != nil || n == 0 {
					t.Fatalf("poll read %d records: %v", n, err)
				}
				read += n
			}
			poll()
			if allocs := testing.AllocsPerRun(runs, poll); allocs != 0 {
				t.Fatalf("Poll allocated %.1f times per pass of full pages, want 0", allocs)
			}
			if read != (runs+2)*2*allocPage {
				t.Fatalf("read %d records, want %d", read, (runs+2)*2*allocPage)
			}
		})
	}
}

// TestDecoderAllocatesNothing: once its arena, its rows and its interner
// have grown, a Decoder decodes a page of well-formed records without
// allocating.
func TestDecoderAllocatesNothing(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	if err := b.EnsureTopic("t", stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishBatchTo("t", 0, observationMessages(2*allocPage)); err != nil {
		t.Fatal(err)
	}
	var pages [2][]stream.Record
	for i := range pages {
		recs, err := b.FetchNoWait("t", 0, int64(i*allocPage), allocPage)
		if err != nil || len(recs) != allocPage {
			t.Fatalf("page %d: %d records, %v", i, len(recs), err)
		}
		pages[i] = recs
	}
	d := plane.NewDecoder(b, "test", schema.ObservationSchema, func(_ context.Context, fn func() error) error { return fn() })
	k := 0
	decode := func() {
		rows, bad, err := d.Decode(context.Background(), "t", 0, pages[k%2])
		if err != nil || bad != 0 || len(rows) != allocPage {
			t.Fatalf("decoded %d rows, %d bad: %v", len(rows), bad, err)
		}
		k++
	}
	decode()
	if allocs := testing.AllocsPerRun(50, decode); allocs != 0 {
		t.Fatalf("Decode allocated %.1f times per page, want 0", allocs)
	}
}

// TestReaderPageHoldsNoRecordWhenIdle: the headers a Reader reuses are
// zeroed once the callback returns, so an idle reader pins no chunk arena
// that retention or a topic delete has dropped. The callback here keeps
// recs against Poll's rule only to look at the storage afterwards.
func TestReaderPageHoldsNoRecordWhenIdle(t *testing.T) {
	c, err := cluster.New([]string{"n1", "n2", "n3"}, cluster.Config{RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := stream.NewBroker()
	defer b.Close()
	for name, s := range map[string]plane.Stream{"broker": b, "cluster": c} {
		t.Run(name, func(t *testing.T) {
			if err := s.EnsureTopic("t", stream.TopicConfig{Partitions: 2}); err != nil {
				t.Fatal(err)
			}
			r, err := plane.NewReader(s, "t")
			if err != nil {
				t.Fatal(err)
			}
			// A long page, then a short one into the same headers: the
			// short one must not leave the long one's tail behind.
			for _, n := range []int{2 * allocPage, 8} {
				if _, err := s.PublishBatch("t", observationMessages(n)); err != nil {
					t.Fatal(err)
				}
				var seen [][]stream.Record
				if _, err := r.Poll(context.Background(), allocPage, func(_ string, _ int, recs []stream.Record) error {
					seen = append(seen, recs)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if len(seen) == 0 {
					t.Fatal("poll delivered nothing")
				}
				for _, recs := range seen {
					for i, rec := range recs[:cap(recs)] {
						if rec.Key != nil || rec.Value != nil {
							t.Fatalf("after Poll, header %d of a delivered page still points at offset %d", i, rec.Offset)
						}
					}
				}
			}
		})
	}
}

// TestPublishKeepsNoMessageBytes holds PublishBatch's promise on a
// broker, a memory cluster and a cluster staging through WALs: once a
// publish returns, the caller may overwrite its messages' bytes — here
// one arena, refilled for the next batch as core.IngestWindow does —
// and the log still reads back what was published. A partial failure's
// Failed remainder aliases the caller's bytes until it is retried.
func TestPublishKeepsNoMessageBytes(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	mem, err := cluster.New([]string{"n1", "n2", "n3"}, cluster.Config{RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	walled, err := cluster.New([]string{"n1", "n2", "n3"}, cluster.Config{RF: 2, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]plane.Stream{"broker": b, "cluster": mem, "cluster+wal": walled} {
		t.Run(name, func(t *testing.T) {
			if err := s.EnsureTopic("t", stream.TopicConfig{Partitions: 2}); err != nil {
				t.Fatal(err)
			}
			want := map[int][]string{}
			var arena []byte
			for batch := 0; batch < 3; batch++ {
				arena = arena[:0]
				var msgs []stream.Message
				for _, m := range observationMessages(64) {
					start := len(arena)
					arena = append(append(append(arena, m.Key...), m.Value...), byte(batch)) // each batch's bytes differ
					mid := start + len(m.Key)
					msgs = append(msgs, stream.Message{Key: arena[start:mid:mid], Value: arena[mid:len(arena):len(arena)]})
					p := stream.KeyPartition(m.Key, 2)
					want[p] = append(want[p], fmt.Sprintf("%s=%x", m.Key, msgs[len(msgs)-1].Value))
				}
				if _, err := s.PublishBatch("t", msgs); err != nil {
					t.Fatal(err)
				}
				for i := range arena {
					arena[i] = 0xff
				}
			}
			for p := 0; p < 2; p++ {
				recs, err := s.AppendRecords(nil, "t", p, 0, 1000)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != len(want[p]) {
					t.Fatalf("partition %d holds %d records, want %d", p, len(recs), len(want[p]))
				}
				for i, r := range recs {
					if got := fmt.Sprintf("%s=%x", r.Key, r.Value); got != want[p][i] {
						t.Fatalf("partition %d record %d reads %s after its bytes were overwritten, want %s", p, i, got, want[p][i])
					}
				}
			}
		})
	}

	// One partition's sub-batch fails: Failed is the caller's own bytes,
	// and publishing it again lands them.
	if err := b.EnsureTopic("partial", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	msgs := observationMessages(8)
	fail := true
	b.SetFaultHook(func(op, _ string) error {
		if op == faults.OpBrokerPublish && fail {
			fail = false
			return errors.New("injected")
		}
		return nil
	})
	_, err = b.PublishBatch("partial", msgs)
	var pp *stream.PartialPublishError
	if !errors.As(err, &pp) || len(pp.Failed) != 4 {
		t.Fatalf("publish with one failing partition: %v", err)
	}
	for _, m := range pp.Failed {
		if !slices.ContainsFunc(msgs, func(o stream.Message) bool { return &o.Value[0] == &m.Value[0] }) {
			t.Fatal("a Failed message does not alias the caller's bytes")
		}
	}
	if n, err := b.PublishBatch("partial", pp.Failed); err != nil || n != 4 {
		t.Fatalf("retrying Failed published %d: %v", n, err)
	}
}

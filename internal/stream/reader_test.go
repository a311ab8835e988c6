package stream_test

// What a consumer of the broker sees, through the one reader every
// consumer uses (plane.Reader): the cases that used to exercise the
// broker's own Consumer type, minus the behaviour that went with it
// (start-latest, broker-held commits, seek-to-time, groups).

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"odakit/internal/plane"
	"odakit/internal/stream"
)

func newTelemetryBroker(t *testing.T, cfg stream.TopicConfig) *stream.Broker {
	t.Helper()
	b := stream.NewBroker()
	if err := b.CreateTopic("telemetry", cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func publishN(t *testing.T, b *stream.Broker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := b.PublishBatch("telemetry", []stream.Message{{Value: []byte(fmt.Sprintf("v%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
}

func newReader(t *testing.T, b *stream.Broker) *plane.Reader {
	t.Helper()
	r, err := plane.NewReader(b, "telemetry")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pollAll makes one pass and returns the record values it delivered.
func pollAll(t *testing.T, r *plane.Reader, max int) []string {
	t.Helper()
	var vals []string
	_, err := r.Poll(context.Background(), max, func(_ string, _ int, recs []stream.Record) error {
		for _, rec := range recs {
			vals = append(vals, string(rec.Value))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestConsumerPollDrainsAllPartitions(t *testing.T) {
	b := newTelemetryBroker(t, stream.TopicConfig{Partitions: 4})
	publishN(t, b, 100)
	r := newReader(t, b)
	total := 0
	for total < 100 {
		got := len(pollAll(t, r, 16))
		if got == 0 {
			t.Fatalf("reader stalled at %d of 100 records", total)
		}
		total += got
	}
	if total != 100 {
		t.Fatalf("polled %d records, want 100", total)
	}
	if lag, err := r.Lag(); err != nil || lag != 0 {
		t.Fatalf("lag after draining = %d, %v", lag, err)
	}
}

// TestUncommittedProgressIsNotPersisted: a reader's progress lives in
// the reader alone. A second reader starts over; one seeked to the
// first's Offsets resumes right after it.
func TestUncommittedProgressIsNotPersisted(t *testing.T) {
	b := newTelemetryBroker(t, stream.TopicConfig{Partitions: 1})
	publishN(t, b, 10)
	r1 := newReader(t, b)
	if got := pollAll(t, r1, 6); len(got) != 6 {
		t.Fatalf("first poll got %d", len(got))
	}
	if got := pollAll(t, newReader(t, b), 100); len(got) != 10 {
		t.Fatalf("a fresh reader saw %d records, want all 10", len(got))
	}
	r2 := newReader(t, b)
	if err := r2.Seek(r1.Offsets()); err != nil {
		t.Fatal(err)
	}
	if got := pollAll(t, r2, 100); len(got) != 4 || got[0] != "v6" {
		t.Fatalf("resumed reader got %v, want v6..v9", got)
	}
}

// TestIndependentGroups: what the paper uses consumer groups for —
// independent consumers each reading the whole topic at their own pace —
// is one reader per consumer.
func TestIndependentGroups(t *testing.T) {
	b := newTelemetryBroker(t, stream.TopicConfig{Partitions: 1})
	publishN(t, b, 3)
	ra, rb := newReader(t, b), newReader(t, b)
	if got1, got2 := pollAll(t, ra, 10), pollAll(t, rb, 10); len(got1) != 3 || len(got2) != 3 {
		t.Fatalf("readers saw %d and %d records, want 3 and 3", len(got1), len(got2))
	}
}

func TestSeekReplay(t *testing.T) {
	b := newTelemetryBroker(t, stream.TopicConfig{Partitions: 1})
	publishN(t, b, 10)
	r := newReader(t, b)
	if got := pollAll(t, r, 10); len(got) != 10 {
		t.Fatalf("first pass got %d records", len(got))
	}
	if off := r.Offsets()["telemetry"]; len(off) != 1 || off[0] != 10 {
		t.Fatalf("offsets after the pass = %v", off)
	}
	if err := r.Seek(map[string][]int64{"telemetry": {3}}); err != nil {
		t.Fatal(err)
	}
	if got := pollAll(t, r, 100); len(got) != 7 || got[0] != "v3" {
		t.Fatalf("replay got %v, want v3..v9", got)
	}
	if err := r.Seek(map[string][]int64{"telemetry": {0, 0}}); !errors.Is(err, stream.ErrNoPartition) {
		t.Fatalf("Seek on a partition the topic lacks: %v", err)
	}
	if err := r.Seek(map[string][]int64{"elsewhere": {5}}); err != nil {
		t.Fatalf("Seek naming a topic the reader does not read: %v", err)
	}
}

func TestConsumerSkipsTrimmedOffsets(t *testing.T) {
	b := newTelemetryBroker(t, stream.TopicConfig{Partitions: 1, RetentionBytes: 300})
	r := newReader(t, b)
	payload := make([]byte, 64)
	for i := 0; i < 30; i++ {
		if _, err := b.PublishBatch("telemetry", []stream.Message{{Value: payload}}); err != nil {
			t.Fatal(err)
		}
	}
	// The cursor (0) is far below the retention horizon; the pass must
	// resume at the oldest retained record instead of erroring out.
	oldest, _ := b.OldestOffset("telemetry", 0)
	var first int64 = -1
	n, err := r.Poll(context.Background(), 1000, func(_ string, _ int, recs []stream.Record) error {
		first = recs[0].Offset
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || oldest == 0 || first != oldest {
		t.Fatalf("got %d records from offset %d, want the retained tail from %d", n, first, oldest)
	}
}

func TestPollContextCancel(t *testing.T) {
	b := newTelemetryBroker(t, stream.TopicConfig{Partitions: 3})
	publishN(t, b, 9)
	r := newReader(t, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := r.Poll(ctx, 10, func(string, int, []stream.Record) error {
		t.Error("a cancelled pass delivered records")
		return nil
	})
	if n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Poll = %d, %v", n, err)
	}
	if err := r.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait = %v", err)
	}
	if got := pollAll(t, r, 10); len(got) != 9 {
		t.Fatalf("after the cancelled pass the reader delivered %d records, want all 9", len(got))
	}
}

func TestPollWakesOnPublish(t *testing.T) {
	b := newTelemetryBroker(t, stream.TopicConfig{Partitions: 3})
	r := newReader(t, b)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		for {
			n, err := r.Poll(ctx, 10, func(string, int, []stream.Record) error { return nil })
			if err == nil && n == 0 {
				err = r.Wait(ctx)
			}
			if err != nil || n > 0 {
				done <- err
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := b.PublishBatch("telemetry", []stream.Message{{Key: []byte("k"), Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("idling reader never saw the publish: %v", err)
	}
}

func TestSubscribeMissingTopic(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	if _, err := plane.NewReader(b, "ghost"); !errors.Is(err, stream.ErrNoTopic) {
		t.Fatalf("err = %v", err)
	}
}

package sproc_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"odakit/internal/cluster"
	"odakit/internal/plane"
	"odakit/internal/sproc"
	"odakit/internal/stream"
)

// TestReadDeadLettersOnTrimmedDLQ: a DLQ is "bounded by retention", so
// its head may be gone by the time someone reads it. The read must
// return what is still retained, in offset order, instead of failing at
// offset 0 — on the facility's own broker and on a replicated cluster.
func TestReadDeadLettersOnTrimmedDLQ(t *testing.T) {
	planes := map[string]func(t *testing.T) plane.Stream{
		"broker": func(t *testing.T) plane.Stream {
			b := stream.NewBroker()
			t.Cleanup(b.Close)
			return b
		},
		"cluster": func(t *testing.T) plane.Stream {
			c, err := cluster.New([]string{"n1", "n2", "n3"}, cluster.Config{RF: 2})
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
	for name, open := range planes {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			const topic = "bronze"
			if got, err := sproc.ReadDeadLetters(context.Background(), s, topic); err != nil || len(got) != 0 {
				t.Fatalf("no DLQ yet: %d records, err %v", len(got), err)
			}
			if err := s.EnsureTopic(sproc.DLQTopic(topic), stream.TopicConfig{Partitions: 1, RetentionBytes: 4 << 10}); err != nil {
				t.Fatal(err)
			}
			const total = 200
			for i := 0; i < total; i += 20 {
				var dead []sproc.DeadRecord
				for k := i; k < i+20; k++ {
					dead = append(dead, sproc.DeadRecord{
						Topic: topic, Partition: k % 4, Offset: int64(k), Ts: time.Unix(int64(k), 0).UTC(),
						Reason: "poison", Payload: []byte(fmt.Sprintf("payload-%03d", k)),
					})
				}
				if n, err := sproc.DeadLetter(s, dead); err != nil || n != len(dead) {
					t.Fatalf("dead-letter: %d, %v", n, err)
				}
			}
			oldest, err := s.OldestOffset(sproc.DLQTopic(topic), 0)
			if err != nil || oldest == 0 {
				t.Fatalf("retention did not trim the DLQ head (oldest %d, err %v)", oldest, err)
			}
			got, err := sproc.ReadDeadLetters(context.Background(), s, topic)
			if err != nil {
				t.Fatalf("read of a trimmed DLQ: %v", err)
			}
			if len(got) != total-int(oldest) {
				t.Fatalf("read %d dead letters, the DLQ retains %d", len(got), total-int(oldest))
			}
			for i, d := range got {
				if want := oldest + int64(i); d.Offset != want || string(d.Payload) != fmt.Sprintf("payload-%03d", want) {
					t.Fatalf("dead letter %d is %d (%q), want origin offset %d", i, d.Offset, d.Payload, want)
				}
			}
		})
	}
}

package sproc_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"odakit/internal/cluster"
	"odakit/internal/plane"
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
			if got, err := plane.ReadDeadLetters(context.Background(), s, topic); err != nil || len(got) != 0 {
				t.Fatalf("no DLQ yet: %d records, err %v", len(got), err)
			}
			if err := s.EnsureTopic(plane.DLQTopic(topic), stream.TopicConfig{Partitions: 1, RetentionBytes: 4 << 10}); err != nil {
				t.Fatal(err)
			}
			const total = 200
			for i := 0; i < total; i += 20 {
				var dead []plane.DeadRecord
				for k := i; k < i+20; k++ {
					dead = append(dead, plane.DeadRecord{
						Topic: topic, Partition: k % 4, Offset: int64(k), Ts: time.Unix(int64(k), 0).UTC(),
						Reason: "poison", Payload: []byte(fmt.Sprintf("payload-%03d", k)),
					})
				}
				if err := plane.DeadLetter(s, topic, dead); err != nil {
					t.Fatalf("dead-letter: %v", err)
				}
			}
			oldest, err := s.OldestOffset(plane.DLQTopic(topic), 0)
			if err != nil || oldest == 0 {
				t.Fatalf("retention did not trim the DLQ head (oldest %d, err %v)", oldest, err)
			}
			got, err := plane.ReadDeadLetters(context.Background(), s, topic)
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

// TestDeadLetterTopicIsBounded: DeadLetter creates a DLQ under
// DLQRetentionBytes, so a flood of poison records past the cap trims the
// oldest instead of growing the topic, and the read returns the newest
// records in order.
func TestDeadLetterTopicIsBounded(t *testing.T) {
	const (
		topic   = "bronze"
		payload = 768 << 10 // 1 MiB once base64-encoded into the DLQ row
		total   = 72        // ~72 MiB dead-lettered against a 64 MiB cap
	)
	b := stream.NewBroker()
	defer b.Close()
	for k := 0; k < total; k += 8 {
		var dead []plane.DeadRecord
		for i := k; i < k+8; i++ {
			dead = append(dead, plane.DeadRecord{
				Topic: topic, Offset: int64(i), Ts: time.Unix(int64(i), 0).UTC(),
				Reason: "poison", Payload: bytes.Repeat([]byte{byte(i)}, payload),
			})
		}
		if err := plane.DeadLetter(b, topic, dead); err != nil {
			t.Fatalf("dead-letter: %v", err)
		}
	}
	st, err := b.Stats(plane.DLQTopic(topic))
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes > plane.DLQRetentionBytes || st.OldestOffsets[0] == 0 {
		t.Fatalf("the DLQ holds %d bytes from offset %d after %d MiB of dead letters, want at most %d and a trimmed head",
			st.Bytes, st.OldestOffsets[0], st.TotalBytes>>20, plane.DLQRetentionBytes)
	}
	got, err := plane.ReadDeadLetters(context.Background(), b, topic)
	if err != nil {
		t.Fatal(err)
	}
	oldest := st.OldestOffsets[0]
	if len(got) != total-int(oldest) {
		t.Fatalf("read %d dead letters, the DLQ retains %d", len(got), total-int(oldest))
	}
	for i, d := range got {
		if want := oldest + int64(i); d.Offset != want || len(d.Payload) != payload || d.Payload[0] != byte(want) {
			t.Fatalf("dead letter %d is origin offset %d, want %d (the newest, in order)", i, d.Offset, want)
		}
	}
}

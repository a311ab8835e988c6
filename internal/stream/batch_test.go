package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestPublishBatchRoundTrip(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1})
	var msgs []Message
	for i := 0; i < 7; i++ {
		msgs = append(msgs, Message{Key: []byte("k"), Value: []byte(fmt.Sprintf("v%d", i))})
	}
	n, err := b.PublishBatch("telemetry", msgs)
	if err != nil || n != 7 {
		t.Fatalf("published = %d, %v", n, err)
	}
	recs, err := b.Fetch(context.Background(), "telemetry", 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("fetched %d records", len(recs))
	}
	for i, r := range recs {
		if r.Offset != int64(i) || string(r.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// Empty batch is a no-op.
	if n, err := b.PublishBatch("telemetry", nil); err != nil || n != 0 {
		t.Fatalf("empty batch = %d, %v", n, err)
	}
	if _, err := b.PublishBatch("nope", msgs); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("missing topic err = %v", err)
	}
}

// TestPublishBatchMatchesPublishRouting proves batch routing lands every
// keyed record on the same partition publishing it alone would pick,
// preserving relative order within a partition.
func TestPublishBatchMatchesPublishRouting(t *testing.T) {
	single := newTestBroker(t, TopicConfig{Partitions: 4})
	batched := NewBroker()
	if err := batched.CreateTopic("telemetry", TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(batched.Close)

	var msgs []Message
	wantPart := make(map[string]int)
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("node%02d", i%9))
		val := []byte(fmt.Sprintf("v%d", i))
		before := endOffsets(t, single, "telemetry")
		if _, err := single.PublishBatch("telemetry", one(key, val)); err != nil {
			t.Fatal(err)
		}
		for p, end := range endOffsets(t, single, "telemetry") {
			if end > before[p] {
				wantPart[string(val)] = p
			}
		}
		msgs = append(msgs, Message{Key: key, Value: val})
	}
	if n, err := batched.PublishBatch("telemetry", msgs); err != nil || n != 64 {
		t.Fatalf("published = %d, %v", n, err)
	}
	for p := 0; p < 4; p++ {
		end, err := batched.EndOffset("telemetry", p)
		if err != nil {
			t.Fatal(err)
		}
		if end == 0 {
			continue // empty partition
		}
		recs, err := batched.Fetch(context.Background(), "telemetry", p, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		lastSeq := -1
		for _, r := range recs {
			if wantPart[string(r.Value)] != p {
				t.Fatalf("record %q on partition %d, published alone it went to %d", r.Value, p, wantPart[string(r.Value)])
			}
			var seq int
			fmt.Sscanf(string(r.Value), "v%d", &seq)
			if seq <= lastSeq {
				t.Fatalf("partition %d order violated: v%d after v%d", p, seq, lastSeq)
			}
			lastSeq = seq
		}
	}
}

// TestPublishBatchRetention: byte retention runs once per batch and still
// holds the log to its bound.
func TestPublishBatchRetention(t *testing.T) {
	rb := NewBroker()
	if err := rb.CreateTopic("tiny", TopicConfig{Partitions: 1, RetentionBytes: 200}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rb.Close)
	var big []Message
	for i := 0; i < 50; i++ {
		big = append(big, Message{Value: []byte("0123456789")})
	}
	if _, err := rb.PublishBatch("tiny", big); err != nil {
		t.Fatal(err)
	}
	rst, err := rb.Stats("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if rst.Bytes > 200+42 { // one record of slack, as in per-record retention
		t.Fatalf("retained %d bytes, cap 200", rst.Bytes)
	}
	if rst.OldestOffsets[0] == 0 {
		t.Fatal("retention never advanced the horizon")
	}
}

// TestPublishBatchWakesConsumer: one notify per batch still wakes a
// blocked fetcher.
func TestPublishBatchWakesConsumer(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1})
	done := make(chan []Record, 1)
	go func() {
		recs, err := b.Fetch(context.Background(), "telemetry", 0, 0, 10)
		if err != nil {
			done <- nil
			return
		}
		done <- recs
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := b.PublishBatch("telemetry", []Message{{Value: []byte("a")}, {Value: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	select {
	case recs := <-done:
		if len(recs) != 2 {
			t.Fatalf("woken fetch got %d records", len(recs))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fetch never woke after PublishBatch")
	}
}

// TestFetchNoWaitFutureOffset is the regression test for the
// fetch/fetchNoWait inconsistency: both must report ErrOffsetInFuture
// for offsets beyond the end of the log.
func TestFetchNoWaitFutureOffset(t *testing.T) {
	p := newPartition("t", 0)
	cfg := TopicConfig{}.withDefaults()
	if _, err := p.appendBatch(time.Now(), one(nil, []byte("v")), cfg); err != nil {
		t.Fatal(err)
	}
	// next == 1: offset 1 is valid-but-empty, offset 2 is in the future.
	if recs, err := p.fetchNoWait(1, 10); err != nil || len(recs) != 0 {
		t.Fatalf("fetchNoWait(end) = %v, %v", recs, err)
	}
	if _, err := p.fetchNoWait(2, 10); !errors.Is(err, ErrOffsetInFuture) {
		t.Fatalf("fetchNoWait(future) err = %v, want ErrOffsetInFuture", err)
	}
	// Same semantics as the blocking fetch.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := p.fetch(ctx, 2, 10); !errors.Is(err, ErrOffsetInFuture) {
		t.Fatalf("fetch(future) err = %v, want ErrOffsetInFuture", err)
	}
}

// TestDeleteTopicOnClosedBroker is the regression test for DeleteTopic
// ignoring the closed flag every other mutator honors.
func TestDeleteTopicOnClosedBroker(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("a", TopicConfig{}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if err := b.DeleteTopic("a"); !errors.Is(err, ErrBrokerClosed) {
		t.Fatalf("DeleteTopic on closed broker = %v, want ErrBrokerClosed", err)
	}
}

// TestConcurrentPublishBatchFetchDelete is the stream half of the ingest
// stress test: parallel PublishBatch / Fetch / DeleteTopic under -race.
func TestConcurrentPublishBatchFetchDelete(t *testing.T) {
	b := NewBroker()
	t.Cleanup(b.Close)
	if err := b.CreateTopic("hot", TopicConfig{Partitions: 4, RetentionBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	const producers = 8
	const batches = 50
	var wg sync.WaitGroup
	var published int64
	var mu sync.Mutex
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				msgs := make([]Message, 16)
				for j := range msgs {
					msgs[j] = Message{
						Key:   []byte(fmt.Sprintf("k%d", (w+j)%11)),
						Value: []byte(fmt.Sprintf("w%d-b%d-%d", w, i, j)),
					}
				}
				n, err := b.PublishBatch("hot", msgs)
				if err != nil {
					t.Errorf("publish: %v", err)
					return
				}
				mu.Lock()
				published += int64(n)
				mu.Unlock()
			}
		}(w)
	}
	// Concurrent readers poll whatever is retained.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st, err := b.Stats("hot")
				if err != nil {
					return // topic may be gone later in the churn test
				}
				for p := 0; p < st.Partitions; p++ {
					_, err := b.Fetch(ctx, "hot", p, st.OldestOffsets[p], 64)
					if err != nil && !errors.Is(err, ErrOffsetTrimmed) &&
						!errors.Is(err, ErrOffsetInFuture) && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("fetch: %v", err)
						return
					}
				}
			}
		}()
	}
	// Topic churn on the side: create/delete a scratch topic while the
	// hot topic is under load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("scratch%d", i%3)
			if err := b.EnsureTopic(name, TopicConfig{Partitions: 2}); err != nil {
				t.Errorf("ensure: %v", err)
				return
			}
			_, _ = b.PublishBatch(name, []Message{{Value: []byte("x")}})
			if err := b.DeleteTopic(name); err != nil && !errors.Is(err, ErrNoTopic) {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	st, err := b.Stats("hot")
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalRecords != published || published != producers*batches*16 {
		t.Fatalf("total published = %d broker says %d, want %d", published, st.TotalRecords, producers*batches*16)
	}
	var end int64
	for _, e := range st.EndOffsets {
		end += e
	}
	if end != published {
		t.Fatalf("sum of end offsets %d != published %d (offsets must be dense)", end, published)
	}
}

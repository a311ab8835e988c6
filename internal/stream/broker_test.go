package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestBroker(t *testing.T, topicCfg TopicConfig) *Broker {
	t.Helper()
	b := NewBroker()
	if err := b.CreateTopic("telemetry", topicCfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

// one is a batch of one message: how a single record is published.
func one(key, value []byte) []Message { return []Message{{Key: key, Value: value}} }

// endOffsets is every partition's end offset.
func endOffsets(t *testing.T, b *Broker, topic string) []int64 {
	t.Helper()
	st, err := b.Stats(topic)
	if err != nil {
		t.Fatal(err)
	}
	return st.EndOffsets
}

func TestPublishFetchRoundTrip(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1})
	for i := 0; i < 5; i++ {
		off, err := b.PublishBatchTo("telemetry", 0, one([]byte("k"), []byte(fmt.Sprintf("v%d", i))))
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	recs, err := b.FetchNoWait("telemetry", 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("fetched %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if string(r.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("record %d value = %q", i, r.Value)
		}
		if r.Offset != int64(i) || r.Ts.IsZero() || string(r.Key) != "k" {
			t.Fatalf("record metadata wrong: %+v", r)
		}
	}
}

func TestKeyRoutingIsStable(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 8})
	for i := 0; i < 21; i++ {
		if _, err := b.PublishBatch("telemetry", one([]byte("node0042"), []byte("b"))); err != nil {
			t.Fatal(err)
		}
	}
	home := KeyPartition([]byte("node0042"), 8)
	for p, end := range endOffsets(t, b, "telemetry") {
		want := int64(0)
		if p == home {
			want = 21
		}
		if end != want {
			t.Fatalf("partition %d holds %d of the key's 21 records, want all on %d", p, end, home)
		}
	}
}

func TestKeylessRoundRobinSpreads(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 4})
	for i := 0; i < 16; i++ {
		if _, err := b.PublishBatch("telemetry", one(nil, []byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	for p, end := range endOffsets(t, b, "telemetry") {
		if end != 4 {
			t.Fatalf("round robin put %d of 16 records on partition %d, want 4", end, p)
		}
	}
}

func TestTopicLifecycle(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("a", TopicConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("a", TopicConfig{}); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("dup create err = %v", err)
	}
	if err := b.EnsureTopic("a", TopicConfig{}); err != nil {
		t.Fatalf("EnsureTopic on existing: %v", err)
	}
	if err := b.EnsureTopic("b", TopicConfig{}); err != nil {
		t.Fatal(err)
	}
	got := b.Topics()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Topics = %v", got)
	}
	if err := b.DeleteTopic("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteTopic("a"); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("delete missing err = %v", err)
	}
	if _, err := b.PublishBatch("a", one(nil, nil)); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("publish to deleted err = %v", err)
	}
}

// isClosed reports whether a Ready channel has fired, without waiting.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestFetchBlocksUntilPublish: a reader parked past the end of the log is
// released by the next publish, and the fetch it then makes sees it.
func TestFetchBlocksUntilPublish(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1})
	ch, err := b.Ready("telemetry", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if isClosed(ch) {
		t.Fatal("Ready fired on an empty log")
	}
	if _, err := b.PublishBatch("telemetry", one(nil, []byte("late"))); err != nil {
		t.Fatal(err)
	}
	if !isClosed(ch) {
		t.Fatal("Ready did not fire on publish")
	}
	recs, err := b.FetchNoWait("telemetry", 0, 0, 10)
	if err != nil || len(recs) != 1 || string(recs[0].Value) != "late" {
		t.Fatalf("fetch after the wake: %v, %v", recs, err)
	}
	if ch, err := b.Ready("telemetry", 0, 0); err != nil || !isClosed(ch) {
		t.Fatalf("Ready below the end comes back open (%v)", err)
	}
	if _, err := b.Ready("telemetry", 1, 0); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("Ready on a missing partition: %v", err)
	}
}

// TestFetchContextCancel: with nothing published a parked reader's ctx is
// what ends its wait.
func TestFetchContextCancel(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1})
	ch, err := b.Ready("telemetry", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	select {
	case <-ch:
		t.Fatal("Ready fired with nothing published")
	case <-ctx.Done():
	}
}

func TestRetentionByBytes(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1, RetentionBytes: 400})
	payload := make([]byte, 64)
	for i := 0; i < 20; i++ {
		if _, err := b.PublishBatch("telemetry", one(nil, payload)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Stats("telemetry")
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes > 400+96 { // one record of slack: newest always kept
		t.Fatalf("retained bytes = %d, want <= ~400", st.Bytes)
	}
	if st.TotalRecords != 20 {
		t.Fatalf("total records = %d, want 20", st.TotalRecords)
	}
	if st.OldestOffsets[0] == 0 {
		t.Fatal("head should have been trimmed")
	}
	// Reading a trimmed offset fails explicitly.
	if _, err := b.FetchNoWait("telemetry", 0, 0, 1); !errors.Is(err, ErrOffsetTrimmed) {
		t.Fatalf("err = %v, want ErrOffsetTrimmed", err)
	}
}

func TestFetchBeyondEnd(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1})
	_, _ = b.PublishBatch("telemetry", one(nil, []byte("x")))
	if _, err := b.FetchNoWait("telemetry", 0, 99, 1); !errors.Is(err, ErrOffsetInFuture) {
		t.Fatalf("err = %v, want ErrOffsetInFuture", err)
	}
}

func TestBrokerClose(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("x", TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	ch, err := b.Ready("x", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	if !isClosed(ch) {
		t.Fatal("a parked reader did not wake on close")
	}
	if _, err := b.FetchNoWait("x", 0, 0, 1); !errors.Is(err, ErrBrokerClosed) {
		t.Fatalf("fetch after close err = %v, want ErrBrokerClosed", err)
	}
	if _, err := b.Ready("x", 0, 0); !errors.Is(err, ErrBrokerClosed) {
		t.Fatalf("Ready after close err = %v, want ErrBrokerClosed", err)
	}
	if _, err := b.PublishBatch("x", one(nil, nil)); !errors.Is(err, ErrBrokerClosed) {
		t.Fatalf("publish after close err = %v", err)
	}
	b.Close() // idempotent
}

func TestConcurrentProducersOffsetsUnique(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1})
	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	offsets := make(chan int64, producers*perProducer)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				off, err := b.PublishBatchTo("telemetry", 0, one(nil, []byte("v")))
				if err != nil {
					t.Error(err)
					return
				}
				offsets <- off
			}
		}()
	}
	wg.Wait()
	close(offsets)
	seen := make(map[int64]bool)
	for off := range offsets {
		if seen[off] {
			t.Fatalf("duplicate offset %d", off)
		}
		seen[off] = true
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("got %d offsets, want %d", len(seen), producers*perProducer)
	}
	st, _ := b.Stats("telemetry")
	if st.EndOffsets[0] != producers*perProducer {
		t.Fatalf("end offset = %d", st.EndOffsets[0])
	}
}

func TestEndOffsetAndPartitions(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 3})
	n, err := b.Partitions("telemetry")
	if err != nil || n != 3 {
		t.Fatalf("Partitions = %d, %v", n, err)
	}
	if _, err := b.Partitions("nope"); !errors.Is(err, ErrNoTopic) {
		t.Fatal("Partitions should fail on missing topic")
	}
	off, err := b.EndOffset("telemetry", 0)
	if err != nil || off != 0 {
		t.Fatalf("EndOffset = %d, %v", off, err)
	}
	if _, err := b.EndOffset("telemetry", 9); !errors.Is(err, ErrNoPartition) {
		t.Fatal("EndOffset should fail on bad partition")
	}
	if _, err := b.PublishBatchTo("telemetry", 9, one(nil, nil)); !errors.Is(err, ErrNoPartition) {
		t.Fatal("PublishBatchTo should fail on bad partition")
	}
	if _, err := b.PublishBatchTo("telemetry", 2, one(nil, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	off, _ = b.EndOffset("telemetry", 2)
	if off != 1 {
		t.Fatalf("EndOffset after publish = %d, want 1", off)
	}
}

// Property: per partition, fetched offsets are exactly the published
// sequence (no loss, no duplication, order preserved).
func TestPublishFetchOrderProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBroker()
		defer b.Close()
		if err := b.CreateTopic("t", TopicConfig{Partitions: 3}); err != nil {
			return false
		}
		count := int(n)%100 + 1
		published := map[int][]string{}
		for i := 0; i < count; i++ {
			part := rng.Intn(3)
			val := fmt.Sprintf("p%d-v%d", part, i)
			if _, err := b.PublishBatchTo("t", part, one(nil, []byte(val))); err != nil {
				return false
			}
			published[part] = append(published[part], val)
		}
		for part := 0; part < 3; part++ {
			if len(published[part]) == 0 {
				continue
			}
			recs, err := b.FetchNoWait("t", part, 0, count+1)
			if err != nil {
				return false
			}
			if len(recs) != len(published[part]) {
				return false
			}
			for i, r := range recs {
				if string(r.Value) != published[part][i] {
					return false
				}
				if i > 0 && recs[i].Offset != recs[i-1].Offset+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

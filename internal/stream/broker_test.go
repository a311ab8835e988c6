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

func TestPublishFetchRoundTrip(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1})
	for i := 0; i < 5; i++ {
		_, off, err := b.Publish("telemetry", []byte("k"), []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	recs, err := b.Fetch(context.Background(), "telemetry", 0, 0, 10)
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
	p1, _, err := b.Publish("telemetry", []byte("node0042"), []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p2, _, err := b.Publish("telemetry", []byte("node0042"), []byte("b"))
		if err != nil {
			t.Fatal(err)
		}
		if p2 != p1 {
			t.Fatalf("same key routed to partitions %d and %d", p1, p2)
		}
	}
}

func TestKeylessRoundRobinSpreads(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 4})
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		p, _, err := b.Publish("telemetry", nil, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Fatalf("round robin touched %d partitions, want 4", len(seen))
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
	if _, _, err := b.Publish("a", nil, nil); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("publish to deleted err = %v", err)
	}
}

func TestFetchBlocksUntilPublish(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1})
	done := make(chan []Record, 1)
	go func() {
		recs, err := b.Fetch(context.Background(), "telemetry", 0, 0, 10)
		if err != nil {
			t.Error(err)
		}
		done <- recs
	}()
	select {
	case <-done:
		t.Fatal("fetch returned before publish")
	case <-time.After(20 * time.Millisecond):
	}
	if _, _, err := b.Publish("telemetry", nil, []byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case recs := <-done:
		if len(recs) != 1 || string(recs[0].Value) != "late" {
			t.Fatalf("got %v", recs)
		}
	case <-time.After(time.Second):
		t.Fatal("fetch did not wake after publish")
	}
}

func TestFetchContextCancel(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := b.Fetch(ctx, "telemetry", 0, 0, 10)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestRetentionByBytes(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1, RetentionBytes: 400})
	payload := make([]byte, 64)
	for i := 0; i < 20; i++ {
		if _, _, err := b.Publish("telemetry", nil, payload); err != nil {
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
	if _, err := b.Fetch(context.Background(), "telemetry", 0, 0, 1); !errors.Is(err, ErrOffsetTrimmed) {
		t.Fatalf("err = %v, want ErrOffsetTrimmed", err)
	}
}

func TestRetentionByAge(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1, RetentionAge: time.Minute})
	clock := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	b.SetClock(func() time.Time { return clock })
	if _, _, err := b.Publish("telemetry", nil, []byte("old")); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(2 * time.Minute)
	if _, _, err := b.Publish("telemetry", nil, []byte("new")); err != nil {
		t.Fatal(err)
	}
	st, _ := b.Stats("telemetry")
	if st.Records != 1 {
		t.Fatalf("retained %d records, want 1 (old one aged out)", st.Records)
	}
	recs, err := b.Fetch(context.Background(), "telemetry", 0, st.OldestOffsets[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Value) != "new" {
		t.Fatalf("survivor = %q, want new", recs[0].Value)
	}
}

func TestFetchBeyondEnd(t *testing.T) {
	b := newTestBroker(t, TopicConfig{Partitions: 1})
	_, _, _ = b.Publish("telemetry", nil, []byte("x"))
	if _, err := b.Fetch(context.Background(), "telemetry", 0, 99, 1); !errors.Is(err, ErrOffsetInFuture) {
		t.Fatalf("err = %v, want ErrOffsetInFuture", err)
	}
}

func TestBrokerClose(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("x", TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := b.Fetch(context.Background(), "x", 0, 0, 1)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrBrokerClosed) {
			t.Fatalf("err = %v, want ErrBrokerClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked fetch did not wake on close")
	}
	if _, _, err := b.Publish("x", nil, nil); !errors.Is(err, ErrBrokerClosed) {
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
				_, off, err := b.Publish("telemetry", nil, []byte("v"))
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
	if _, err := b.PublishTo("telemetry", 9, nil, nil); !errors.Is(err, ErrNoPartition) {
		t.Fatal("PublishTo should fail on bad partition")
	}
	if _, err := b.PublishTo("telemetry", 2, nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	off, _ = b.EndOffset("telemetry", 2)
	if off != 1 {
		t.Fatalf("EndOffset after publish = %d, want 1", off)
	}
}

func TestCompactedTopicKeepsLatestPerKey(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("crm", TopicConfig{Partitions: 1, Compacted: true, CompactEvery: 8}); err != nil {
		t.Fatal(err)
	}
	// Write 5 versions of 4 keys: compaction should leave the newest of
	// each once the threshold trips.
	for v := 0; v < 5; v++ {
		for k := 0; k < 4; k++ {
			key := fmt.Sprintf("user%02d", k)
			if _, _, err := b.Publish("crm", []byte(key), []byte(fmt.Sprintf("v%d", v))); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, _ := b.Stats("crm")
	if st.Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	if st.Records > 8+1 {
		t.Fatalf("retained %d records after compaction", st.Records)
	}
	// A fresh reader sees exactly one (the newest) value per key.
	recs, err := b.FetchNoWait("crm", 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, r := range recs {
		seen[string(r.Key)] = string(r.Value)
	}
	if len(seen) != 4 {
		t.Fatalf("keys = %d, want 4 (%v)", len(seen), seen)
	}
	for k, v := range seen {
		if v != "v4" {
			t.Fatalf("key %s = %s, want newest v4", k, v)
		}
	}
}

func TestCompactionPreservesOffsetsAndOrder(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	_ = b.CreateTopic("crm", TopicConfig{Partitions: 1, Compacted: true, CompactEvery: 4})
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i%2)
		if _, _, err := b.Publish("crm", []byte(key), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := b.Fetch(context.Background(), "crm", 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Offset <= recs[i-1].Offset {
			t.Fatalf("offsets not monotonic: %d then %d", recs[i-1].Offset, recs[i].Offset)
		}
	}
	// Fetching an offset inside a compaction hole skips to the next
	// surviving record rather than erroring.
	if len(recs) >= 2 && recs[1].Offset > recs[0].Offset+1 {
		hole := recs[0].Offset + 1
		got, err := b.Fetch(context.Background(), "crm", 0, hole, 1)
		if err != nil || len(got) != 1 || got[0].Offset < hole {
			t.Fatalf("hole fetch = %+v, %v", got, err)
		}
	}
	// Keyless records survive compaction.
	_ = b.DeleteTopic("crm")
	_ = b.CreateTopic("crm", TopicConfig{Partitions: 1, Compacted: true, CompactEvery: 3})
	for i := 0; i < 6; i++ {
		if _, err := b.PublishTo("crm", 0, nil, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := b.Stats("crm")
	if st.Records != 6 {
		t.Fatalf("keyless records dropped by compaction: %d of 6", st.Records)
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
			if _, err := b.PublishTo("t", part, nil, []byte(val)); err != nil {
				return false
			}
			published[part] = append(published[part], val)
		}
		for part := 0; part < 3; part++ {
			if len(published[part]) == 0 {
				continue
			}
			recs, err := b.Fetch(context.Background(), "t", part, 0, count+1)
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

package stream_test

// Regression test for topic deletion racing in-flight readers: a
// consumer that resolved the topic before DeleteTopic won the race must
// see ErrNoTopic — never leftover records from the deleted log and never
// ErrBrokerClosed (the broker is still up).

import (
	"context"
	"errors"
	"testing"

	"odakit/internal/plane"
	"odakit/internal/stream"
)

// parkSignal is a broker that reports each Ready call once the channel it
// hands out is known, so a test knows when a reader has parked.
type parkSignal struct {
	*stream.Broker
	parked chan int // the partition of each Ready call
}

func (s *parkSignal) Ready(topic string, p int, off int64) (<-chan struct{}, error) {
	ch, err := s.Broker.Ready(topic, p, off)
	s.parked <- p
	return ch, err
}

func TestFetchAfterDeleteTopicReturnsNoTopic(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	if err := b.CreateTopic("doomed", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := b.PublishBatch("doomed", []stream.Message{{Key: []byte{byte(i)}, Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
	}

	src := &parkSignal{Broker: b, parked: make(chan int)}
	r, err := plane.NewReader(src, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Poll(context.Background(), 64, func(string, int, []stream.Record) error { return nil }); n != 32 || err != nil {
		t.Fatalf("reading the log before the delete: %d records, %v", n, err)
	}

	// A reader parked past the end of every partition must be woken by
	// the delete.
	woke := make(chan error, 1)
	go func() { woke <- r.Wait(context.Background()) }()
	for p := 0; p < 2; p++ {
		<-src.parked
	}
	if err := b.DeleteTopic("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := <-woke; err != nil {
		t.Fatalf("a reader parked across DeleteTopic woke with %v", err)
	}

	// A fetch at a retained offset must not serve the deleted log's records.
	recs, err := b.FetchNoWait("doomed", 0, 0, 16)
	if !errors.Is(err, stream.ErrNoTopic) {
		t.Fatalf("FetchNoWait after DeleteTopic: got recs=%d err=%v, want ErrNoTopic", len(recs), err)
	}
	// Nor may the woken reader: its next pass ends with the
	// topic-not-found error and delivers nothing.
	n, err := r.Poll(context.Background(), 16, func(string, int, []stream.Record) error { return nil })
	if n != 0 || !errors.Is(err, stream.ErrNoTopic) {
		t.Fatalf("Reader.Poll after DeleteTopic: %d records, err %v, want ErrNoTopic", n, err)
	}
}

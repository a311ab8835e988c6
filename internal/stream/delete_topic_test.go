package stream_test

// Regression test for topic deletion racing in-flight readers: a
// consumer that resolved the topic before DeleteTopic won the race must
// see ErrNoTopic — never leftover records from the deleted log and never
// ErrBrokerClosed (the broker is still up).

import (
	"context"
	"errors"
	"testing"
	"time"

	"odakit/internal/plane"
	"odakit/internal/stream"
)

func TestFetchAfterDeleteTopicReturnsNoTopic(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	if err := b.CreateTopic("doomed", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, _, err := b.Publish("doomed", []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	r, err := plane.NewReader(b, "doomed")
	if err != nil {
		t.Fatal(err)
	}

	// A fetcher blocked past the end of the log must wake with ErrNoTopic.
	errc := make(chan error, 1)
	go func() {
		end, _ := b.EndOffset("doomed", 0)
		_, err := b.Fetch(context.Background(), "doomed", 0, end, 16)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := b.DeleteTopic("doomed"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, stream.ErrNoTopic) {
			t.Fatalf("blocked Fetch after DeleteTopic: got %v, want ErrNoTopic", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Fetch did not wake after DeleteTopic")
	}

	// A fetch at a retained offset must not serve the deleted log's records.
	recs, err := b.FetchNoWait("doomed", 0, 0, 16)
	if !errors.Is(err, stream.ErrNoTopic) {
		t.Fatalf("FetchNoWait after DeleteTopic: got recs=%d err=%v, want ErrNoTopic", len(recs), err)
	}
	// Nor may a reader positioned before the deletion: the pass ends with
	// the topic-not-found error and delivers nothing.
	n, err := r.Poll(context.Background(), 16, func(string, int, []stream.Record) error { return nil })
	if n != 0 || !errors.Is(err, stream.ErrNoTopic) {
		t.Fatalf("Reader.Poll after DeleteTopic: %d records, err %v, want ErrNoTopic", n, err)
	}
}
